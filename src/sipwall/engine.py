"""Inspection engine: parse, track transactions, evaluate scheduled rules.

Every datagram gets exactly one verdict.  Anything that cannot be parsed
or that blows up mid-evaluation is dropped, never forwarded.  The engine
clock is whatever arrival time the caller supplies (trace timestamps in
replay, receive times in proxy mode); no wall-clock reads happen on the
message path.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from itertools import compress, groupby, repeat
from operator import attrgetter
from typing import Callable, Iterator, NamedTuple

from .parser import FIELD_IDS, FieldPath, MalformedMessage, ParseTree
from .rules import Action, ActionKind, Clause, ClauseKind, Rule, RuleProgram, _COMPARATORS
from .state import GLOBAL_KEY, Scope, StateStore, expire_head

__all__ = [
    "Verdict",
    "MessageContext",
    "TransactionTracker",
    "Engine",
    "RuleBlock",
    "rule_blocks",
]

DEFAULT_SWEEP_PERIOD = 256


@dataclass
class Verdict:
    decision: str  # "forward" | "drop"
    matched_rules: tuple[int, ...] = ()
    dropping_rule: int | None = None
    processing_time: float = 0.0  # seconds, dequeue to verdict, incl. any sweep it triggered
    malformed: bool = False
    internal_error: bool = False


@dataclass
class MessageContext:
    tree: ParseTree
    dialog_key: tuple[str, str, str] | None
    transaction_key: tuple[str, str] | None
    tx_class: str | None
    direction: str
    src: tuple[str, int] | None
    dst: tuple[str, int] | None
    arrival_time: float

    @property
    def src_host(self) -> str | None:
        return self.src[0] if self.src else None


class TransactionTracker:
    """Last-seen time per transaction key, in order of last sighting; the
    sweep forgets keys idle longer than the lifetime, as many as
    expire_head allows, and none without a lifetime."""

    def __init__(self, lifetime: float | None):
        self.lifetime = lifetime
        self.records: dict[tuple[str, str], float] = {}
        self._swept_size = 0  # len(records) after the last sweep

    def update(self, key: tuple[str, str], now: float) -> None:
        records = self.records
        if key in records:  # move to the tail
            del records[key]
        records[key] = now

    def sweep(self, now: float) -> int:
        if self.lifetime is None:
            return 0
        records = self.records
        evicted = expire_head(records, now, self.lifetime, self._swept_size)
        self._swept_size = len(records)
        return evicted

    def live(self) -> int:
        return len(self.records)


@dataclass
class EngineStats:
    processed: int = 0
    forwarded: int = 0
    dropped: int = 0
    malformed: int = 0
    internal_errors: int = 0
    drops_by_rule: dict[int, int] = field(default_factory=dict)


_SEARCH = re.Pattern.search

# ^, the run of literal characters after it, and the character ending the run
_ANCHORED_RUN = re.compile(r"\^([^.^$*+?{}\[\]\\|()]*)(.?)")


def _anchored_prefix(pattern: str) -> str | None:
    """A literal that every value pattern matches starts with, or None.

    Only a pattern that starts with ^ and holds no | and no (? has one:
    on Python 3.10 an inline flag such as (?m) applies to the whole
    pattern even when it comes later.  The prefix runs up to the first
    special character; a quantifier there applies to the last literal,
    which is then dropped.
    """
    run = None if "|" in pattern or "(?" in pattern else _ANCHORED_RUN.match(pattern)
    if run is None:
        return None
    prefix, stop = run.groups()
    if stop and stop in "*+?{":
        prefix = prefix[:-1]
    return prefix or None


class RuleBlock(NamedTuple):
    """Two or more consecutive scheduled rules whose first clause is a
    non-negated regex on the same value source."""

    rule_ids: tuple[int, ...]
    field: str  # the clause target's key
    prefixes: tuple[str | None, ...]  # each member's anchored prefix, or None


def _block_field(rule: Rule) -> str | None:
    """The key of the field a rule's first clause searches, if that clause
    is a non-negated regex."""
    first = rule.clauses[0] if rule.clauses else None
    if first is None or first.kind is not ClauseKind.REGEX or first.negated:
        return None
    return first.target.key()


def _schedule_runs(program: RuleProgram) -> Iterator[RuleBlock | tuple[int, ...]]:
    """The schedule in order, as rule blocks and the tuples of rule ids
    between them."""
    loose: list[int] = []
    for key, group in groupby(program.schedule, lambda rid: _block_field(program.rule(rid))):
        rids = tuple(group)
        if key is None or len(rids) < 2:
            loose.extend(rids)
            continue
        if loose:
            yield tuple(loose)
            loose = []
        firsts = [program.rule(rid).clauses[0] for rid in rids]
        prefixes = tuple(_anchored_prefix(first.regex.pattern) for first in firsts)
        yield RuleBlock(rids, key, prefixes)
    if loose:
        yield tuple(loose)


def rule_blocks(program: RuleProgram) -> list[RuleBlock]:
    """The blocks the engine evaluates program's schedule in."""
    return [run for run in _schedule_runs(program) if isinstance(run, RuleBlock)]


class _Block(NamedTuple):
    value: Callable[[MessageContext], object]  # the members' first-clause subject
    prefixes: tuple[str, ...]  # a value starting with none of these hits no member
    patterns: tuple[re.Pattern, ...]  # each member's first-clause regex
    members: tuple[tuple, ...]  # each member's rule entry without that clause


class Engine:
    def __init__(self, program: RuleProgram, *, sweep_period: int = DEFAULT_SWEEP_PERIOD):
        self.program = program
        self.store = StateStore(program.declared_objects)
        self.transactions = TransactionTracker(program.lifetimes[Scope.TRANSACTION])
        self.stats = EngineStats()
        self.sweep_period = sweep_period
        self._since_sweep = 0
        self._clock = 0.0
        self._clause_tests: dict[int, Callable] = {}  # by id(clause)
        self._plan = tuple(map(self._compile_run, _schedule_runs(program)))

    # ------------------------------------------------------------------

    def process_message(
        self,
        raw: bytes,
        *,
        direction: str = "in",
        src: tuple[str, int] | None = None,
        dst: tuple[str, int] | None = None,
        arrival_time: float = 0.0,
    ) -> Verdict:
        t0 = time.perf_counter_ns()
        self._clock = arrival_time
        self.stats.processed += 1
        matched: tuple[int, ...] = ()
        dropping: int | None = None
        malformed = internal = False
        try:
            tree = self.program.parser.parse_message(raw)
        except MalformedMessage:
            malformed = True
        except Exception:
            internal = True
        else:
            try:
                ctx = self.context_for(
                    tree, direction=direction, src=src, dst=dst, arrival_time=arrival_time
                )
                matched, dropping = self._evaluate(ctx)
            except Exception:
                internal = True
                matched, dropping = (), None

        if malformed:
            decision = "drop"
            self.stats.malformed += 1
        elif internal:
            decision = "drop"
            self.stats.dropped += 1
            self.stats.internal_errors += 1
        elif dropping is not None:
            decision = "drop"
            self.stats.dropped += 1
            self.stats.drops_by_rule[dropping] = (
                self.stats.drops_by_rule.get(dropping, 0) + 1
            )
        else:
            decision = "forward"
            self.stats.forwarded += 1

        self._maybe_sweep(arrival_time)
        elapsed = time.perf_counter_ns() - t0
        return Verdict(
            decision=decision,
            matched_rules=matched,
            dropping_rule=dropping,
            processing_time=elapsed / 1e9,
            malformed=malformed,
            internal_error=internal,
        )

    def context_for(
        self,
        tree: ParseTree,
        *,
        direction: str = "in",
        src: tuple[str, int] | None = None,
        dst: tuple[str, int] | None = None,
        arrival_time: float = 0.0,
    ) -> MessageContext:
        parser = self.program.parser
        tkey = parser.extract_transaction_key(tree)
        tx_class = None
        if tkey is not None:
            self.transactions.update(tkey, arrival_time)
            tx_class = "invite" if tkey[1].upper() in ("INVITE", "ACK") else "non-invite"
        return MessageContext(
            tree=tree,
            dialog_key=parser.extract_dialog_key(tree),
            transaction_key=tkey,
            tx_class=tx_class,
            direction=direction,
            src=src,
            dst=dst,
            arrival_time=arrival_time,
        )

    def end_of_trace(self) -> None:
        # every sweep is capped, so sweep until one evicts nothing
        while self.store.expire(self._clock):
            pass
        while self.transactions.sweep(self._clock):
            pass
        self._since_sweep = 0

    def snapshot(self) -> dict:
        return {
            "processed": self.stats.processed,
            "forwarded": self.stats.forwarded,
            "dropped": self.stats.dropped,
            "malformed": self.stats.malformed,
            "internal_errors": self.stats.internal_errors,
            "drops_by_rule": dict(self.stats.drops_by_rule),
            "live_instances": self.store.live_counts(),
            "live_instances_total": self.store.live_total(),
            "live_transactions": self.transactions.live(),
        }

    # ------------------------------------------------------------------

    def _maybe_sweep(self, now: float) -> None:
        self._since_sweep += 1
        if self._since_sweep >= self.sweep_period:
            self._since_sweep = 0
            self.store.expire(now)
            self.transactions.sweep(now)

    def _evaluate(self, ctx: MessageContext) -> tuple[tuple[int, ...], int | None]:
        matched: list[int] = []
        tx_class = ctx.tx_class
        for run in self._plan:
            if run.__class__ is _Block:
                # a first clause has no side effects: one C-level pass of
                # bare searches picks the members to run, in schedule order
                value, prefixes, patterns, members = run
                v = value(ctx)
                if v is None or not v.startswith(prefixes):
                    continue
                run = list(compress(members, map(_SEARCH, patterns, repeat(v))))
            for rid, phase, tests, steps, drops in run:
                if phase is not None and phase != tx_class:
                    continue
                for test in tests:
                    if not test(ctx):
                        break
                else:
                    matched.append(rid)
                    for step in steps:
                        step(ctx)
                    if drops:
                        return tuple(matched), rid
        return tuple(matched), None

    def evaluate_clause(self, clause: Clause, ctx: MessageContext) -> bool:
        """Outcome of one clause of this engine's program on ctx."""
        return self._clause_tests[id(clause)](ctx)

    # ------------------------------------------------------------------
    # Compiled clauses and actions hold the store, never the engine, so no
    # cycle keeps a dropped engine and its state alive.

    def _compile_run(self, run: RuleBlock | tuple[int, ...]) -> _Block | tuple:
        """A tuple of rule entries, or a _Block for a rule block."""
        rule = self.program.rule
        if not isinstance(run, RuleBlock):
            return tuple(self._compile_rule(rule(rid)) for rid in run)
        members = []
        for rid in run.rule_ids:
            rid, phase, tests, steps, drops = self._compile_rule(rule(rid))
            members.append((rid, phase, tests[1:], steps, drops))
        firsts = [rule(rid).clauses[0] for rid in run.rule_ids]
        # an empty prefix passes every value
        prefixes = ("",) if None in run.prefixes else tuple(dict.fromkeys(run.prefixes))
        return _Block(
            self._value_source(firsts[0].target),
            prefixes,
            tuple(first.regex for first in firsts),
            tuple(members),
        )

    def _compile_rule(self, rule: Rule) -> tuple:
        """(rule id, phase or None, clause tests, action steps, drops); steps end at a drop."""
        tests = tuple(map(self._compile_clause, rule.clauses))
        self._clause_tests.update(zip(map(id, rule.clauses), tests))
        steps, drops = [], False
        for act in rule.actions:
            if act.kind is ActionKind.DROP:
                drops = True
                break
            if act.kind is not ActionKind.FORWARD:
                steps.append(self._compile_action(act))
        phase = None if rule.phase == "any" else rule.phase
        return rule.rule_id, phase, tests, tuple(steps), drops

    def _scope_key(self, name: str) -> Callable[[MessageContext], tuple | None]:
        """Reads the key of object name's scope off a context; None without one."""
        scope = self.program.declared_objects[name].scope
        if scope is Scope.GLOBAL:
            return lambda ctx: GLOBAL_KEY
        return attrgetter("dialog_key" if scope is Scope.DIALOG else "transaction_key")

    def _value_source(self, target: FieldPath | str) -> Callable[[MessageContext], object]:
        """What a clause tests or a hold: stores: a counter's level, the
        datagram's source host, or a parse-tree node's value; None when absent."""
        if isinstance(target, str):  # a counter's current level
            store, key_of = self.store, self._scope_key(target)
            def value(ctx: MessageContext) -> int | None:
                key = key_of(ctx)
                now = ctx.arrival_time
                return None if key is None else store.resolve(target, key, now).value(now)
        elif (key := target.key()) == "FIELDS:net.src_addr":
            def value(ctx: MessageContext) -> str | None:
                return ctx.src_host
        else:
            fid = FIELD_IDS[key]
            def value(ctx: MessageContext) -> str | None:
                node = ctx.tree.nodes.get(fid)
                return None if node is None else node.value
        return value

    def _compile_clause(self, clause: Clause) -> Callable[[MessageContext], bool]:
        """The clause as one closure.  An absent subject (field, or scope key
        of a scoped object) makes it false in both polarities."""
        neg, kind, store = clause.negated, clause.kind, self.store
        value = self._value_source(clause.target)

        if kind is ClauseKind.REGEX:
            search = clause.regex.search
            def test(ctx: MessageContext) -> bool:
                v = value(ctx)
                return v is not None and (search(v) is None) is neg

        elif kind is ClauseKind.NORMALIZE:
            def test(ctx: MessageContext) -> bool:
                return value(ctx) is not None  # the cap is applied at parse time

        elif kind is ClauseKind.IN:
            name = clause.object_name
            key_of = self._scope_key(name)
            def test(ctx: MessageContext) -> bool:
                v = value(ctx)
                key = None if v is None else key_of(ctx)
                if key is None:
                    return False
                inst = store.resolve(name, key, ctx.arrival_time, create=False)
                return (inst is not None and inst.contains(v)) != neg  # no instance: v is not in it

        else:
            cmp, operand = _COMPARATORS[kind], clause.operand
            def test(ctx: MessageContext) -> bool:
                v = value(ctx)
                if v is None:
                    return False
                try:
                    number = int(v.strip()) if isinstance(v, str) else v  # counters are ints
                except ValueError:
                    return neg  # a non-number compares false, then negation applies
                return cmp(number, operand) != neg

        return test

    def _compile_action(self, act: Action) -> Callable[[MessageContext], None]:
        """A hold: or declare: action as one closure, a no-op without a scope key."""
        name, store, key_of = act.name, self.store, self._scope_key(act.name)
        if act.kind is ActionKind.HOLD:
            value = self._value_source(act.source)
            def hold(ctx: MessageContext) -> None:
                key, v = key_of(ctx), value(ctx)
                if key is not None and v is not None:
                    store.resolve(name, key, ctx.arrival_time).insert(v)
            return hold

        def count(ctx: MessageContext) -> None:
            key = key_of(ctx)
            if key is not None:
                store.resolve(name, key, ctx.arrival_time).increment(ctx.arrival_time)
        return count
