"""Engine against an independent reference interpreter.

The reference below implements the rule language as the README states
it, over its own model of each message (the field values are known by
construction, nothing is parsed back) and its own model of state.  It
uses nothing from sipwall but the public result types it compares
against.  Random programs run over random traffic through both, and
every verdict, every counter and the number of live state instances
must agree.  The generator also emits runs of rules that test one field
first, which the engine evaluates as rule blocks; the reference knows
nothing of blocks.  A second test adds expiry: short lifetimes and
frequent sweeps, with a reference that expires state by a full scan.
"""

from __future__ import annotations

import heapq
import math
import operator
import random
import re
from collections import Counter
from dataclasses import dataclass, field

from sipwall.engine import Engine, _anchored_prefix, rule_blocks
from sipwall.rules import compile_ruleset, parse_ruleset
from sipwall.state import Scope

CMP = {"eq": operator.eq, "gt": operator.gt, "lt": operator.lt,
       "ge": operator.ge, "le": operator.le}
NET_SRC = "FIELDS:net.src_addr"
UA = "FIELDS:sip.user_agent"

# field -> tests a clause may put on it (regex patterns and comparisons)
FIELD_TESTS = {
    "FIELDS:sip.method": ["^INVITE$", "^BYE$", "I", "."],
    "FIELDS:sip.from": ["alice", "tag=t1", "bob"],
    "FIELDS:sip.from.tag": ["^t1$", "t"],
    "FIELDS:sip.call_id": ["^c1", "[@]h$"],
    "FIELDS:sip.contact": [".", "10\\.0\\.0\\.1", ""],  # "" is a bare target
    UA: ["^UA", "lite", "@normalize 5", "@normalize 40"],
    "FIELDS:sip.content_length": ["@gt 10", "@le 12", "@eq 0", "@ge 300", "@lt 5", "^1"],
    "FIELDS:sip.cseq": ["@ge 1", "INVITE$"],  # "N METHOD" is no number
    NET_SRC: ["^10\\.", "^192", "@gt 5"],
}
# first tests of a run of rules on one field: anchored, unanchored and
# bare ("") patterns; ^OPTIONSx* and ^xlitez? keep a prefix only without
# their quantified last literal, ^c{1}3 has none
BLOCK_TESTS = {
    "FIELDS:sip.method": ["^INVITE$", "^BYE$", "^INV", "^OPTIONSx*", "I", ""],
    UA: ["^UA", "^xlitez?", "^UA-1", "lite", ""],
    NET_SRC: ["^10\\.", "^192", "5$"],
    "FIELDS:sip.call_id": ["^c1", "^c2@", "[@]h$", "^c{1}3"],
}
HOLD_SOURCES = ["FIELDS:sip.from", "FIELDS:sip.from.tag", "FIELDS:sip.call_id",
                "FIELDS:sip.contact", UA, NET_SRC]
LIFETIME_FREE_SPAN = 20.0  # seconds of traffic: no state instance can expire


# ----------------------------------------------------------------------
# programs
# ----------------------------------------------------------------------


@dataclass
class Obj:
    name: str
    kind: str  # set | list | bag | counter
    scope: str  # dialog | transaction | global
    source: str | None = None
    leak: int = 0
    interval: int = 1


@dataclass
class RClause:
    target: str  # field path, or a counter name
    negated: bool
    op: str  # regex | normalize | in | eq | gt | lt | ge | le
    arg: str | int | None = None

    def text(self) -> str:
        target = f'"{self.target}"' if ":" in self.target else self.target
        neg = "!" if self.negated else ""
        if self.op == "regex":
            return target if self.arg == "" and not neg else f'{target} "{neg}{self.arg}"'
        return f'{target} "{neg}@{self.op} {self.arg}"'


@dataclass
class RRule:
    rid: int
    phase: str
    clauses: list[RClause]
    actions: list  # "drop", "forward" or an Obj it declares

    def text(self) -> str:
        parts = ["secsip"]
        if self.phase != "any":
            parts.append(f"phase:{self.phase}")
        parts.append(" && ".join(c.text() for c in self.clauses))
        for act in self.actions:
            if isinstance(act, str):
                parts.append(act)
            elif act.kind == "counter":
                parts.append(f"declare:{act.name}=counter[{act.leak};{act.interval}]@{act.scope}")
            else:
                parts.append(f"hold:{act.name}={act.kind}[{act.source}]@{act.scope}")
        return " ".join(p for p in parts if p)

    @property
    def declares(self) -> list[Obj]:
        return [a for a in self.actions if isinstance(a, Obj)]

    @property
    def reads(self) -> set[str]:
        return {c.arg if c.op == "in" else c.target
                for c in self.clauses if c.op == "in" or ":" not in c.target}


def state_clause(rng: random.Random, objs: list[Obj], roll: float) -> RClause | None:
    """A counter comparison (roll < 0.2) or an @in read (roll < 0.45) of
    an object in objs, if there is one to read."""
    neg = rng.random() < 0.4
    colls = [o for o in objs if o.kind != "counter"]
    counters = [o for o in objs if o.kind == "counter"]
    if counters and roll < 0.2:
        op = rng.choice(list(CMP))
        return RClause(rng.choice(counters).name, neg, op, rng.randint(0, 3))
    if colls and roll < 0.45:
        target = rng.choice(HOLD_SOURCES)
        return RClause(target, neg, "in", rng.choice(colls).name)
    return None


def random_clause(rng: random.Random, objs: list[Obj]) -> RClause:
    read = state_clause(rng, objs, rng.random())
    if read is not None:
        return read
    neg = rng.random() < 0.4
    target = rng.choice(list(FIELD_TESTS))
    test = rng.choice(FIELD_TESTS[target])
    if not test.startswith("@"):
        return RClause(target, neg, "regex", test)
    op, arg = test[1:].split()
    return RClause(target, neg and op != "normalize", op, int(arg))


def random_rule(rng: random.Random, objs: list[Obj], clauses: list[RClause]) -> RRule:
    """A rule with these clauses, random actions and a random phase;
    objects it declares are appended to objs."""
    actions: list = []
    for _ in range(rng.randint(0, 2)):
        name = f"o{len(objs)}"
        if rng.random() < 0.5:
            obj = Obj(name, "counter", rng.choice(("global", "dialog", "transaction")),
                      leak=rng.randint(0, 2), interval=rng.randint(1, 4))
        else:
            obj = Obj(name, rng.choice(("set", "list", "bag")),
                      rng.choice(("dialog", "dialog", "transaction", "global")),
                      source=rng.choice(HOLD_SOURCES))
        objs.append(obj)
        actions.append(obj)
    if rng.random() < 0.5:
        actions.insert(rng.randint(0, len(actions)), "drop")  # may precede a declare
    if rng.random() < 0.2:
        actions.insert(rng.randint(0, len(actions)), "forward")
    if not clauses and not any(isinstance(a, Obj) for a in actions):
        objs.append(Obj(f"o{len(objs)}", "counter", "global"))
        actions.append(objs[-1])  # a rule without clauses must declare
    if not actions:
        actions.append("forward")
    phase = rng.choice(("any", "any", "any", "invite", "non-invite"))
    return RRule(0, phase, clauses, actions)


def block_run(rng: random.Random, objs: list[Obj]) -> list[RRule]:
    """2-4 rules whose first clause is a plain regex on one field, most
    with an @in or counter read as the second."""
    target = rng.choice(list(BLOCK_TESTS))
    run = []
    for _ in range(rng.randint(2, 4)):
        clauses = [RClause(target, False, "regex", rng.choice(BLOCK_TESTS[target]))]
        read = state_clause(rng, objs, rng.random() * 0.5)
        if read is not None and rng.random() < 0.8:
            clauses.append(read)
        elif rng.random() < 0.3:
            clauses.append(random_clause(rng, objs))
        run.append(random_rule(rng, objs, clauses))
    return run


def random_program(rng: random.Random) -> list[RRule]:
    """Rules that read only objects declared by earlier ones, so the
    dependency graph is acyclic; returned in shuffled source order, with
    each block run kept together."""
    objs: list[Obj] = []
    groups = []
    for _ in range(rng.randint(2, 7)):
        if rng.random() < 0.3:
            groups.append(block_run(rng, objs))
        else:
            clauses = [random_clause(rng, objs) for _ in range(rng.choice((0, 1, 1, 2, 2, 3)))]
            groups.append([random_rule(rng, objs, clauses)])
    rng.shuffle(groups)
    rules = [rule for group in groups for rule in group]
    # ids follow source order, as the compiler assigns them
    for rid, rule in enumerate(rules, 1):
        rule.rid = rid
    return rules


# ----------------------------------------------------------------------
# traffic
# ----------------------------------------------------------------------


@dataclass
class Msg:
    raw: bytes
    fields: dict[str, str]  # field path -> value, absent fields left out
    request: bool
    src: tuple[str, int] | None
    at: float


def random_message(rng: random.Random, at: float) -> Msg:
    fields: dict[str, str] = {}
    headers = []

    def header(name: str, path: str | None, value: str) -> None:
        headers.append(f"{name}: {value}")
        if path:
            fields[path] = value

    request = rng.random() < 0.85
    method = rng.choice(("INVITE", "ACK", "BYE", "OPTIONS", "REGISTER"))
    if request:
        start = f"{method} sip:bob@gw.example SIP/2.0"
        fields["FIELDS:sip.method"] = method
    else:
        start = f"SIP/2.0 {rng.choice((180, 200, 486))} Reason"
    branch = rng.choice(("z9hG4bKa", "z9hG4bKb", None))
    header("Via", None, "SIP/2.0/UDP 10.0.0.5:5060" + (f";branch={branch}" if branch else ""))
    if branch:
        fields["FIELDS:sip.via.branch"] = branch
    user, tag = rng.choice(("alice", "bob")), rng.choice(("t1", "t2", None))
    header("From", "FIELDS:sip.from", f"<sip:{user}@client.example>" + (f";tag={tag}" if tag else ""))
    if tag:
        fields["FIELDS:sip.from.tag"] = tag
    to_tag = rng.choice(("x1", None))
    header("To", None, "<sip:bob@gw.example>" + (f";tag={to_tag}" if to_tag else ""))
    if to_tag:
        fields["FIELDS:sip.to.tag"] = to_tag
    if rng.random() < 0.85:
        header("Call-ID", "FIELDS:sip.call_id", rng.choice(("c1@h", "c2@h", "c3@h")))
    cseq_method = method if request or rng.random() < 0.5 else rng.choice(("INVITE", "BYE"))
    header("CSeq", "FIELDS:sip.cseq", f"{rng.randint(1, 9)} {cseq_method}")
    fields["FIELDS:sip.cseq.method"] = cseq_method
    if rng.random() < 0.5:
        contact = f"<sip:{user}@10.0.0.{rng.randint(1, 3)}>"
        header("Contact", "FIELDS:sip.contact", rng.choice((contact, contact, "")))
    if rng.random() < 0.5:
        header("User-Agent", UA, rng.choice(("UA-1 softphone", "xlite 9", "UA")))
    length = rng.choice(("0", "12", "300", "abc", None))
    if length is not None:
        header("Content-Length", "FIELDS:sip.content_length", length)
    src = rng.choice((None, ("10.0.0.5", 5060), ("192.0.2.9", 5060)))
    if src:
        fields[NET_SRC] = src[0]
    raw = "\r\n".join([start] + headers).encode() + b"\r\n\r\n"
    return Msg(raw, fields, request, src, at)


# ----------------------------------------------------------------------
# the reference
# ----------------------------------------------------------------------


def reference_schedule(rules: list[RRule]) -> list[RRule]:
    """Declarers before readers; among free rules non-disruptive first,
    then source order."""
    declarer = {o.name: r.rid for r in rules for o in r.declares}
    indeg = {r.rid: 0 for r in rules}
    succs: dict[int, list[int]] = {r.rid: [] for r in rules}
    for r in rules:
        for name in r.reads:
            succs[declarer[name]].append(r.rid)
            indeg[r.rid] += 1
    by_id = {r.rid: r for r in rules}
    ready = [("drop" in r.actions, r.rid) for r in rules if indeg[r.rid] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        rid = heapq.heappop(ready)[1]
        order.append(by_id[rid])
        for nxt in succs[rid]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, ("drop" in by_id[nxt].actions, nxt))
    return order


def regex_hit(pattern: str, value: str) -> bool:
    # a bare target (empty test) means present and non-empty
    return re.search(pattern, value) is not None if pattern else value != ""


@dataclass
class Reference:
    rules: list[RRule]
    seen: Counter = field(default_factory=Counter)  # situations exercised

    def __post_init__(self) -> None:
        self.order = reference_schedule(self.rules)
        self.objs = {o.name: o for r in self.rules for o in r.declares}
        caps = [c.arg for r in self.rules for c in r.clauses if c.op == "normalize"]
        self.ua_cap = min(caps) if caps else None
        self.colls: dict[tuple, list] = {}
        self.counters: dict[tuple, list] = {}  # key -> [level, created, epochs drained]

    def value(self, msg: Msg, path: str) -> str | None:
        value = msg.fields.get(path)
        if path == UA and value is not None and self.ua_cap is not None:
            value = value[: self.ua_cap].strip()
        return value

    def key(self, obj: Obj, msg: Msg) -> tuple | None:
        if obj.scope == "global":
            return (obj.name,)
        if obj.scope == "dialog":
            call_id = msg.fields.get("FIELDS:sip.call_id")
            if not call_id:
                return None
            return (obj.name, call_id, msg.fields.get("FIELDS:sip.from.tag", ""),
                    msg.fields.get("FIELDS:sip.to.tag", ""))
        branch = msg.fields.get("FIELDS:sip.via.branch")
        return (obj.name, branch, msg.fields["FIELDS:sip.cseq.method"]) if branch else None

    def level(self, key: tuple, now: float) -> int:
        obj = self.objs[key[0]]
        state = self.counters.setdefault(key, [0, now, 0])
        epochs = math.floor((now - state[1]) / obj.interval)
        state[0] = max(0, state[0] - obj.leak * (epochs - state[2]))
        state[2] = epochs
        return state[0]

    def hold(self, key: tuple, now: float) -> list:
        """The collection a hold: writes to, created if there is none."""
        return self.colls.setdefault(key, [])

    def held(self, key: tuple, now: float) -> list | tuple:
        """The collection an @in reads; a read creates nothing."""
        return self.colls.get(key, ())

    def clause(self, c: RClause, msg: Msg) -> bool:
        if c.negated:
            self.seen["negated"] += 1
        if ":" not in c.target:  # counter read
            key = self.key(self.objs[c.target], msg)
            if key is None:
                return False
            return CMP[c.op](self.level(key, msg.at), c.arg) != c.negated
        if c.target == NET_SRC:
            self.seen["src given" if msg.src else "src absent"] += 1
        value = self.value(msg, c.target)
        if value is None:
            self.seen["absent field"] += 1
            return False
        if value == "":
            self.seen["empty value"] += 1
        if c.op == "regex":
            return regex_hit(c.arg, value) != c.negated
        if c.op == "normalize":
            return True
        if c.op == "in":
            obj = self.objs[c.arg]
            key = self.key(obj, msg)
            if key is None:
                if obj.scope == "dialog" and "FIELDS:sip.call_id" not in msg.fields:
                    self.seen["@in without Call-ID"] += 1
                return False
            cap = self.ua_cap if obj.source == UA and self.ua_cap else 1024
            return (value[:cap] in self.held(key, msg.at)) != c.negated  # a read creates nothing
        try:
            number = int(value.strip())
        except ValueError:
            self.seen["non-numeric"] += 1
            return c.negated
        return CMP[c.op](number, c.arg) != c.negated

    def run(self, msg: Msg) -> tuple[str, tuple[int, ...], int | None]:
        cseq_method = msg.fields["FIELDS:sip.cseq.method"]
        tx_class = None
        if "FIELDS:sip.via.branch" in msg.fields:
            tx_class = "invite" if cseq_method in ("INVITE", "ACK") else "non-invite"
        matched = []
        for rule in self.order:
            if rule.phase != "any" and rule.phase != tx_class:
                self.seen["phase skip"] += 1
                continue
            if not all(self.clause(c, msg) for c in rule.clauses):
                continue
            matched.append(rule.rid)
            for act in rule.actions:
                if act == "drop":
                    if any(isinstance(a, Obj) for a in rule.actions[rule.actions.index(act):]):
                        self.seen["drop before declare"] += 1
                    return "drop", tuple(matched), rule.rid
                if act == "forward":
                    continue
                key = self.key(act, msg)
                if key is None:
                    continue
                if act.kind == "counter":
                    self.level(key, msg.at)
                    self.counters[key][0] += 1
                else:
                    value = self.value(msg, act.source)
                    if value is not None:
                        self.seen["hold from src"] += act.source == NET_SRC
                        self.hold(key, msg.at).append(value)
        return "forward", tuple(matched), None


def block_situations(program, rules: list[RRule], ref: Reference, msg: Msg,
                     dropping: int | None) -> list[str]:
    """How each rule block the engine forms fares on msg, judged from the
    reference's values; blocks after the dropping rule are not reached."""
    position = {rid: i for i, rid in enumerate(program.schedule)}
    out = []
    for block in rule_blocks(program):
        if dropping is not None and position[dropping] < position[block.rule_ids[0]]:
            continue
        value = ref.value(msg, block.field)
        if value is None:
            out.append("block absent")
        elif None not in block.prefixes and not value.startswith(block.prefixes):
            out.append("prefilter skip")
        elif any(regex_hit(rules[rid - 1].clauses[0].arg, value) for rid in block.rule_ids):
            out.append("block hit")
        else:
            out.append("block miss")
    return out


def test_engine_matches_reference_on_random_programs():
    rng = random.Random(20091)
    seen: Counter = Counter()
    programs = 250
    for _ in range(programs):
        rules = random_program(rng)
        text = "\n".join(r.text() for r in rules)
        program = compile_ruleset(parse_ruleset(text))
        engine = Engine(program)
        ref = Reference(rules)
        for block in rule_blocks(program):
            seen["block"] += 1
            if None in block.prefixes and any(block.prefixes):
                seen["mixed block without prefilter"] += 1
        msgs = [random_message(rng, i * 0.25) for i in range(int(LIFETIME_FREE_SPAN / 0.25))]
        for i, msg in enumerate(msgs):
            got = engine.process_message(
                msg.raw, direction="in" if msg.request else "out",
                src=msg.src, arrival_time=msg.at,
            )
            want = ref.run(msg)
            assert (got.decision, got.matched_rules, got.dropping_rule) == want, (
                f"message {i} under\n{text}\n{msg.raw.decode()}"
            )
            seen.update(block_situations(program, rules, ref, msg, want[2]))
        end = msgs[-1].at
        for key in ref.counters:
            inst = engine.store.peek(key[0], key[1:])  # the reference keys by (name, *scope key)
            assert inst is not None and inst.value(end) == ref.level(key, end), text
        assert engine.store.live_total() == len(ref.counters) + len(ref.colls), text
        seen += ref.seen
    for situation in ("negated", "absent field", "src given", "src absent",
                      "@in without Call-ID", "non-numeric", "phase skip",
                      "drop before declare", "empty value", "hold from src",
                      "block hit", "block miss", "prefilter skip",
                      "mixed block without prefilter"):
        assert seen[situation] > 0, f"{situation} never exercised"


# ----------------------------------------------------------------------
# expiry
# ----------------------------------------------------------------------


@dataclass
class ExpiringReference(Reference):
    """The reference with the README's expiry: an instance idle longer than
    its scope's lifetime is gone for a read and replaced by a fresh one on
    a write; every access touches it; a sweep scans every instance."""

    lifetimes: dict = field(default_factory=dict)  # scope -> seconds; global never expires

    def __post_init__(self) -> None:
        super().__post_init__()
        self.touched: dict[tuple, float] = {}  # key -> last touch

    def expired(self, key: tuple, now: float) -> bool:
        lifetime = self.lifetimes.get(self.objs[key[0]].scope)
        return lifetime is not None and now - self.touched[key] > lifetime

    def access(self, table: dict, key: tuple, now: float) -> None:
        """Discard key from table if it has expired; touch it if it is there."""
        if key in table and self.expired(key, now):
            del table[key]
            del self.touched[key]
            self.seen["expired on access"] += 1
        if key in table:
            self.touched[key] = max(self.touched[key], now)

    def level(self, key: tuple, now: float) -> int:
        self.access(self.counters, key, now)
        self.touched.setdefault(key, now)  # a counter read creates
        return super().level(key, now)

    def hold(self, key: tuple, now: float) -> list:
        self.access(self.colls, key, now)
        self.touched.setdefault(key, now)
        return super().hold(key, now)

    def held(self, key: tuple, now: float) -> list | tuple:
        self.access(self.colls, key, now)
        return super().held(key, now)

    def sweep(self, now: float) -> None:
        for table in (self.counters, self.colls):
            for key in [k for k in table if self.expired(k, now)]:
                del table[key]
                del self.touched[key]
                self.seen["swept"] += 1


def test_engine_matches_reference_with_expiry():
    # short lifetimes, gaps that reach them and frequent sweeps; a gap and
    # a lifetime in quarter seconds land an instance exactly on its lifetime
    rng = random.Random(3261)
    seen: Counter = Counter()
    for _ in range(150):
        rules = random_program(rng)
        text = "\n".join(r.text() for r in rules)
        lifetimes = {"dialog": rng.choice((1.0, 2.5, 6.0)),
                     "transaction": rng.choice((0.5, 1.0, 3.0))}
        period = rng.choice((1, 3, 7))
        program = compile_ruleset(parse_ruleset(text), scope_lifetimes={
            Scope(scope): life for scope, life in lifetimes.items()})
        engine = Engine(program, sweep_period=period)
        ref = ExpiringReference(rules, lifetimes=lifetimes)
        at = 0.0
        for i in range(80):
            at += rng.choice((0.0, 0.25, 0.25, 0.5, 1.0, 2.5))
            msg = random_message(rng, at)
            got = engine.process_message(
                msg.raw, direction="in" if msg.request else "out",
                src=msg.src, arrival_time=msg.at,
            )
            want = ref.run(msg)
            if (i + 1) % period == 0:
                ref.sweep(msg.at)
            assert (got.decision, got.matched_rules, got.dropping_rule) == want, (
                f"message {i} under\n{text}\n{msg.raw.decode()}"
            )
            assert engine.store.live_total() == len(ref.counters) + len(ref.colls), text
        engine.end_of_trace()
        ref.sweep(at)
        assert engine.store.live_total() == len(ref.counters) + len(ref.colls), text
        for key in ref.counters:
            inst = engine.store.peek(key[0], key[1:])
            assert inst is not None and inst.value(at) == Reference.level(ref, key, at), text
        seen += ref.seen
    for situation in ("expired on access", "swept"):
        assert seen[situation] > 100, f"{situation} too rarely exercised"


# ----------------------------------------------------------------------
# the anchored prefix the engine prefilters a block with
# ----------------------------------------------------------------------


def random_pattern(rng: random.Random) -> str:
    """From a small grammar: an optional leading inline flag and ^, a few
    literals, maybe a quantifier after the last, then dots, classes,
    escapes, groups, $ and maybe an alternative."""
    parts = []
    if rng.random() < 0.15:
        parts.append(rng.choice(("(?i)", "(?m)", "(?s)", "(?x)")))
    if rng.random() < 0.85:
        parts.append("^")
    parts += rng.choices("abc \t", k=rng.randint(0, 3))
    if rng.random() < 0.5:
        parts.append(rng.choice(("*", "+", "?", "*?", "{0,2}", "{1,2}", "{2}")))
    parts += rng.choices((".", "a", "b", "[ab]", "[^a]", "\\t", "\\.", "\\s", "\\w",
                          "(ab)", "(?:b|c)", "$", "\\n"), k=rng.randint(0, 2))
    if rng.random() < 0.2:
        parts += ["|", rng.choice("abc")]
    return "".join(parts)


def random_subject(rng: random.Random, pattern: str) -> str:
    """The pattern's literals, cut and salted, folded values among them."""
    letters = [ch for ch in pattern if ch in "abc \t"]
    cut = rng.randint(0, len(letters))
    base = rng.choice((letters, letters[:cut], letters[cut:], ["x"] + letters, []))
    out = list(base)
    for _ in range(rng.randint(0, 3)):
        out.insert(rng.randint(0, len(out)), rng.choice(("a", "b", "c", "A", ".", "\r\n\t", "\n", "\t", " ")))
    return "".join(out)


def test_anchored_prefix_is_implied_by_every_match():
    rng = random.Random(16)
    hits_with_prefix = 0
    for _ in range(3000):
        pattern = random_pattern(rng)
        try:
            compiled = re.compile(pattern)
        except re.error:
            continue
        prefix = _anchored_prefix(pattern)
        assert prefix != "", pattern  # an empty prefix is reported as None
        for _ in range(20):
            subject = random_subject(rng, pattern)
            if prefix is not None and compiled.search(subject) is not None:
                assert subject.startswith(prefix), (pattern, subject, prefix)
                hits_with_prefix += 1
    assert hits_with_prefix > 1000
