"""Rule language: parsing, compilation, and dependency scheduling.

A rule file holds one rule per line.  Each rule is a directive
(``secsip``, ``secsiprule``, ``secsipaction``, all synonyms), an
optional ``phase:`` restriction, zero or more clauses joined with
``&&``, and one or more actions:

    secsip "FIELDS:sip.method" "^INVITE$" declare:rate=counter[10;60]
    secsip rate "@ge 80" drop

A clause targets either a message field (``FIELDS:...`` / ``BODY:raw``)
or a declared object, and tests it with a regex or an ``@`` operator.
``!`` in front of a test negates it.  Actions either decide the message
fate (``drop``, ``forward``) or declare stateful objects (``hold:``,
``declare:``).

Compilation resolves every object reference, builds a parser for the
referenced fields, and orders the rules so that any rule declaring an
object runs before every rule reading it.
"""

from __future__ import annotations

import heapq
import re
from dataclasses import dataclass, field as dc_field
from enum import Enum

from .parser import FIELD_CATALOG, FieldPath, SipParser, UnknownFieldError
from .state import (
    DEFAULT_LIFETIMES,
    DEFAULT_MAX_VALUE_LEN,
    ContainerDescriptor,
    ContainerKind,
    Scope,
)

__all__ = [
    "RuleError",
    "ClauseKind",
    "ActionKind",
    "Clause",
    "Action",
    "Rule",
    "RuleProgram",
    "parse_ruleset",
    "compile_ruleset",
    "schedule_rules",
    "format_rule",
    "format_ruleset",
]

DIRECTIVES = ("secsip", "secsiprule", "secsipaction")
PHASES = ("any", "invite", "non-invite")

_OBJECT_NAME_RE = re.compile(r"^[a-z_][a-z0-9_]*(?:\.[a-z0-9_]+)*$")
_HOLD_RE = re.compile(
    r"^hold:([^=\s]+)=(set|list|bag)\[([^\[\]]+)\]"
    r"(?:@(dialog|transaction|global))?$",
    re.IGNORECASE,
)
_DECLARE_RE = re.compile(
    r"^declare:([^=\s]+)=counter\[(\d+);(\d+)\]"
    r"(?:@(dialog|transaction|global))?$",
    re.IGNORECASE,
)
# Backreferences are rejected.  That does not bound a test's cost: Python's
# re backtracks, so a pattern like (a+)+$ or a.*a.*b can take time
# exponential or polynomial in the value's length.
_BACKREF_RE = re.compile(r"\\[1-9]|\(\?P=")
# What a bare target (an empty test) searches for: present and non-empty.
_NONEMPTY = re.compile(".", re.DOTALL)


class RuleError(Exception):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class ClauseKind(str, Enum):
    REGEX = "regex"
    EQ = "eq"
    GT = "gt"
    LT = "lt"
    GE = "ge"
    LE = "le"
    IN = "in"
    NORMALIZE = "normalize"


_COMPARATORS = {
    ClauseKind.EQ: lambda a, b: a == b,
    ClauseKind.GT: lambda a, b: a > b,
    ClauseKind.LT: lambda a, b: a < b,
    ClauseKind.GE: lambda a, b: a >= b,
    ClauseKind.LE: lambda a, b: a <= b,
}


class ActionKind(str, Enum):
    DROP = "drop"
    FORWARD = "forward"
    HOLD = "hold"
    COUNTER = "counter"


@dataclass
class Clause:
    """One test: a target plus a predicate, optionally negated.

    The target is a FieldPath for message fields or a plain string for
    declared objects.  Absent fields and absent scope keys make the bare
    predicate false; negation applies afterwards.
    """

    target: FieldPath | str
    negated: bool
    kind: ClauseKind
    pattern: str | None = None
    operand: int | None = None
    object_name: str | None = None
    regex: re.Pattern | None = dc_field(default=None, compare=False, repr=False)


@dataclass
class Action:
    kind: ActionKind
    name: str | None = None
    container: ContainerKind | None = None
    source: FieldPath | None = None
    leak_amount: int = 0
    leak_interval: int = 60
    scope: Scope | None = None  # only set when written explicitly


@dataclass
class Rule:
    rule_id: int = dc_field(compare=False)
    phase: str
    clauses: tuple[Clause, ...]
    actions: tuple[Action, ...]
    lineno: int = dc_field(default=0, compare=False)

    @property
    def disruptive(self) -> bool:
        return any(a.kind is ActionKind.DROP for a in self.actions)

    @property
    def declares(self) -> frozenset[str]:
        return frozenset(
            a.name
            for a in self.actions
            if a.kind in (ActionKind.HOLD, ActionKind.COUNTER)
        )

    @property
    def clause_reads(self) -> frozenset[str]:
        """Objects this rule's clauses inspect."""
        names = set()
        for c in self.clauses:
            if isinstance(c.target, str):
                names.add(c.target)
            if c.object_name is not None:
                names.add(c.object_name)
        return frozenset(names)

    @property
    def reads(self) -> frozenset[str]:
        """Objects this rule depends on: clause reads plus the parents of
        any dotted names it declares (minus its own declarations)."""
        names = set(self.clause_reads)
        for name in self.declares:
            if "." in name:
                names.add(name.rsplit(".", 1)[0])
        return frozenset(names - self.declares)


@dataclass
class RuleProgram:
    rules: tuple[Rule, ...]
    schedule: tuple[int, ...]  # rule ids in evaluation order
    declared_objects: dict[str, ContainerDescriptor]
    parser: SipParser
    lifetimes: dict[Scope, float | None]  # per scope, None: no timed expiry

    def rule(self, rule_id: int) -> Rule:
        return self.rules[rule_id - 1]


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------


def _tokenize(line: str, lineno: int) -> list[tuple[str, bool]]:
    """Split a rule line into (text, was_quoted) tokens.

    Inside quotes a backslash escapes only a quote or a backslash; any
    other backslash passes through untouched (regexes keep their \\d).
    """
    tokens: list[tuple[str, bool]] = []
    i, n = 0, len(line)
    while i < n:
        while i < n and line[i] in " \t":
            i += 1
        if i >= n:
            break
        if line[i] == '"':
            i += 1
            buf = []
            while i < n and line[i] != '"':
                if line[i] == "\\" and i + 1 < n and line[i + 1] in '"\\':
                    buf.append(line[i + 1])
                    i += 2
                else:
                    buf.append(line[i])
                    i += 1
            if i >= n:
                raise RuleError(lineno, "unterminated quoted string")
            i += 1
            tokens.append(("".join(buf), True))
        else:
            start = i
            while i < n and line[i] not in " \t":
                i += 1
            tokens.append((line[start:i], False))
    return tokens


def _is_action_token(text: str) -> bool:
    low = text.lower()
    return low in ("drop", "forward") or low.startswith(("hold:", "declare:"))


def _parse_target(text: str, lineno: int) -> FieldPath | str:
    if ":" in text:
        try:
            path = FieldPath.parse(text)
        except UnknownFieldError as exc:
            raise RuleError(lineno, str(exc)) from None
        if path.key() not in FIELD_CATALOG:
            raise RuleError(lineno, f"unknown field {path.key()}")
        return path
    name = text.lower()
    if not _OBJECT_NAME_RE.match(name):
        raise RuleError(lineno, f"bad clause target {text!r}")
    return name


def _parse_object_name(text: str, lineno: int) -> str:
    name = text.lower()
    if not _OBJECT_NAME_RE.match(name):
        raise RuleError(lineno, f"bad object name {text!r}")
    return name


def _parse_int(text: str, lineno: int, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise RuleError(lineno, f"{what} must be an integer, got {text!r}") from None


def _parse_test(target: FieldPath | str, text: str, lineno: int) -> Clause:
    negated = text.startswith("!")
    body = text[1:] if negated else text
    if body.startswith("@"):
        parts = body[1:].split(None, 1)
        op = parts[0].lower()
        arg = parts[1].strip() if len(parts) > 1 else None
        if arg is None:
            raise RuleError(lineno, f"operator @{op} needs an argument")
        if op in ("eq", "gt", "lt", "ge", "le"):
            return Clause(target, negated, ClauseKind(op), operand=_parse_int(arg, lineno, f"@{op} argument"))
        if op == "in":
            if not isinstance(target, FieldPath):
                raise RuleError(lineno, "@in tests a field against an object")
            return Clause(target, negated, ClauseKind.IN, object_name=_parse_object_name(arg, lineno))
        if op == "normalize":
            if negated:
                raise RuleError(lineno, "@normalize cannot be negated")
            if not isinstance(target, FieldPath):
                raise RuleError(lineno, "@normalize applies to fields only")
            cap = _parse_int(arg, lineno, "@normalize argument")
            if cap < 1:
                raise RuleError(lineno, "@normalize length must be >= 1")
            return Clause(target, negated, ClauseKind.NORMALIZE, operand=cap)
        raise RuleError(lineno, f"unknown operator @{op}")
    # plain regex test
    if not isinstance(target, FieldPath):
        raise RuleError(lineno, f"regex test needs a field target, got object {target!r}")
    if _BACKREF_RE.search(body):
        raise RuleError(lineno, "backreferences are not supported in tests")
    try:
        compiled = re.compile(body) if body else _NONEMPTY
    except re.error as exc:
        raise RuleError(lineno, f"bad regex {body!r}: {exc}") from None
    return Clause(target, negated, ClauseKind.REGEX, pattern=body, regex=compiled)


def _parse_action(text: str, lineno: int) -> Action:
    low = text.lower()
    if low == "drop":
        return Action(ActionKind.DROP)
    if low == "forward":
        return Action(ActionKind.FORWARD)
    m = _HOLD_RE.match(text)
    if m:
        name = _parse_object_name(m.group(1), lineno)
        kind = ContainerKind(m.group(2).lower())
        source = _parse_target(m.group(3).strip(), lineno)
        if not isinstance(source, FieldPath):
            raise RuleError(lineno, f"hold source must be a field, got {m.group(3)!r}")
        scope = Scope(m.group(4).lower()) if m.group(4) else None
        return Action(ActionKind.HOLD, name=name, container=kind, source=source, scope=scope)
    m = _DECLARE_RE.match(text)
    if m:
        name = _parse_object_name(m.group(1), lineno)
        leak = _parse_int(m.group(2), lineno, "leak amount")
        interval = _parse_int(m.group(3), lineno, "leak interval")
        if interval < 1:
            raise RuleError(lineno, "leak interval must be >= 1")
        scope = Scope(m.group(4).lower()) if m.group(4) else None
        return Action(
            ActionKind.COUNTER,
            name=name,
            container=ContainerKind.COUNTER,
            leak_amount=leak,
            leak_interval=interval,
            scope=scope,
        )
    if low.startswith(("hold:", "declare:")):
        raise RuleError(lineno, f"malformed action {text!r}")
    raise RuleError(lineno, f"expected an action, got {text!r}")


def _parse_rule(line: str, lineno: int, rule_id: int) -> Rule:
    tokens = _tokenize(line, lineno)
    head, head_quoted = tokens[0]
    if head_quoted or head.lower() not in DIRECTIVES:
        raise RuleError(lineno, f"expected a rule directive, got {head!r}")
    i = 1
    phase = "any"
    if i < len(tokens) and not tokens[i][1] and tokens[i][0].lower().startswith("phase:"):
        phase = tokens[i][0][len("phase:"):].lower()
        if phase not in PHASES:
            raise RuleError(lineno, f"unknown phase {phase!r}")
        i += 1

    clauses: list[Clause] = []
    while i < len(tokens):
        text, quoted = tokens[i]
        if not quoted and _is_action_token(text):
            break
        target = _parse_target(text, lineno)
        i += 1
        if i < len(tokens) and tokens[i][1]:
            test_text = tokens[i][0]
            i += 1
        else:
            test_text = ""  # bare target: present-and-nonempty test
        clauses.append(_parse_test(target, test_text, lineno))
        if i < len(tokens) and tokens[i] == ("&&", False):
            i += 1
            # && must be followed by another clause, not by the action list
            if i >= len(tokens) or (not tokens[i][1] and _is_action_token(tokens[i][0])):
                raise RuleError(lineno, "dangling && before actions or end of rule")
            continue
        break

    actions: list[Action] = []
    while i < len(tokens):
        text, quoted = tokens[i]
        if quoted:
            raise RuleError(lineno, f"expected an action, got quoted {text!r}")
        actions.append(_parse_action(text, lineno))
        i += 1

    if not actions:
        raise RuleError(lineno, "rule has no action")
    if not clauses and not any(
        a.kind in (ActionKind.HOLD, ActionKind.COUNTER) for a in actions
    ):
        raise RuleError(lineno, "a rule without clauses must declare an object")

    rule = Rule(rule_id, phase, tuple(clauses), tuple(actions), lineno=lineno)
    overlap = rule.declares & rule.clause_reads
    if overlap:
        raise RuleError(
            lineno, f"rule both declares and reads {', '.join(sorted(overlap))}"
        )
    return rule


def parse_ruleset(text: str) -> list[Rule]:
    """Parse rule file text into rules, ids assigned in source order."""
    rules: list[Rule] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rules.append(_parse_rule(stripped, lineno, len(rules) + 1))
    return rules


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------

# Fields every program needs for dialog and transaction bookkeeping.
ALWAYS_REGISTERED = (
    "FIELDS:sip.call_id",
    "FIELDS:sip.from",
    "FIELDS:sip.from.tag",
    "FIELDS:sip.to",
    "FIELDS:sip.to.tag",
    "FIELDS:sip.via.branch",
    "FIELDS:sip.cseq.method",
)


def compile_ruleset(
    rules: list[Rule],
    *,
    scope_lifetimes: dict[Scope, float | None] | None = None,
) -> RuleProgram:
    """Check, schedule and plan rules into a program; the rules stay untouched."""
    lifetimes = dict(DEFAULT_LIFETIMES)
    if scope_lifetimes:
        lifetimes.update(scope_lifetimes)

    declared: dict[str, tuple[Rule, Action]] = {}
    for rule in rules:
        for act in rule.actions:
            if act.kind not in (ActionKind.HOLD, ActionKind.COUNTER):
                continue
            if act.name in declared:
                raise RuleError(
                    rule.lineno, f"object {act.name} declared more than once"
                )
            declared[act.name] = (rule, act)

    for name, (rule, _act) in declared.items():
        if "." in name:
            parent = name.rsplit(".", 1)[0]
            if parent not in declared:
                raise RuleError(
                    rule.lineno, f"parent object {parent} of {name} never declared"
                )

    for rule in rules:
        for name in rule.clause_reads:
            if name not in declared:
                raise RuleError(rule.lineno, f"object {name} never declared")
        for clause in rule.clauses:
            if clause.kind in _COMPARATORS and isinstance(clause.target, str):
                kind = declared[clause.target][1].container
                if kind is not ContainerKind.COUNTER:
                    raise RuleError(
                        rule.lineno,
                        f"@{clause.kind.value} needs a counter, {clause.target} is a {kind.value}",
                    )
            if clause.kind is ClauseKind.IN:
                kind = declared[clause.object_name][1].container
                if kind is ContainerKind.COUNTER:
                    raise RuleError(
                        rule.lineno, f"@in needs a collection, {clause.object_name} is a counter"
                    )

    # value caps requested by @normalize clauses; the tightest wins
    caps: dict[str, int] = {}
    for rule in rules:
        for clause in rule.clauses:
            if clause.kind is ClauseKind.NORMALIZE:
                key = clause.target.key()
                cap = clause.operand
                caps[key] = min(caps.get(key, cap), cap)

    fields = set(ALWAYS_REGISTERED)
    for rule in rules:
        for part in rule.clauses + rule.actions:
            path = part.target if isinstance(part, Clause) else part.source
            if isinstance(path, FieldPath):
                key = path.key()
                if key not in FIELD_CATALOG:
                    raise RuleError(rule.lineno, f"unknown field {key}")
                fields.add(key)

    descriptors: dict[str, ContainerDescriptor] = {}
    for name, (_rule, act) in declared.items():
        if act.kind is ActionKind.COUNTER:
            scope = act.scope or Scope.GLOBAL
        else:
            scope = act.scope or Scope.DIALOG
        max_len = DEFAULT_MAX_VALUE_LEN
        if act.source is not None:
            max_len = caps.get(act.source.key(), DEFAULT_MAX_VALUE_LEN)
        descriptors[name] = ContainerDescriptor(
            name=name,
            kind=act.container,
            scope=scope,
            lifetime=lifetimes[scope],
            max_value_len=max_len,
            leak_amount=act.leak_amount,
            leak_interval=float(act.leak_interval),
        )

    return RuleProgram(
        rules=tuple(rules),
        schedule=schedule_rules(rules),
        declared_objects=descriptors,
        parser=SipParser(fields, caps),
        lifetimes=lifetimes,
    )


def schedule_rules(rules: list[Rule] | tuple[Rule, ...]) -> tuple[int, ...]:
    """Topological order over declare->read edges.

    Among rules free of ordering constraints, non-disruptive rules go
    first and remaining ties fall back to source order.  A dependency
    cycle is a compile error naming the rules involved.
    """
    by_id = {r.rule_id: r for r in rules}
    declarer: dict[str, int] = {}
    for rule in rules:
        for name in rule.declares:
            declarer[name] = rule.rule_id

    succs: dict[int, list[int]] = {r.rule_id: [] for r in rules}
    indeg: dict[int, int] = {r.rule_id: 0 for r in rules}
    for rule in rules:
        for name in rule.reads:
            src = declarer.get(name)
            if src is not None and src != rule.rule_id:
                succs[src].append(rule.rule_id)
                indeg[rule.rule_id] += 1

    ready = [
        (by_id[rid].disruptive, rid) for rid, deg in indeg.items() if deg == 0
    ]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        _, rid = heapq.heappop(ready)
        order.append(rid)
        for nxt in succs[rid]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                heapq.heappush(ready, (by_id[nxt].disruptive, nxt))

    if len(order) < len(rules):
        remaining = {rid for rid, deg in indeg.items() if deg > 0}
        cycle = _find_cycle(remaining, succs)
        path = " -> ".join(f"R{rid}" for rid in cycle)
        lineno = by_id[cycle[0]].lineno
        raise RuleError(lineno, f"dependency cycle: {path}")
    return tuple(order)


def _find_cycle(remaining: set[int], succs: dict[int, list[int]]) -> list[int]:
    # Every unemitted rule still has an unemitted predecessor, so walking
    # predecessors must revisit a node; the revisited stretch is a cycle.
    preds: dict[int, list[int]] = {rid: [] for rid in remaining}
    for src in remaining:
        for dst in succs[src]:
            if dst in remaining:
                preds[dst].append(src)
    node = min(remaining)
    seen: dict[int, int] = {}
    path: list[int] = []
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = min(preds[node])
    cycle = path[seen[node]:]
    cycle.reverse()
    return cycle + [cycle[0]]


# ----------------------------------------------------------------------
# formatting
# ----------------------------------------------------------------------


def _format_test(clause: Clause) -> str:
    if clause.kind is ClauseKind.REGEX:
        body = clause.pattern
    elif clause.kind is ClauseKind.IN:
        body = f"@in {clause.object_name}"
    else:
        body = f"@{clause.kind.value} {clause.operand}"
    neg = "!" if clause.negated else ""
    escaped = (neg + body).replace("\\", "\\\\").replace('"', '\\"')
    # regexes rarely need escaping; only quote-chars and backslashes do
    if "\\" not in body and '"' not in body:
        escaped = neg + body
    return f'"{escaped}"'


def _format_action(action: Action) -> str:
    if action.kind is ActionKind.DROP:
        return "drop"
    if action.kind is ActionKind.FORWARD:
        return "forward"
    suffix = f"@{action.scope.value}" if action.scope is not None else ""
    if action.kind is ActionKind.HOLD:
        return f"hold:{action.name}={action.container.value}[{action.source.key()}]{suffix}"
    return (
        f"declare:{action.name}=counter"
        f"[{action.leak_amount};{action.leak_interval}]{suffix}"
    )


def format_rule(rule: Rule) -> str:
    parts = ["secsip"]
    if rule.phase != "any":
        parts.append(f"phase:{rule.phase}")
    for idx, clause in enumerate(rule.clauses):
        if idx:
            parts.append("&&")
        target = clause.target
        parts.append(f'"{target.key()}"' if isinstance(target, FieldPath) else target)
        parts.append(_format_test(clause))
    parts.extend(_format_action(a) for a in rule.actions)
    return " ".join(parts)


def format_ruleset(rules: list[Rule] | tuple[Rule, ...]) -> str:
    return "\n".join(format_rule(r) for r in rules) + "\n"
