"""End-to-end acceptance checks.

Each test prints one [PASS]/[FAIL] line on the real stdout so a plain
``pytest tests/test_acceptance.py`` run reads as a checklist.  The
expected values come from independent reference computations inside this
file, never from the code under test.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from sipwall.bench import _run_point, run_scenario2
from sipwall.cli import builtin_ruleset
from sipwall.engine import Engine
from sipwall.gen import gen_bye_attack, gen_clean_calls, gen_invite_flood
from sipwall.parser import MalformedMessage
from sipwall.rules import compile_ruleset, parse_ruleset
from sipwall.state import CounterState, Scope
from sipwall.trace import read_ndtrace, replay, write_trace


@pytest.fixture
def announce(capsys):
    def _announce(name: str, ok: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
        assert ok, f"{name}: {detail}"

    return _announce


def run_trace(engine: Engine, records) -> list[str]:
    out = []
    for rec in records:
        verdict = engine.process_message(
            rec.payload, direction=rec.direction, src=rec.src,
            dst=rec.dst, arrival_time=rec.ts,
        )
        out.append(verdict.decision)
    return out


def engine_for(name: str, **kwargs) -> Engine:
    return Engine(compile_ruleset(parse_ruleset(builtin_ruleset(name))), **kwargs)


# ----------------------------------------------------------------------
# 1. forged-teardown mitigation on a recorded trace
# ----------------------------------------------------------------------


def test_c1_bye_attack_mitigation(tmp_path, announce):
    records = gen_bye_attack(calls=10, seed=42)
    path = str(tmp_path / "attack.trace")
    write_trace(records, path)

    t0 = time.perf_counter()
    engine = engine_for("bye_attack")
    report = replay(read_ndtrace(path), engine, pacing="fast")
    wall = time.perf_counter() - t0

    ok = (
        report.messages == 60
        and report.dropped == 10
        and report.forwarded == 50
        and report.malformed == 0
        and wall < 5.0
    )
    announce(
        "forged-teardown mitigation",
        ok,
        f"dropped {report.dropped}/10 forgeries, forwarded "
        f"{report.forwarded}/50 legitimate messages in {wall:.2f}s",
    )


# ----------------------------------------------------------------------
# 2. flood threshold decisions against a hand simulation
# ----------------------------------------------------------------------


def flood_reference(times: list[float], leak: int, interval: float, limit: int) -> list[str]:
    value = 0
    next_epoch: float | None = None
    decisions = []
    for t in times:
        if next_epoch is None:
            next_epoch = t + interval
        while next_epoch <= t:
            value = max(0, value - leak)
            next_epoch += interval
        value += 1
        decisions.append("drop" if value > limit else "forward")
    return decisions


def test_c2_flood_threshold(announce):
    records = gen_invite_flood(count=40, rate=1.0, seed=7)
    engine = engine_for("invite_flood")
    got = run_trace(engine, records)

    expected = flood_reference([r.ts for r in records], leak=10, interval=60.0, limit=15)
    mismatches = sum(1 for g, e in zip(got, expected) if g != e)
    ok = (
        mismatches == 0
        and got.count("drop") == 25
        and got.count("forward") == 15
        and got[:15] == ["forward"] * 15
    )
    announce(
        "flood threshold decisions",
        ok,
        f"{got.count('drop')}/25 expected drops, first drop at message "
        f"{got.index('drop') + 1 if 'drop' in got else '-'}, "
        f"{mismatches} oracle mismatches over 40 messages",
    )


# ----------------------------------------------------------------------
# 3. leaky counter settlement vs an epoch-walking reference
# ----------------------------------------------------------------------


def test_c3_counter_closed_form(announce):
    rng = random.Random(20260822)
    timelines = 10_000
    bad = 0
    checked = 0
    for _ in range(timelines):
        leak = rng.randint(0, 25)
        interval = float(rng.randint(1, 90))
        t0 = round(rng.uniform(0.0, 1000.0), 6)
        counter = CounterState(leak_amount=leak, leak_interval=interval, anchor=t0)

        value = 0
        next_epoch = t0 + interval
        t = t0
        for _ in range(rng.randint(1, 40)):
            step = rng.choice((0.0, 0.001, interval / 3, interval, interval * 2.5))
            t = round(t + step * rng.uniform(0.0, 1.2), 6)
            while next_epoch <= t:
                value = max(0, value - leak)
                next_epoch += interval
            if rng.random() < 0.7:
                value += 1
                got = counter.increment(t)
            else:
                got = counter.value(t)
            checked += 1
            if got != value:
                bad += 1
    ok = bad == 0
    announce(
        "leaky counter closed form",
        ok,
        f"{checked} reads over {timelines} random timelines, {bad} mismatches",
    )


# ----------------------------------------------------------------------
# 4. evaluation order is fixed by dependencies, not file order
# ----------------------------------------------------------------------


def random_acyclic_program(rng: random.Random) -> list[str]:
    k = rng.randint(2, 5)
    lines = []
    for i in range(k):
        leak = rng.randint(0, 5)
        interval = rng.randint(30, 90)
        if i > 0 and rng.random() < 0.5:
            j = rng.randrange(i)  # read strictly older objects: acyclic
            lines.append(
                f'secsip o{j} "@ge {rng.randint(0, 3)}" '
                f"declare:o{i}=counter[{leak};{interval}]"
            )
        else:
            lines.append(
                f'secsip "FIELDS:sip.method" "^INVITE$" '
                f"declare:o{i}=counter[{leak};{interval}]"
            )
    for _ in range(rng.randint(1, 3)):
        j = rng.randrange(k)
        lines.append(f'secsip o{j} "@gt {rng.randint(2, 20)}" drop')
    return lines


def schedule_is_sound(program) -> bool:
    position = {rid: idx for idx, rid in enumerate(program.schedule)}
    declarer = {}
    for rule in program.rules:
        for name in rule.declares:
            declarer[name] = rule.rule_id
    for rule in program.rules:
        for name in rule.reads:
            if position[declarer[name]] >= position[rule.rule_id]:
                return False
    return True


def test_c4_schedule_invariance(announce):
    rng = random.Random(99)
    records = sorted(
        gen_clean_calls(calls=4, seed=1) + gen_invite_flood(count=30, rate=3.0, seed=2),
        key=lambda r: r.ts,
    )
    programs = 100
    unsound = 0
    divergent = 0
    for _ in range(programs):
        lines = random_acyclic_program(rng)
        baseline: list[str] | None = None
        for _ in range(3):
            shuffled = lines[:]
            rng.shuffle(shuffled)
            program = compile_ruleset(parse_ruleset("\n".join(shuffled)))
            if not schedule_is_sound(program):
                unsound += 1
            decisions = run_trace(Engine(program), records)
            if baseline is None:
                baseline = decisions
            elif decisions != baseline:
                divergent += 1
    ok = unsound == 0 and divergent == 0
    announce(
        "schedule invariance",
        ok,
        f"{programs} random programs x3 shuffles on {len(records)} messages: "
        f"{unsound} unsound schedules, {divergent} divergent runs",
    )


# ----------------------------------------------------------------------
# 5. per-message latency at a realistic offered rate
# ----------------------------------------------------------------------


def test_c5_baseline_latency(announce):
    point = _run_point("", rate=500.0, duration=10.0, seed=1)
    ok = point.p50_us < 1000.0 and point.p99_us < 5000.0
    announce(
        "baseline latency",
        ok,
        f"{point.msgs} messages at {point.rate_achieved:.0f}/s: "
        f"p50={point.p50_us:.1f}us p99={point.p99_us:.1f}us "
        f"(bounds 1000/5000)",
    )


# ----------------------------------------------------------------------
# 6. throughput holds while the rule count doubles
# ----------------------------------------------------------------------


def test_c6_rule_scaling(announce):
    points = run_scenario2(rate=60.0, max_rules=256, duration=4.0, seed=1)
    rate_bad = [
        p.rules for p in points if abs(p.rate_achieved - 60.0) / 60.0 > 0.05
    ]
    p50 = [p.p50_us for p in points]
    # p50 should grow (or hold) with the rule count; tolerate one dip
    # beyond jitter (>10% plus 5us) before calling it a failure
    violations = sum(
        1 for a, b in zip(p50, p50[1:]) if b < a * 0.9 - 5.0
    )
    ok = not rate_bad and violations <= 1
    announce(
        "rule-count scaling",
        ok,
        f"rules 1..256: achieved rate off target at {rate_bad or 'none'}, "
        f"p50 {p50[0]:.1f}->{p50[-1]:.1f}us with {violations} ordering violations",
    )


# ----------------------------------------------------------------------
# 7. state stays bounded under an endless stream of new dialogs
# ----------------------------------------------------------------------


def flood_invite(i: int) -> bytes:
    return (
        f"INVITE sip:victim@gw.example SIP/2.0\r\n"
        f"Via: SIP/2.0/UDP 203.0.113.66:5060;branch=z9hG4bKm{i:07d}\r\n"
        f"From: <sip:src{i}@attack.example>;tag=t{i:07d}\r\n"
        f"To: <sip:victim@gw.example>\r\n"
        f"Call-ID: c{i:07d}@attack.example\r\n"
        f"CSeq: 1 INVITE\r\n"
        f"Content-Length: 0\r\n\r\n"
    ).encode("ascii")


def test_c7_state_boundedness(announce):
    program = compile_ruleset(
        parse_ruleset('secsip "FIELDS:sip.method" "^INVITE$" hold:seen=set[FIELDS:sip.from]'),
        scope_lifetimes={Scope.DIALOG: 10.0},
    )
    engine = Engine(program)
    messages = 100_000
    rate = 100.0  # synthetic clock: 1000 seconds of traffic
    max_live = 0
    max_tx = 0
    for i in range(messages):
        engine.process_message(flood_invite(i), arrival_time=i / rate)
        if i % 1000 == 999:
            max_live = max(max_live, engine.store.live_total())
            max_tx = max(max_tx, engine.transactions.live())
    engine.end_of_trace()
    final = engine.store.live_total()

    # steady state: lifetime (10s) x rate (100/s) dialogs, plus up to one
    # sweep period (256 messages) of stragglers and some slack
    ok = max_live <= 1400 and final <= 1001 and max_tx <= 4000
    announce(
        "state boundedness",
        ok,
        f"{messages} single-shot dialogs: peak {max_live} live instances "
        f"(bound 1400), {final} after teardown (bound 1001), "
        f"peak {max_tx} transactions (bound 4000)",
    )


# ----------------------------------------------------------------------
# 8. parser and engine survive mutated input
# ----------------------------------------------------------------------


def mutate(rng: random.Random, raw: bytes) -> bytes:
    data = bytearray(raw)
    op = rng.randrange(6)
    if op == 0 and data:  # flip a byte
        data[rng.randrange(len(data))] = rng.randrange(256)
    elif op == 1:  # insert a byte
        data.insert(rng.randrange(len(data) + 1), rng.randrange(256))
    elif op == 2 and data:  # delete a slice
        i = rng.randrange(len(data))
        del data[i : i + rng.randint(1, 16)]
    elif op == 3:  # truncate
        del data[rng.randrange(len(data) + 1) :]
    elif op == 4 and data:  # duplicate a slice
        i = rng.randrange(len(data))
        chunk = data[i : i + rng.randint(1, 32)]
        data[i:i] = chunk
    elif op == 5:  # swap two lines
        lines = bytes(data).split(b"\r\n")
        if len(lines) > 2:
            a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[a], lines[b] = lines[b], lines[a]
            data = bytearray(b"\r\n".join(lines))
    return bytes(data)


def tree_invariants_hold(tree, raw: bytes) -> bool:
    def check(node, lo: int, hi: int) -> bool:
        if not (lo <= node.start <= node.end <= hi):
            return False
        expected = raw[node.start : node.end].decode("utf-8", "replace").strip()
        if node.value != expected:
            return False
        return all(check(child, node.start, node.end) for child in node.children)

    return all(check(node, 0, tree.raw_length) for node in tree.nodes.values())


def test_c8_parser_robustness(full_parser, announce):
    seeds = [rec.payload for rec in gen_bye_attack(calls=1, seed=1)]
    seeds.append(
        b"INVITE sip:x@y SIP/2.0\r\n"
        b"v: SIP/2.0/UDP 10.0.0.5:5060;branch=z9hG4bKc1\r\n"
        b"f: <sip:a@b>;tag=1\r\n"
        b"t: <sip:x@y>\r\n"
        b"i: fold@x\r\n"
        b"CSeq: 1 INVITE\r\n"
        b"Subject: line one\r\n\tline two\r\n"
        b"Content-Length: 4\r\n\r\nbody"
    )
    rng = random.Random(31337)
    engine = engine_for("bye_attack")

    mutants = 10_000
    crashes = 0
    bad_trees = 0
    bad_verdicts = 0
    parsed_ok = 0
    for i in range(mutants):
        raw = rng.choice(seeds)
        for _ in range(rng.randint(1, 4)):
            raw = mutate(rng, raw)

        try:
            tree = full_parser.parse_message(raw)
        except MalformedMessage:
            tree = None
        except Exception:
            crashes += 1
            tree = None
        else:
            parsed_ok += 1
            if not tree_invariants_hold(tree, raw):
                bad_trees += 1

        verdict = engine.process_message(raw, arrival_time=i * 0.001)
        if verdict.malformed and verdict.decision != "drop":
            bad_verdicts += 1
        if verdict.decision not in ("forward", "drop"):
            bad_verdicts += 1

    ok = crashes == 0 and bad_trees == 0 and bad_verdicts == 0
    announce(
        "parser robustness",
        ok,
        f"{mutants} mutants ({parsed_ok} still parseable): {crashes} crashes, "
        f"{bad_trees} offset violations, {bad_verdicts} bad verdicts",
    )
