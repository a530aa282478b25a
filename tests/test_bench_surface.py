"""The entry points the benchmark's tracer wraps are the ones the engine calls.

``perfbench/spans.py`` replaces methods on one engine's live instances
(engine, parser, state store, transaction tracker) and attributes time
to layers from the spans those wrappers record.  If a method is renamed,
or the engine stops calling it through the instance, its layer silently
reads zero.  This replays a few hundred messages through a traced engine
per workload and requires a span from every layer on the message path.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

from sipwall.bench import synthetic_ruleset
from sipwall.cli import builtin_ruleset
from sipwall.engine import Engine
from sipwall.gen import gen_bye_attack, gen_invite_flood
from sipwall.rules import compile_ruleset, parse_ruleset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# spans every message path must produce (rules.clause is not among them:
# compiled clauses do not pass through Engine.evaluate_clause)
REQUIRED = (
    "parser.parse",
    "parser.dialog_key",
    "parser.tx_key",
    "engine.context",
    "engine.tracker",
    "state.resolve",
    "state.expire",
    "state.tx_sweep",
)

WORKLOADS = {
    "bye_attack": (lambda: builtin_ruleset("bye_attack"), lambda: gen_bye_attack(calls=60, seed=5)),
    "invite_flood": (lambda: builtin_ruleset("invite_flood"), lambda: gen_invite_flood(count=400, rate=50.0, seed=5)),
    "synthetic_256": (lambda: synthetic_ruleset(256), lambda: gen_invite_flood(count=400, rate=50.0, seed=5)),
}


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans as module
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracer_sees_every_layer(spans, workload):
    rules, traffic = WORKLOADS[workload]
    engine = Engine(compile_ruleset(parse_ruleset(rules())))  # defaults, as the benchmark builds it
    records = traffic()
    assert len(records) > engine.sweep_period  # at least one periodic sweep
    rec = spans.Recorder()
    spans.install(rec, engine)
    for r in records:
        engine.process_message(
            r.payload, direction=r.direction, src=r.src, dst=r.dst, arrival_time=r.ts
        )

    calls = dict(zip(spans.NAMES, spans.analyze(rec)["calls"]))
    assert calls["engine.process"] == len(records)
    missing = [name for name in REQUIRED if calls[name] == 0]
    assert not missing, f"no spans under process_message for {missing}"

    rec.calibrate()
    metrics = spans.layer_metrics(rec, engine.program.parser.parse_events, len(records), 1.0)
    assert all(math.isfinite(v) for v in metrics.values())
