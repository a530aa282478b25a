"""The message path leaves no cyclic garbage.

Reference counting alone frees whatever the engine drops, so the cyclic
collector never has anything to find.  A replay with the collector off
checks that: afterwards gc.collect() must find nothing unreachable.
"""

from __future__ import annotations

import gc
from collections import Counter

from sipwall.bench import synthetic_ruleset
from sipwall.cli import builtin_ruleset
from sipwall.engine import Engine
from sipwall.gen import gen_bye_attack, gen_clean_calls, gen_invite_flood
from sipwall.rules import compile_ruleset, parse_ruleset

RULESETS = {
    **{name: builtin_ruleset(name)
       for name in ("bye_attack", "collections", "example", "invite_flood")},
    "synthetic_ruleset(64)": synthetic_ruleset(64),
}


def _induced(raw: bytes):
    # a plain function: a bound method stored on its own instance is a cycle
    raise RuntimeError("induced")


def _replay(text: str) -> None:
    engine = Engine(compile_ruleset(parse_ruleset(text)), sweep_period=16)
    traffic = (
        gen_clean_calls(calls=20, seed=5)
        + gen_bye_attack(calls=20, seed=6, start=100.0)
        + gen_invite_flood(count=400, rate=50.0, seed=7, start=200.0)
    )
    for r in traffic:
        engine.process_message(r.payload, direction=r.direction, src=r.src,
                               dst=r.dst, arrival_time=r.ts)
    at = traffic[-1].ts
    engine.process_message(b"not sip at all\r\n\r\n", arrival_time=at)
    engine.process_message(b"", arrival_time=at)
    engine.program.parser.parse_message = _induced
    assert engine.process_message(b"INVITE", arrival_time=at).internal_error
    engine.end_of_trace()
    assert engine.stats.malformed == 2 and engine.stats.internal_errors == 1


def test_message_path_leaves_no_cyclic_garbage():
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for text in RULESETS.values():
            _replay(text)
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        leaked = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert found == 0, f"cyclic garbage by type: {dict(leaked.most_common(10))}"
