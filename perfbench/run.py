"""sipwall benchmark: seeded workloads, checked verdicts, per-layer spans.

Run from the root of a checkout::

    python3 perfbench/run.py --workload calls-bye --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn, each in its own process.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones measured with no
tracing; with ``--trace 1`` they are the per-layer ones from a traced
run (see spans.py), with untraced rounds interleaved to give the
tracing overhead.  The lines before it give each figure with its unit,
the host reference reading and the verdict check.

Timed figures are scaled to a nominal host by a reference loop read
between slices of every round (measure.py), because the host's speed
drifts by a factor of two or more within seconds on a shared machine.

sipwall is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with status 2 and prints no result.
The design (workloads, why, predictions) is in design.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

# Closed-loop workloads replay a fixed number of messages per round
# through a freshly set-up engine; rounds repeat, each after a host
# reference reading, until --seconds have passed.
CLOSED = {
    "calls-bye": dict(ruleset="builtin:bye_attack", traffic="calls", blocks=320,
                      slice=2000),
    "rules-256": dict(ruleset="synthetic:256", traffic="flood", count=3000, rate=2000.0,
                      slice=400),
    "dialog-flood": dict(ruleset="builtin:invite_flood", traffic="flood-limited",
                         count=24000, rate=2000.0, slice=2000),
}
OPEN = {
    "proxy-calls": dict(ruleset="builtin:bye_attack", traffic="calls", rate=2000.0,
                        slice=1000),
}
WORKLOADS = tuple(CLOSED) + tuple(OPEN)

MIN_ROUNDS = 3

END_TO_END = {
    "msg_per_s": "1/s",
    "p50_us": "us",
    "p99_us": "us",
    "ok_share": "ratio",
    "rss_peak_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "trace.read_us": "us",
    "parser.parse_us": "us",
    "parser.keys_us": "us",
    "parser.fields_per_msg": "count",
    "engine.context_us": "us",
    "engine.tracker_us": "us",
    "engine.self_us": "us",
    "engine.process_us": "us",
    "engine.tx_live_peak": "count",
    "rules.clause_us": "us",
    "rules.clauses_per_msg": "count",
    "rules.clause_true_share": "ratio",
    "state.resolve_us": "us",
    "state.resolves_per_msg": "count",
    "state.live_peak": "count",
    "state.sweep_us": "us",
    "state.sweep_max_ms": "ms",
    "state.sweep_yield": "ratio",
    "proxy.engine_us": "us",
    "proxy.outside_engine_us": "us",
    "proxy.lost": "count",
    "gen.late_max_us": "us",
    "trace.overhead_us": "us",
    "trace.rate_ratio": "ratio",
    "host.ref_ms": "ms",
}


def _import_sipwall():
    """Put the checkout's src/ first on the path; refuse any other copy."""
    if not (SRC / "sipwall" / "__init__.py").is_file():
        print(f"error: no sipwall sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import sipwall

    if Path(sipwall.__file__).resolve().parent != (SRC / "sipwall").resolve():
        print(f"error: imported sipwall from {sipwall.__file__}", file=sys.stderr)
        sys.exit(2)


def write_traffic(cfg: dict, path: str, seed: int, messages: int | None = None):
    import traffic

    if cfg["traffic"] == "calls":
        blocks = cfg.get("blocks") or -(-messages // traffic.MSGS_PER_BLOCK)
        return traffic.write_calls(path, blocks, seed)
    return traffic.write_flood(
        path, cfg["count"], cfg["rate"], seed, limited=cfg["traffic"] == "flood-limited"
    )


class Check:
    """Verdicts against ground truth.  A wrong outcome is a forward where
    a drop was expected, a drop (or a lost datagram) where a forward was
    expected, or a malformed/internal-error verdict.  Drops of
    callee-initiated BYEs are counted as wrong and also tallied apart:
    they are the dialog-identity defect the seed ships with."""

    MALFORMED = 2

    def __init__(self) -> None:
        self.attempted = 0
        self.wrong = 0
        self.callee_bye_drops = 0
        self.lost = 0  # relayed by the proxy but never delivered

    def add(self, truth, codes, n: int) -> None:
        import traffic

        expected, kinds = truth.expected, truth.kinds
        for i in range(n):
            got = codes[i]
            if got != expected[i]:
                self.wrong += 1
                if got == traffic.DROP and kinds[i] == traffic.CALLEE_BYE:
                    self.callee_bye_drops += 1
        self.attempted += n

    @property
    def correct(self) -> bool:
        """True when every wrong outcome is the known callee-BYE defect."""
        return self.attempted > 0 and self.wrong == self.callee_bye_drops and not self.lost

    def lines(self) -> list[str]:
        share = self.wrong / self.attempted if self.attempted else 0.0
        return [
            f"fail_share {share:.6f} ({self.wrong} wrong of {self.attempted})",
            f"known defect: {self.callee_bye_drops} callee-initiated BYEs dropped",
            f"lost datagrams: {self.lost}",
        ]


def replay_round(engine, path: str, slice_msgs: int, lat, codes, ref_ms: float, rec=None):
    """Replay the whole trace flat out, in slices with a host reference
    reading between them; returns [(messages, wall ns, ref ms), ...].

    Each process_message call is timed from outside, so a sweep it
    triggers is charged to it.  A slice's ref is the mean of the
    readings on either side.  With a recorder, reads get spans too.
    """
    from sipwall.trace import read_ndtrace

    clock = time.perf_counter_ns
    process = engine.process_message
    records = read_ndtrace(path)
    read = records.__next__ if rec is None else rec.wrap("trace.read", records.__next__)
    slices = []
    i = 0
    exhausted = False
    while not exhausted:
        first, end = i, i + slice_msgs
        begin = clock()
        while i < end:
            try:
                r = read()
            except StopIteration:
                exhausted = True
                break
            t0 = clock()
            v = process(r.payload, direction=r.direction, src=r.src, dst=r.dst, arrival_time=r.ts)
            lat[i] = clock() - t0
            codes[i] = Check.MALFORMED if v.malformed or v.internal_error else v.decision == "drop"
            i += 1
        wall = clock() - begin
        if i > first:
            after = measure.host_ref_ms()
            slices.append((i - first, wall, (ref_ms + after) / 2))
            ref_ms = after
    return slices


def scale_round(slices, lat, hist) -> float:
    """Add the round's latencies, scaled to the nominal host by their
    slice's reading, to ``hist`` (unless None); return the scaled wall ns."""
    scaled_wall = 0.0
    i = 0
    for count, wall, ref in slices:
        f = measure.scale(ref)
        scaled_wall += wall * f
        if hist is not None:
            hist.add(lat[i:i + count], f)
        i += count
    return scaled_wall


def run_closed(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import spans

    cfg = CLOSED[name]
    text = measure.ruleset_text(cfg["ruleset"])
    path = str(WORK / f"{name}-{seed}.ndtrace")
    truth = write_traffic(cfg, path, seed)
    n = len(truth)
    lat = array("q", bytes(8 * n))
    codes = bytearray(n)
    check = Check()
    # per kind of round (traced or not): messages, scaled and raw wall ns
    msgs = {False: 0, True: 0}
    walls = {False: 0.0, True: 0.0}
    raw_wall = 0
    hist = measure.LogHistogram()  # scaled latencies of the untraced rounds, ns
    setups, refs, traced_refs = [], [], []
    rec = spans.Recorder() if traced else None
    parse_events = 0
    engine = None
    begin = time.perf_counter()
    try:
        rnd = plain_rounds = 0
        last = 0.0  # duration of the previous round
        while True:
            tracing = traced and rnd % 2 == 1 and not rec.full
            short = plain_rounds < (2 if traced else MIN_ROUNDS) or (
                traced and msgs[True] == 0
            )
            round_begin = time.perf_counter()
            # stop before a round that would end past --seconds
            if not short and round_begin - begin + last > seconds:
                break
            engine = None
            gc.collect()
            ref = measure.host_ref_ms()
            engine, times = measure.set_up(text)
            setups.extend(t * measure.scale(ref) for t in times)
            if tracing:
                spans.install(rec, engine)
                rec.calibrate()
            slices = replay_round(engine, path, cfg["slice"], lat, codes, ref,
                                  rec if tracing else None)
            count = sum(s[0] for s in slices)
            check.add(truth, codes, count)
            refs.extend(s[2] for s in slices)
            msgs[tracing] += count
            walls[tracing] += scale_round(slices, lat, None if tracing else hist)
            if tracing:
                rec.note_live(engine)
                parse_events += engine.program.parser.parse_events
                traced_refs.extend(s[2] for s in slices)
            else:
                raw_wall += sum(s[1] for s in slices)
                plain_rounds += 1
            rnd += 1
            last = time.perf_counter() - round_begin
    finally:
        engine = None
        os.unlink(path)

    rate = msgs[False] / (walls[False] / 1e9)
    result = {"check": check, "refs": refs, "rounds": rnd, "notes": [
        f"unscaled msg_per_s {msgs[False] / (raw_wall / 1e9):.1f} 1/s"]}
    if traced:
        layers = spans.layer_metrics(rec, parse_events, msgs[True],
                                     measure.scale(statistics.median(traced_refs)))
        layers["trace.rate_ratio"] = msgs[True] / (walls[True] / 1e9) / rate
        layers.update({"proxy.engine_us": 0.0, "proxy.outside_engine_us": 0.0,
                       "proxy.lost": 0, "gen.late_max_us": 0.0})
        rec.dump(str(WORK / f"spans-{name}.bin"))
        result["layers"] = layers
    else:
        result["e2e"] = {
            "msg_per_s": rate,
            "p50_us": hist.percentile(0.50) / 1e3,
            "p99_us": hist.percentile(0.99) / 1e3,
            "ok_share": 1.0 - check.wrong / check.attempted,
            "rss_peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups),
        }
    return result


def run_open(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import proxyload

    cfg = OPEN[name]
    path = str(WORK / f"{name}-{seed}.ndtrace")
    # a traced run is an untraced session then a traced one, for the
    # overhead ratio, each half as long
    messages = int(cfg["rate"] * (seconds / 2 if traced else seconds))
    try:
        truth = write_traffic(cfg, path, seed, messages)
        plain = proxyload.session(path, cfg, messages, ROOT, traced=False)
        session = proxyload.session(path, cfg, messages, ROOT, traced=True) if traced else plain
    finally:
        os.unlink(path)
    check = Check()
    check.add(truth, plain["codes"], messages)
    if traced:
        check.add(truth, session["codes"], messages)
    check.lost = plain["lost"] + (session["lost"] if traced else 0)
    result = {"check": check, "refs": plain["refs"], "rounds": 1 + traced}
    if traced:
        layers = dict(session["layers"])
        layers["trace.read_us"] = session["read_us"] * measure.scale(statistics.median(session["refs"]))
        # the offered rate is the same in both sessions, so the overhead
        # shows in latency: untraced p50 over traced p50
        layers["trace.rate_ratio"] = plain["p50_us"] / session["p50_us"]
        layers["proxy.engine_us"] = layers["engine.process_us"]
        layers["proxy.outside_engine_us"] = session["mean_us"] - layers["engine.process_us"]
        layers["proxy.lost"] = session["lost"]
        layers["gen.late_max_us"] = session["late_max_us"]
        result["layers"] = layers
        result["refs"] = plain["refs"] + session["refs"]
    else:
        result["e2e"] = {
            "msg_per_s": plain["msg_per_s"],
            "p50_us": plain["p50_us"],
            "p99_us": plain["p99_us"],
            "ok_share": 1.0 - check.wrong / check.attempted,
            "rss_peak_mb": plain["rss_mb"],
            "setup_s": plain["setup_s"],
        }
    result["notes"] = [f"gen.late_max_us {plain['late_max_us']:.1f} us (untraced session)"]
    return result


def run_one(name: str, seed: int, seconds: float, traced: bool) -> int:
    _import_sipwall()
    WORK.mkdir(exist_ok=True)
    runner = run_closed if name in CLOSED else run_open
    result = runner(name, seed, seconds, traced)
    check = result["check"]
    refs = result["refs"]
    print(f"# {name} seed={seed} seconds={seconds} trace={int(traced)} rounds={result['rounds']}")
    for line in check.lines() + result["notes"]:
        print(line)
    print(f"host.ref_ms {statistics.median(refs):.3f} ms "
          f"(median of {len(refs)}, range {min(refs):.3f}-{max(refs):.3f})")
    if traced:
        layers = result["layers"]
        layers["host.ref_ms"] = statistics.median(refs)
        print(f"self times / traced process_message time = {layers.pop('self_sum_share'):.6f}")
        metrics = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": result["e2e"][k], "unit": u} for k, u in END_TO_END.items()}
    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.wrong,
        "metrics": metrics,
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload != "all":
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
