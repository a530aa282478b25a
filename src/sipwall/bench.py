"""Benchmark scenarios and the shared stats CSV schema.

Scenario 1 sweeps the offered rate with an empty ruleset to measure the
bare inspection path.  Scenario 2 pins the rate and doubles the rule
count to measure how latency grows with the rule set; the filler rules
are regex tests on one header that never match, plus one counter rule
at the end of the file.  The fillers form one rule block whose anchored
prefixes the traffic never starts with, so the engine skips them with a
single prefix test: the curve is nearly flat by design.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from .engine import Engine
from .gen import gen_invite_flood
from .rules import compile_ruleset, parse_ruleset
from .trace import ReplayReport, replay, sleep_until

__all__ = [
    "BenchPoint",
    "CSV_HEADER",
    "percentile_ns",
    "synthetic_ruleset",
    "run_scenario1",
    "run_scenario2",
    "point_from_report",
    "format_csv",
    "write_csv",
]

CSV_HEADER = (
    "rate_offered,rate_achieved,rules,msgs,forwarded,dropped,malformed,"
    "p50_us,p90_us,p99_us"
)


@dataclass
class BenchPoint:
    rate_offered: float
    rate_achieved: float
    rules: int
    msgs: int
    forwarded: int
    dropped: int
    malformed: int
    p50_us: float
    p90_us: float
    p99_us: float

    def csv_row(self) -> str:
        return (
            f"{self.rate_offered:.3f},{self.rate_achieved:.3f},{self.rules},"
            f"{self.msgs},{self.forwarded},{self.dropped},{self.malformed},"
            f"{self.p50_us:.1f},{self.p90_us:.1f},{self.p99_us:.1f}"
        )


def percentile_ns(samples: Sequence[int], q: float) -> float:
    """Nearest-rank percentile of latency samples, in nanoseconds."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def point_from_report(report: ReplayReport, rules: int) -> BenchPoint:
    lat = report.latencies_ns
    return BenchPoint(
        rate_offered=report.offered_rate or 0.0,
        rate_achieved=report.achieved_rate,
        rules=rules,
        msgs=report.messages,
        forwarded=report.forwarded,
        dropped=report.dropped,
        malformed=report.malformed,
        p50_us=percentile_ns(lat, 0.50) / 1000.0,
        p90_us=percentile_ns(lat, 0.90) / 1000.0,
        p99_us=percentile_ns(lat, 0.99) / 1000.0,
    )


def synthetic_ruleset(n: int) -> str:
    """n rules: n-1 never-matching regex tests plus one counter rule.

    The regexes test the User-Agent header, which the generated traffic
    always carries.  Each starts with ^ and a literal, so the engine
    evaluates the fillers as one prefiltered block (see engine.py).
    """
    if n < 1:
        raise ValueError("need at least one rule")
    lines = [
        f'secsip "FIELDS:sip.user_agent" "^probe-{i:04d}-[0-9a-f]+$" forward'
        for i in range(n - 1)
    ]
    lines.append('secsip "FIELDS:sip.method" "^INVITE$" declare:bench_total=counter[10;60]')
    return "\n".join(lines) + "\n"


def _run_point(
    ruleset_text: str, rate: float, duration: float, seed: int
) -> BenchPoint:
    program = compile_ruleset(parse_ruleset(ruleset_text))
    engine = Engine(program)
    count = max(1, int(round(rate * duration)))
    records = gen_invite_flood(count=count, rate=rate, seed=seed)
    report = replay(records, engine, pacing="fixed", rate=rate)
    return point_from_report(report, rules=len(program.rules))


def run_scenario1(
    *,
    rate_start: int = 10,
    rate_stop: int = 500,
    rate_step: int = 50,
    duration: float = 10.0,
    seed: int = 1,
    progress: TextIO | None = None,
) -> list[BenchPoint]:
    rates = list(range(rate_start, rate_stop + 1, rate_step))
    if not rates or rates[-1] != rate_stop:
        rates.append(rate_stop)
    points = []
    for rate in rates:
        if progress:
            print(f"# scenario 1: {rate} msg/s for {duration:.0f}s", file=progress)
        points.append(_run_point("", float(rate), duration, seed))
    return points


def run_scenario2(
    *,
    rate: float = 60.0,
    max_rules: int = 256,
    duration: float = 4.0,
    seed: int = 1,
    progress: TextIO | None = None,
) -> list[BenchPoint]:
    """One point per rule count 1, 2, 4 .. max_rules, each from the same
    messages at the same rate.  Every rule count has its own engine, and
    message i is released at start + i/rate to all of them in turn.  The
    turn order rotates by one per message, so every rule count runs at
    every position alike, and drift of the host lands on all the points
    at the same moments."""
    counts = []
    n = 1
    while n <= max_rules:
        counts.append(n)
        n *= 2
    engines = [Engine(compile_ruleset(parse_ruleset(synthetic_ruleset(count)))) for count in counts]
    records = gen_invite_flood(count=max(1, int(round(rate * duration))), rate=rate, seed=seed)
    reports = [ReplayReport(offered_rate=rate) for _ in counts]
    if progress:
        print(
            f"# scenario 2: {len(records)} messages at {rate:.0f} msg/s "
            f"to {counts[0]}..{counts[-1]} rules",
            file=progress,
        )
    wall0 = time.perf_counter()
    for i, rec in enumerate(records):
        arrival = i / rate
        sleep_until(wall0 + arrival)
        for turn in range(len(counts)):
            k = (i + turn) % len(counts)
            reports[k].count(engines[k].process_message(
                rec.payload, direction=rec.direction, src=rec.src, dst=rec.dst,
                arrival_time=arrival,
            ))
    wall = time.perf_counter() - wall0
    for engine, report in zip(engines, reports):
        engine.end_of_trace()
        report.wall_seconds = wall
        report.achieved_rate = report.messages / wall if wall else 0.0
    return [point_from_report(report, rules=count) for report, count in zip(reports, counts)]


def format_csv(points: Iterable[BenchPoint]) -> str:
    return "\n".join([CSV_HEADER] + [p.csv_row() for p in points]) + "\n"


def write_csv(points: Iterable[BenchPoint], path: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_csv(points))
