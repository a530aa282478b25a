"""Measurement helpers shared by the closed-loop runner and the proxy process."""

from __future__ import annotations

import math
import re
import time
from array import array


# Timed figures are scaled to a host on which host_ref_ms() reads this.
NOMINAL_REF_MS = 10.0


def host_ref_ms() -> float:
    """A fixed pure-Python loop; its time tracks the host, not sipwall."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(60_000):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
    return (time.perf_counter() - t0) * 1e3


def scale(ref_ms: float) -> float:
    """Factor that takes a time measured next to ``ref_ms`` to the nominal host."""
    return NOMINAL_REF_MS / ref_ms


class LogHistogram:
    """Counts of positive values in buckets 0.1% wide on a log scale.

    Its memory is fixed, so a run that measures more messages does not
    grow the process (rss_peak_mb stays a figure of the engine); a
    percentile is the midpoint of the bucket that holds the nearest-rank
    sample, within 0.05% of it.
    """

    STEP = math.log1p(0.001)
    SIZE = 28_000  # buckets from 1 to about 1.4e12 (ns)

    def __init__(self) -> None:
        self.counts = array("q", bytes(8 * self.SIZE))
        self.total = 0

    def add(self, values, factor: float) -> None:
        """Count each value times ``factor`` (its host scaling)."""
        counts, step, top = self.counts, self.STEP, self.SIZE - 1
        for v in values:
            x = v * factor
            counts[min(top, int(math.log(x) / step)) if x > 1.0 else 0] += 1
            self.total += 1

    def percentile(self, q: float) -> float:
        rank = max(1, math.ceil(q * self.total))
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                return math.exp((i + 0.5) * self.STEP)
        raise ValueError("empty histogram")


def ruleset_text(spec: str) -> str:
    from sipwall.bench import synthetic_ruleset
    from sipwall.cli import builtin_ruleset

    kind, _, arg = spec.partition(":")
    if kind == "builtin":
        return builtin_ruleset(arg)
    return synthetic_ruleset(int(arg))


# set-ups timed per round (closed loops) or per proxy start
SETUP_REPS = 3


def set_up(text: str):
    """parse + compile + Engine exactly as ``sipwall run`` builds them,
    SETUP_REPS times, each with the regex cache purged so it compiles
    from cold; returns the last engine and the time of each set-up."""
    from sipwall import Engine, compile_ruleset, parse_ruleset

    times = []
    engine = None
    for _ in range(SETUP_REPS):
        engine = None
        re.purge()
        t0 = time.perf_counter()
        engine = Engine(compile_ruleset(parse_ruleset(text)))
        times.append(time.perf_counter() - t0)
    return engine, times
