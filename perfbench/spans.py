"""Span tracing from outside the engine.

:func:`install` replaces public methods on the live instances of one
engine (``engine``, ``engine.program.parser``, ``engine.store``,
``engine.transactions``) with wrappers that record one span per call:
name, start, end and parent span.  A span's message id is the number of
``engine.process`` root spans before it, worked out from the order of
the spans, so the tracer does no per-message bookkeeping of its own.
Nothing under ``src/`` changes.  Spans stay in memory in flat arrays
and :meth:`Recorder.dump` writes them out when the run ends.

A span's self time is its duration minus the time its child spans
cover.  The tracer's own work per span is split in two: the part inside
the span (around its clock reads) lands in the span's self time, the
part outside it (the wrapper call, the array appends, the ``after``
callback) lands in the caller's.  :func:`span_cost` measures both parts
in this process by timing a wrapped no-op against a bare one, and
:func:`layer_metrics` moves them out of the self times into
``trace.overhead_us``; self times plus that overhead add up to the
traced ``process_message`` time.
"""

from __future__ import annotations

import json
import statistics
import time
from array import array

import measure

NAMES = (
    "engine.process",  # Engine.process_message
    "parser.parse",  # SipParser.parse_message
    "parser.dialog_key",  # SipParser.extract_dialog_key
    "parser.tx_key",  # SipParser.extract_transaction_key
    "engine.context",  # Engine.context_for
    "engine.tracker",  # TransactionTracker.update
    "rules.clause",  # Engine.evaluate_clause
    "state.resolve",  # StateStore.resolve
    "state.expire",  # StateStore.expire
    "state.tx_sweep",  # TransactionTracker.sweep
    "trace.read",  # next record from read_ndtrace
)
_CODE = {name: i for i, name in enumerate(NAMES)}
_PROCESS, _READ = _CODE["engine.process"], _CODE["trace.read"]
_SWEEPS = (_CODE["state.expire"], _CODE["state.tx_sweep"])

# 21 bytes per span; the cap bounds span memory near 50 MB
SPAN_CAP = 2_500_000

# calls per timed loop and loops per variant in span_cost
COST_CALLS = 20_000
COST_REPS = 5


class Recorder:
    def __init__(self) -> None:
        self.name = array("B")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.with_after: set[int] = set()  # codes wrapped with an ``after``
        # (plain, with after) span costs per calibration, see calibrate()
        self.costs: list[tuple] = []
        # counts taken at the same boundaries as the spans
        self.clause_true = 0
        self.swept_scanned = 0
        self.swept_removed = 0
        self.live_peak = 0
        self.tx_live_peak = 0

    def __len__(self) -> int:
        return len(self.start)

    @property
    def full(self) -> bool:
        return len(self.start) >= SPAN_CAP

    def wrap(self, name: str, fn, after=None):
        """fn, recording a span per call; ``after(result)`` sees each result."""
        code = _CODE[name]
        if after is not None:
            self.with_after.add(code)
        stack = self.stack
        names, parents = self.name.append, self.parent.append
        starts, ends = self.start, self.end
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(starts)
            names(code)
            parents(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def count_true(self, result) -> None:
        if result:
            self.clause_true += 1

    def calibrate(self) -> None:
        """Measure the span costs now, scaled to the nominal host by the
        mean of host reference readings taken on either side."""
        before = measure.host_ref_ms()
        plain, after = span_cost(False), span_cost(True)
        f = measure.scale((before + measure.host_ref_ms()) / 2)
        self.costs.append(tuple((inside * f, outside * f) for inside, outside in (plain, after)))

    def span_costs(self) -> tuple[list[float], list[float]]:
        """Per code, the median calibrated (inside, outside) cost in nominal ns."""
        if not self.costs:
            raise RuntimeError("no span cost calibration")
        inside, outside = [], []
        for code in range(len(NAMES)):
            v = 1 if code in self.with_after else 0
            inside.append(statistics.median(c[v][0] for c in self.costs))
            outside.append(statistics.median(c[v][1] for c in self.costs))
        return inside, outside

    def note_live(self, engine) -> None:
        self.live_peak = max(self.live_peak, engine.store.live_total())
        self.tx_live_peak = max(self.tx_live_peak, engine.transactions.live())

    def message_ids(self) -> array:
        """Each span's message id: the number of engine.process roots
        before it, less one.  A read span carries the id of the message
        before the one it reads."""
        ids = array("i", bytes(4 * len(self)))
        msg = -1
        names, parents = self.name, self.parent
        for i in range(len(self)):
            if parents[i] < 0 and names[i] == _PROCESS:
                msg += 1
            ids[i] = msg
        return ids

    def dump(self, path: str) -> None:
        """One JSON header line, then the raw arrays in header order."""
        header = {
            "names": NAMES,
            "count": len(self),
            "arrays": [["name", "B"], ["parent", "i"], ["msg", "i"],
                       ["start_ns", "q"], ["end_ns", "q"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.message_ids(), self.start, self.end):
                arr.tofile(fh)


def span_cost(with_after: bool) -> tuple[float, float]:
    """Tracer cost of one span in ns on this host now: (inside, outside).

    Times an empty loop, a loop of bare no-op calls and a loop of traced
    ones.  Inside is the recorded span duration less the bare call;
    outside is the rest of the traced call less the loop itself.
    """
    clock = time.perf_counter_ns
    loop = range(COST_CALLS)

    def noop(x):
        return None

    inside, outside = [], []
    for _ in range(COST_REPS):
        probe = Recorder()
        traced = probe.wrap("engine.process", noop, probe.count_true if with_after else None)
        t0 = clock()
        for _ in loop:
            pass
        t1 = clock()
        for _ in loop:
            noop(0)
        t2 = clock()
        for _ in loop:
            traced(0)
        t3 = clock()
        span = sum(probe.end) - sum(probe.start)
        empty, bare, wrapped = t1 - t0, t2 - t1, t3 - t2
        inside.append((span - (bare - empty)) / COST_CALLS)
        outside.append((wrapped - empty - span) / COST_CALLS)
    return statistics.median(inside), statistics.median(outside)


def install(rec: Recorder, engine) -> None:
    """Wrap the engine's layer entry points on these instances only."""
    parser = engine.program.parser
    store = engine.store
    tracker = engine.transactions

    def counted_sweep(fn, live):
        # live entries before the call are the entries a full sweep scans
        def call(now):
            rec.note_live(engine)
            rec.swept_scanned += live()
            removed = fn(now)
            rec.swept_removed += removed
            return removed
        return call

    engine.process_message = rec.wrap("engine.process", engine.process_message)
    parser.parse_message = rec.wrap("parser.parse", parser.parse_message)
    parser.extract_dialog_key = rec.wrap("parser.dialog_key", parser.extract_dialog_key)
    parser.extract_transaction_key = rec.wrap("parser.tx_key", parser.extract_transaction_key)
    engine.context_for = rec.wrap("engine.context", engine.context_for)
    tracker.update = rec.wrap("engine.tracker", tracker.update)
    engine.evaluate_clause = rec.wrap("rules.clause", engine.evaluate_clause, rec.count_true)
    store.resolve = rec.wrap("state.resolve", store.resolve)
    store.expire = rec.wrap("state.expire", counted_sweep(store.expire, store.live_total))
    tracker.sweep = rec.wrap("state.tx_sweep", counted_sweep(tracker.sweep, tracker.live))


def analyze(rec: Recorder) -> dict:
    """Raw per-layer figures (ns, counts) from the recorded spans.

    Only spans under an ``engine.process`` or ``trace.read`` root count,
    so work outside the message path (the end-of-run sweep) is left out.
    """
    n = len(rec)
    names, parents, starts, ends = rec.name, rec.parent, rec.start, rec.end
    msgs = rec.message_ids()
    child = [0] * n
    root = [0] * n
    for i in range(n):
        p = parents[i]
        if p >= 0:
            child[p] += ends[i] - starts[i]
            root[i] = root[p]
        else:
            root[i] = i
    codes = range(len(NAMES))
    self_ns = [0] * len(NAMES)
    calls = [0] * len(NAMES)
    kids = [[0] * len(NAMES) for _ in codes]  # kids[parent code][child code]
    sweep_by_msg: dict[int, int] = {}
    process_ns = 0
    for i in range(n):
        rname = names[root[i]]
        if rname != _PROCESS and rname != _READ:
            continue
        code = names[i]
        dur = ends[i] - starts[i]
        self_ns[code] += dur - child[i]
        calls[code] += 1
        if parents[i] >= 0:
            kids[names[parents[i]]][code] += 1
        if code == _PROCESS:
            process_ns += dur
        elif code in _SWEEPS:
            sweep_by_msg[msgs[i]] = sweep_by_msg.get(msgs[i], 0) + dur
    if sum(ns for code, ns in enumerate(self_ns) if code != _READ) != process_ns:
        raise RuntimeError("self times do not add up to process_message time")
    return {
        "self_ns": self_ns,
        "calls": calls,
        "kids": kids,
        "process_ns": process_ns,
        "sweep_max_ns": max(sweep_by_msg.values(), default=0),
    }


def layer_metrics(rec: Recorder, parse_events: int, messages: int, factor: float) -> dict:
    """Per-layer metrics per message.  Span times are multiplied by
    ``factor`` (the host scaling of the traced rounds); then the
    calibrated tracer cost is taken out of each self time and reported
    as ``trace.overhead_us``."""
    a = analyze(rec)
    calls, kids = a["calls"], a["kids"]
    cin, cout = rec.span_costs()
    codes = range(len(NAMES))
    under = [c for c in codes if c != _READ]  # codes of spans under process_message
    self_ns = [
        a["self_ns"][c] * factor - calls[c] * cin[c] - sum(kids[c][k] * cout[k] for k in codes)
        for c in codes
    ]
    overhead_ns = sum(calls[c] * cin[c] for c in under) + sum(
        kids[p][k] * cout[k] for p in under for k in codes
    )
    process_ns = a["process_ns"] * factor
    s = dict(zip(NAMES, self_ns))
    c = dict(zip(NAMES, calls))
    m = max(1, c["engine.process"])

    def us(ns, per=m):
        return ns / max(1, per) / 1e3

    return {
        "trace.read_us": us(s["trace.read"], c["trace.read"]),
        "parser.parse_us": us(s["parser.parse"]),
        "parser.keys_us": us(s["parser.dialog_key"] + s["parser.tx_key"]),
        "parser.fields_per_msg": parse_events / max(1, messages),
        "engine.context_us": us(s["engine.context"]),
        "engine.tracker_us": us(s["engine.tracker"]),
        "engine.self_us": us(s["engine.process"]),
        "engine.process_us": us(process_ns),
        "engine.tx_live_peak": rec.tx_live_peak,
        "rules.clause_us": us(s["rules.clause"]),
        "rules.clauses_per_msg": c["rules.clause"] / m,
        "rules.clause_true_share": rec.clause_true / max(1, c["rules.clause"]),
        "state.resolve_us": us(s["state.resolve"]),
        "state.resolves_per_msg": c["state.resolve"] / m,
        "state.live_peak": rec.live_peak,
        "state.sweep_us": us(s["state.expire"] + s["state.tx_sweep"]),
        "state.sweep_max_ms": us(a["sweep_max_ns"] * factor, 1) / 1e3,
        "state.sweep_yield": rec.swept_removed / max(1, rec.swept_scanned),
        "trace.overhead_us": us(overhead_ns),
        "self_sum_share": (sum(s[NAMES[k]] for k in under) + overhead_ns) / max(1.0, process_ns),
    }
