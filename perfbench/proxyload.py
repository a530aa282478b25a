"""Open-loop load through ``proxy_run`` in a second process.

The parent is a single-threaded generator: it sends datagram i over
loopback UDP at ``start + i / rate``, whether or not earlier ones have
come back, and receives what the proxy relays on a sink socket of its
own.  Latency runs from a datagram's scheduled send time to its arrival
at the sink, so a stall in the proxy also delays every datagram queued
behind it.  After the last send the generator waits a fixed drain
window; a datagram the proxy relayed that has not arrived by then is
lost.

The schedule runs in slices.  After each slice the generator waits for
the proxy to drain, then asks the proxy process for a host reference
reading (see measure.py), taken on the CPU that runs the engine while
the proxy is idle; each slice's latencies are scaled by it.

The child (``python3 proxyload.py child ...``) builds the engine as
``sipwall run`` does, starts ``proxy_run`` on a thread with a ``ready``
event and waits for that event; it does so PROXY_STARTS times, stopping
all but the last proxy at once, and reports the median engine set-up
plus the median start-up as its set-up time.  It reports its port only once the last proxy is ready.
It answers ``ref`` lines on its stdin with a reading, stops through the
``stop`` event on a ``stop`` line, then prints its report as one JSON
line.
"""

from __future__ import annotations

import json
import os
import resource
import select
import socket
import statistics
import subprocess
import sys
import threading
import time
from array import array
from pathlib import Path

import measure

DRAIN_S = 1.0  # wait after the last send before counting a datagram lost
GAP_S = 0.05  # pause after each slice, before the host reference reading
START_DELAY_S = 0.01
CHILD_TIMEOUT_S = 30.0
PROXY_STARTS = 11  # proxy start-ups in the child, for setup_s
SOCK_BUF = 1 << 22


def _drain(sink, index, arrival, clock) -> None:
    while True:
        try:
            data = sink.recv(65535)
        except BlockingIOError:
            return
        now = clock()
        i = index.get(data)
        if i is not None and arrival[i] == 0:
            arrival[i] = now


def _wait_until(deadline: int, sink, index, arrival, clock) -> None:
    while True:
        now = clock()
        if now >= deadline:
            return
        ready, _, _ = select.select([sink], [], [], (deadline - now) / 1e9)
        if ready:
            _drain(sink, index, arrival, clock)


def _child_line(proc: subprocess.Popen) -> dict:
    ready, _, _ = select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    if not line:
        raise RuntimeError(f"proxy process gave no report (exit {proc.poll()})")
    return json.loads(line)


def _child_ref(proc: subprocess.Popen) -> float:
    """A host reference reading taken by the proxy process while it is idle,
    on the CPU that runs the engine."""
    proc.stdin.write("ref\n")
    proc.stdin.flush()
    return _child_line(proc)["ref_ms"]


def session(path: str, cfg: dict, messages: int, root: Path, *, traced: bool) -> dict:
    """Send the first ``messages`` datagrams of the trace through a proxy."""
    from sipwall.trace import read_ndtrace

    clock = time.perf_counter_ns
    t0 = clock()
    payloads = [rec.payload for rec in read_ndtrace(path)][:messages]
    read_us = (clock() - t0) / max(1, len(payloads)) / 1e3
    if len(payloads) != messages:
        raise RuntimeError(f"trace holds {len(payloads)} messages, need {messages}")
    index = {p: i for i, p in enumerate(payloads)}
    if len(index) != messages:
        raise RuntimeError("trace payloads are not unique")
    arrival = array("q", bytes(8 * messages))

    cpus_before = os.sched_getaffinity(0)
    sink = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sender = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    proc = None
    try:
        sink.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, SOCK_BUF)
        sink.bind(("127.0.0.1", 0))
        sink.setblocking(False)
        sender.bind(("127.0.0.1", 0))
        proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "child", str(root / "src"),
             cfg["ruleset"], str(sink.getsockname()[1]), str(int(traced)),
             str(Path(__file__).resolve().parent / ".work" / "spans-proxy-calls.bin")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 2:
            # generator and proxy each on a CPU of their own
            os.sched_setaffinity(proc.pid, {cpus[1]})
            os.sched_setaffinity(0, {cpus[0]})
        hello = _child_line(proc)
        listen = ("127.0.0.1", hello["port"])
        sent = 0.0  # seconds spent sending

        step = 1e9 / cfg["rate"]
        due = array("q", bytes(8 * messages))
        slices = []  # (first, count, ref ms)
        late_max = 0
        sendto = sender.sendto
        ref = _child_ref(proc)
        for first in range(0, messages, cfg["slice"]):
            count = min(cfg["slice"], messages - first)
            start = clock() + int(START_DELAY_S * 1e9)
            for i in range(first, first + count):
                due[i] = start + int((i - first) * step)
                _wait_until(due[i], sink, index, arrival, clock)
                sendto(payloads[i], listen)
                late_max = max(late_max, clock() - due[i])
            sent += (clock() - start) / 1e9
            # let the slice drain before the reading, so no arrival waits on it
            _wait_until(clock() + int(GAP_S * 1e9), sink, index, arrival, clock)
            after = _child_ref(proc)
            slices.append((first, count, (ref + after) / 2))
            ref = after
        _wait_until(clock() + int(DRAIN_S * 1e9), sink, index, arrival, clock)
        _drain(sink, index, arrival, clock)

        # the stop line carries the host scaling for the child's span times
        proc.stdin.write(f"stop {measure.scale(statistics.median(s[2] for s in slices))}\n")
        proc.stdin.flush()
        report = _child_line(proc)
        proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        os.sched_setaffinity(0, cpus_before)
        if proc is not None:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        sink.close()
        sender.close()

    # latencies scaled to the nominal host by their slice's reading
    hist = measure.LogHistogram()
    arrived, total_ns = 0, 0.0
    for first, count, ref in slices:
        f = measure.scale(ref)
        lat = [arrival[i] - due[i] for i in range(first, first + count) if arrival[i]]
        hist.add(lat, f)
        arrived += len(lat)
        total_ns += sum(lat) * f
    lost = (messages - report["received"]) + (report["relayed"] - arrived)
    out = {
        "codes": bytearray(0 if arrival[i] else 1 for i in range(messages)),
        "lost": lost,
        "msg_per_s": report["received"] / sent,
        "p50_us": hist.percentile(0.50) / 1e3,
        "p99_us": hist.percentile(0.99) / 1e3,
        "mean_us": total_ns / max(1, arrived) / 1e3,
        "late_max_us": late_max / 1e3,
        "read_us": read_us,
        "refs": [ref for _, _, ref in slices],
        "rss_mb": report["rss_mb"],
        "setup_s": report["setup_s"],
    }
    if traced:
        out["layers"] = report["layers"]
    return out


# ----------------------------------------------------------------------
# proxy process
# ----------------------------------------------------------------------

def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class _Proxy:
    """proxy_run on a thread of its own, started on a fresh engine."""

    def __init__(self, config, text: str, rec) -> None:
        from sipwall.proxy import proxy_run

        import spans

        self.engine, self.engine_s = measure.set_up(text)
        if rec is not None:
            spans.install(rec, self.engine)
            rec.calibrate()
        self.stop, ready = threading.Event(), threading.Event()
        self.box = {}

        def serve():
            self.box["report"] = proxy_run(config, self.engine, stop=self.stop, ready=ready)

        t0 = time.perf_counter()
        self.thread = threading.Thread(target=serve, name="proxy")
        self.thread.start()
        started = ready.wait(CHILD_TIMEOUT_S)
        self.start_s = time.perf_counter() - t0  # thread start until ready
        if not started:
            self.finish()
            raise RuntimeError("proxy did not become ready")

    def finish(self):
        """Stop through the stop event; the proxy's report, or None."""
        self.stop.set()
        self.thread.join(CHILD_TIMEOUT_S)
        return None if self.thread.is_alive() else self.box.get("report")


def child_main(src: str, ruleset: str, upstream_port: int, traced: bool, spans_path: str) -> int:
    sys.path.insert(0, src)
    from sipwall.proxy import ProxyConfig

    import spans

    text = measure.ruleset_text(ruleset)
    port = _free_port()
    config = ProxyConfig(listen=("127.0.0.1", port), upstream=("127.0.0.1", upstream_port))
    # start the proxy PROXY_STARTS times, each on a fresh engine; the last
    # one serves the session.  Set-up time is the median engine set-up,
    # host-scaled, plus the median start-up until ready, which is thread
    # creation and a socket bind: the host reference loop does not track
    # it, so it is not scaled.
    before = measure.host_ref_ms()
    engine_s, start_s = [], []
    rec = spans.Recorder() if traced else None
    for i in range(PROXY_STARTS):
        last = i == PROXY_STARTS - 1
        proxy = _Proxy(config, text, rec if last else None)
        engine_s.extend(proxy.engine_s)
        start_s.append(proxy.start_s)
        if not last:
            proxy.finish()
    f = measure.scale((before + measure.host_ref_ms()) / 2)
    setup_s = statistics.median(engine_s) * f + statistics.median(start_s)
    print(json.dumps({"port": port}), flush=True)

    for line in sys.stdin:
        word, *arg = line.split()
        if word == "ref":
            print(json.dumps({"ref_ms": measure.host_ref_ms()}), flush=True)
        elif word == "stop":
            factor = float(arg[0])
            break
    else:
        factor = 1.0
    report = proxy.finish()
    if report is None:
        return 3
    out = {
        "received": report.received,
        "relayed": report.relayed,
        "dropped": report.dropped,
        "malformed": report.malformed,
        "setup_s": setup_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if rec is not None:
        rec.note_live(proxy.engine)
        out["layers"] = spans.layer_metrics(
            rec, proxy.engine.program.parser.parse_events, report.received, factor
        )
        rec.dump(spans_path)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 7 or sys.argv[1] != "child":
        sys.exit("usage: proxyload.py child SRC RULESET UPSTREAM_PORT TRACED SPANS_PATH")
    sys.exit(child_main(sys.argv[2], sys.argv[3], int(sys.argv[4]),
                        sys.argv[5] == "1", sys.argv[6]))
