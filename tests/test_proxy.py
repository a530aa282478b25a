from __future__ import annotations

import socket
import threading
import time

import pytest

from sipwall.cli import builtin_ruleset
from sipwall.engine import Engine
from sipwall.gen import gen_bye_attack, gen_invite_flood
from sipwall.proxy import ProxyConfig, ProxyReport, proxy_run
from sipwall.rules import compile_ruleset, parse_ruleset

LOOP = "127.0.0.1"


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as s:
        s.bind((LOOP, 0))
        return s.getsockname()[1]


class ProxyHarness:
    """Upstream sink plus a proxy thread, torn down in close()."""

    def __init__(self, ruleset: str, engine_type: type[Engine] = Engine):
        self.upstream_sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.upstream_sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4 << 20)
        self.upstream_sock.bind((LOOP, 0))
        self.upstream_sock.settimeout(2.0)
        self.engine = engine_type(compile_ruleset(parse_ruleset(ruleset)))
        self.config = ProxyConfig(
            listen=(LOOP, free_port()),
            upstream=self.upstream_sock.getsockname(),
        )
        self.stop = threading.Event()
        ready = threading.Event()
        self.result: list[ProxyReport] = []
        self.thread = threading.Thread(
            target=lambda: self.result.append(
                proxy_run(
                    self.config, self.engine,
                    stop=self.stop, ready=ready, poll_interval=0.05,
                )
            ),
            daemon=True,
        )
        self.thread.start()
        assert ready.wait(2.0), "proxy never came up"
        self.client = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)

    def send(self, payload: bytes) -> None:
        self.client.sendto(payload, self.config.listen)

    def recv_upstream(self) -> bytes:
        data, _ = self.upstream_sock.recvfrom(65535)
        return data

    def finish(self) -> ProxyReport:
        # drain time for in-flight datagrams before stopping
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline and not self.result:
            if self.engine.stats.processed >= getattr(self, "_expected", 0):
                break
            time.sleep(0.02)
        self.stop.set()
        self.thread.join(2.0)
        assert self.result, "proxy thread did not exit"
        return self.result[0]

    def close(self) -> None:
        self.stop.set()
        self.client.close()
        self.upstream_sock.close()


def test_listen_upstream_must_differ():
    with pytest.raises(ValueError):
        ProxyConfig(listen=(LOOP, 5060), upstream=(LOOP, 5060))


def test_forged_teardown_is_not_relayed():
    harness = ProxyHarness(builtin_ruleset("bye_attack"))
    try:
        records = gen_bye_attack(calls=1, seed=42)
        assert len(records) == 6
        harness._expected = 6
        for rec in records:
            harness.send(rec.payload)
            time.sleep(0.01)  # keep arrival order stable over loopback

        relayed = []
        for _ in range(5):
            relayed.append(harness.recv_upstream())
        with pytest.raises(socket.timeout):
            harness.upstream_sock.settimeout(0.3)
            harness.recv_upstream()

        forged = records[4].payload
        expected = [r.payload for r in records if r.payload != forged]
        assert relayed == expected

        report = harness.finish()
        assert report.received == 6
        assert report.relayed == 5
        assert report.dropped == 1
        assert report.malformed == 0
        assert report.engine_snapshot["drops_by_rule"] == {2: 1}
    finally:
        harness.close()


def test_malformed_datagram_dies_quietly():
    harness = ProxyHarness("")
    try:
        harness._expected = 2
        harness.send(b"\x00\x01 not sip\r\n\r\n")
        harness.send(
            b"OPTIONS sip:x@y SIP/2.0\r\nVia: SIP/2.0/UDP 10.0.0.5;branch=z9hG4bKp\r\n"
            b"From: <sip:a@b>;tag=1\r\nTo: <sip:x@y>\r\nCall-ID: p@x\r\n"
            b"CSeq: 1 OPTIONS\r\nContent-Length: 0\r\n\r\n"
        )
        good = harness.recv_upstream()
        assert good.startswith(b"OPTIONS")
        report = harness.finish()
        assert report.received == 2
        assert report.relayed == 1
        assert report.malformed == 1
        assert report.dropped == 0
    finally:
        harness.close()


def test_relay_failure_is_not_an_engine_drop():
    # the kernel refuses a broadcast send on a socket without SO_BROADCAST,
    # so the relay fails and no datagram leaves the host
    listen = (LOOP, free_port())
    engine = Engine(compile_ruleset(parse_ruleset("")))
    stop, ready = threading.Event(), threading.Event()
    result: list[ProxyReport] = []
    thread = threading.Thread(
        target=lambda: result.append(
            proxy_run(
                ProxyConfig(listen=listen, upstream=("255.255.255.255", listen[1])),
                engine, stop=stop, ready=ready, poll_interval=0.05,
            )
        ),
        daemon=True,
    )
    thread.start()
    try:
        assert ready.wait(2.0), "proxy never came up"
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as client:
            client.sendto(gen_bye_attack(calls=1, seed=1)[0].payload, listen)
        deadline = time.monotonic() + 2.0
        while engine.stats.processed < 1 and time.monotonic() < deadline:
            time.sleep(0.02)
    finally:
        stop.set()
        thread.join(2.0)
    (report,) = result
    assert report.received == 1
    assert report.relay_failures == 1
    assert report.relayed == 0
    assert report.dropped == 0
    assert report.engine_snapshot["forwarded"] == 1


def _rmem_max() -> int:
    try:
        with open("/proc/sys/net/core/rmem_max", encoding="ascii") as fh:
            return int(fh.read())
    except OSError:
        return 0


@pytest.mark.skipif(_rmem_max() < 4 << 20, reason="net.core.rmem_max caps receive buffers below 4 MiB")
def test_burst_during_a_stall_is_not_lost():
    # the engine stalls on its first message while 2,000 datagrams queue up
    # in the listen socket's receive buffer
    gate = threading.Event()

    class StalledEngine(Engine):
        def process_message(self, raw, **kwargs):
            gate.wait(10.0)
            return super().process_message(raw, **kwargs)

    harness = ProxyHarness("", StalledEngine)
    try:
        records = gen_invite_flood(count=2000, rate=2000.0, seed=3)
        harness._expected = len(records)
        for rec in records:
            harness.send(rec.payload)
        gate.set()
        deadline = time.monotonic() + 20.0
        while harness.engine.stats.processed < len(records) and time.monotonic() < deadline:
            time.sleep(0.05)
        report = harness.finish()
        assert report.received == len(records)
        assert report.relayed == len(records)
        harness.upstream_sock.settimeout(0.5)
        arrived = 0
        with pytest.raises(socket.timeout):
            while True:
                harness.recv_upstream()
                arrived += 1
        assert arrived == len(records)
    finally:
        harness.close()


def test_ctrl_c_in_inspection_keeps_the_report():
    class InterruptedEngine(Engine):
        calls = 0

        def process_message(self, raw, **kwargs):
            InterruptedEngine.calls += 1
            if InterruptedEngine.calls == 3:
                raise KeyboardInterrupt
            return super().process_message(raw, **kwargs)

    harness = ProxyHarness("", InterruptedEngine)
    try:
        for rec in gen_bye_attack(calls=1, seed=1)[:3]:
            harness.send(rec.payload)
        harness.thread.join(5.0)
        assert harness.result, "proxy_run did not return after KeyboardInterrupt"
        (report,) = harness.result
        assert report.received == 2
        assert report.relayed == 2
        assert report.engine_snapshot["processed"] == 2
    finally:
        harness.close()
