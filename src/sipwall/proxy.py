"""Inline UDP proxy: inspect datagrams on a listen port, relay survivors.

One socket, one thread.  Arrival times come from a monotonic clock
started when the proxy comes up, so engine state timing behaves the same
as in replay.  A relay failure is counted in ``relay_failures`` and
logged, never silently ignored; ``dropped`` counts engine drops only.
"""

from __future__ import annotations

import logging
import socket
import sys
import threading
import time
from dataclasses import dataclass, field

from .engine import Engine

__all__ = ["ProxyConfig", "ProxyReport", "proxy_run"]

log = logging.getLogger(__name__)

_RECV_BUF = 65535
# Kernel receive buffer asked for, in bytes.  The default (about 208 KiB on
# Linux) holds under a hundred small datagrams, a few tens of ms of a busy
# link, so a sweep or scheduler stall lost datagrams; this holds seconds.
_SOCKET_RCVBUF = 4 << 20


@dataclass(frozen=True)
class ProxyConfig:
    listen: tuple[str, int]
    upstream: tuple[str, int]

    def __post_init__(self) -> None:
        if self.listen == self.upstream:
            raise ValueError("listen and upstream endpoints must differ")


@dataclass
class ProxyReport:
    received: int = 0
    relayed: int = 0
    dropped: int = 0
    malformed: int = 0
    relay_failures: int = 0
    engine_snapshot: dict = field(default_factory=dict)


def proxy_run(
    config: ProxyConfig,
    engine: Engine,
    *,
    stop: threading.Event | None = None,
    ready: threading.Event | None = None,
    poll_interval: float = 0.25,
) -> ProxyReport:
    """Run until the stop event is set (or KeyboardInterrupt, which still
    returns the report)."""
    report = ProxyReport()
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        _ask_receive_buffer(sock)
        sock.bind(config.listen)
        sock.settimeout(poll_interval)
        if ready is not None:
            ready.set()
        t0 = time.monotonic()
        while stop is None or not stop.is_set():
            try:
                data, addr = sock.recvfrom(_RECV_BUF)
            except socket.timeout:
                continue
            arrival = time.monotonic() - t0
            verdict = engine.process_message(
                data, direction="in", src=addr, dst=config.listen, arrival_time=arrival
            )
            report.received += 1
            if verdict.malformed:
                report.malformed += 1
            elif verdict.decision == "drop":
                report.dropped += 1
            else:
                try:
                    sock.sendto(data, config.upstream)
                    report.relayed += 1
                except OSError as exc:
                    # fail closed: an unreachable upstream means the message dies
                    log.warning("relay to %s failed: %s", config.upstream, exc)
                    report.relay_failures += 1
    except KeyboardInterrupt:
        pass  # ctrl-c anywhere (receive, inspect, relay) still ends with the report
    finally:
        sock.close()
    engine.end_of_trace()
    report.engine_snapshot = engine.snapshot()
    return report


def _ask_receive_buffer(sock: socket.socket) -> None:
    """Ask for a _SOCKET_RCVBUF receive buffer; warn when the kernel grants
    less (on Linux, net.core.rmem_max caps it)."""
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, _SOCKET_RCVBUF)
    except OSError as exc:
        log.warning("cannot set a %d-byte receive buffer: %s", _SOCKET_RCVBUF, exc)
        return
    granted = sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
    if sys.platform.startswith("linux"):
        granted //= 2  # Linux doubles what it grants, for bookkeeping, and reports that
    if granted < _SOCKET_RCVBUF:
        log.warning(
            "receive buffer is %d bytes, not the %d asked for; bursts may be lost",
            granted, _SOCKET_RCVBUF,
        )
