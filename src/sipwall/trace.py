"""Trace files and replay.

Two on-disk formats are understood: a self-describing text framing for
captured datagrams ("ndtrace") and classic pcap.  Replay feeds records
to an engine under one of three pacing modes; the engine clock is
always driven by record timestamps or synthetic arrival times, never by
the wall clock.

ndtrace layout, bit-exact::

    #ndtrace v1\n
    ts=<float> dir=<in|out> src=<host:port> dst=<host:port> len=<n>\n
    <n payload bytes>\n
    ...
"""

from __future__ import annotations

import re
import struct
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .engine import Engine, Verdict

__all__ = [
    "TraceRecord",
    "TraceFormatError",
    "read_trace",
    "read_ndtrace",
    "read_pcap",
    "write_trace",
    "ReplayReport",
    "replay",
    "sleep_until",
]

NDTRACE_HEADER = b"#ndtrace v1"

_META_RE = re.compile(
    rb"^ts=([0-9.eE+-]+) dir=(in|out) src=(\S+):(\d{1,5}) dst=(\S+):(\d{1,5}) len=(\d{1,9})$"
)  # bounded digits: a longer port or length is a bad metadata line


class TraceFormatError(Exception):
    pass


class TraceRecord(NamedTuple):
    """One datagram of a trace: immutable, and built in one step."""

    ts: float  # seconds, microsecond precision
    direction: str  # "in" | "out"
    src: tuple[str, int]
    dst: tuple[str, int]
    payload: bytes


def _read_meta(line: bytes, prev_ts: float | None) -> tuple:
    """(ts, direction, src, dst, payload length) of one metadata line
    without its newline, for the reader and the writer alike; a ValueError
    says what is wrong with the line."""
    m = _META_RE.match(line)
    if not m:
        raise ValueError(f"bad metadata line {line[:80]!r}")
    ts, direction, src_host, src_port, dst_host, dst_port, length = m.groups()
    try:
        ts = float(ts)
    except ValueError:
        raise ValueError(f"unreadable timestamp {ts[:32]!r}") from None
    if prev_ts is not None and ts < prev_ts:
        raise ValueError(f"timestamp {ts} before {prev_ts}")
    src_port, dst_port = int(src_port), int(dst_port)
    if src_port > 65535 or dst_port > 65535:
        raise ValueError(f"port {max(src_port, dst_port)} out of range")
    return (ts, direction.decode(), (src_host.decode(), src_port),
            (dst_host.decode(), dst_port), int(length))


def write_trace(records: Iterable[TraceRecord], path: str) -> int:
    """Write records in ndtrace framing; returns the record count.  A record
    the reader would refuse raises TraceFormatError naming it."""
    count = 0
    prev_ts = None
    with open(path, "wb") as fh:
        fh.write(NDTRACE_HEADER + b"\n")
        for rec in records:
            count += 1
            try:
                meta = (
                    f"ts={rec.ts:.6f} dir={rec.direction} "
                    f"src={rec.src[0]}:{rec.src[1]} dst={rec.dst[0]}:{rec.dst[1]} "
                    f"len={len(rec.payload)}"
                ).encode("ascii")
                prev_ts = _read_meta(meta, prev_ts)[0]
            except ValueError as exc:  # UnicodeEncodeError included
                raise TraceFormatError(f"{path}: record {count}: {exc}") from None
            fh.write(meta + b"\n")
            fh.write(rec.payload)
            fh.write(b"\n")
    return count


def read_trace(path: str, fmt: str = "ndtrace", port: int = 5060) -> Iterator[TraceRecord]:
    if fmt == "ndtrace":
        return read_ndtrace(path)
    if fmt == "pcap":
        return read_pcap(path, port=port)
    raise ValueError(f"unknown trace format {fmt!r}")


def read_ndtrace(path: str) -> Iterator[TraceRecord]:
    with open(path, "rb") as fh:
        header = fh.readline().rstrip(b"\r\n")
        if header != NDTRACE_HEADER:
            raise TraceFormatError(f"{path}: not an ndtrace file (header {header[:32]!r})")
        index = 0
        prev_ts = None
        while True:
            line = fh.readline()
            if not line:
                return
            index += 1
            try:
                ts, direction, src, dst, length = _read_meta(line.rstrip(b"\n"), prev_ts)
            except ValueError as exc:
                raise TraceFormatError(f"{path}: record {index}: {exc}") from None
            payload = fh.read(length)
            if len(payload) != length:
                raise TraceFormatError(f"{path}: record {index}: truncated payload")
            if fh.read(1) != b"\n":
                raise TraceFormatError(
                    f"{path}: record {index}: missing payload terminator"
                )
            prev_ts = ts
            yield TraceRecord(ts, direction, src, dst, payload)


# pcap constants
_MAGIC_US = 0xA1B2C3D4
_MAGIC_NS = 0xA1B23C4D
_LINKTYPE_ETHERNET = 1
_LINKTYPE_RAW = 101


def read_pcap(path: str, port: int = 5060) -> Iterator[TraceRecord]:
    """UDP/IPv4 datagrams on the given port from a classic pcap file.

    Packets that are not IPv4 UDP traffic touching the port are skipped;
    a datagram whose destination port equals ``port`` counts as inbound.
    """
    with open(path, "rb") as fh:
        head = fh.read(24)
        if len(head) < 24:
            raise TraceFormatError(f"{path}: truncated pcap global header")
        magic_le = struct.unpack("<I", head[:4])[0]
        magic_be = struct.unpack(">I", head[:4])[0]
        if magic_le in (_MAGIC_US, _MAGIC_NS):
            endian, magic = "<", magic_le
        elif magic_be in (_MAGIC_US, _MAGIC_NS):
            endian, magic = ">", magic_be
        else:
            raise TraceFormatError(f"{path}: not a pcap file (magic {head[:4]!r})")
        divisor = 1e9 if magic == _MAGIC_NS else 1e6
        linktype = struct.unpack(endian + "I", head[20:24])[0]
        if linktype not in (_LINKTYPE_ETHERNET, _LINKTYPE_RAW):
            raise TraceFormatError(f"{path}: unsupported linktype {linktype}")

        rec_hdr = struct.Struct(endian + "IIII")
        index = 0
        prev_ts = None
        while True:
            hdr = fh.read(16)
            if not hdr:
                return
            index += 1
            if len(hdr) < 16:
                raise TraceFormatError(f"{path}: record {index}: truncated header")
            ts_sec, ts_frac, incl_len, _orig_len = rec_hdr.unpack(hdr)
            data = fh.read(incl_len)
            if len(data) < incl_len:
                raise TraceFormatError(f"{path}: record {index}: truncated packet")

            rec = _decode_packet(data, linktype, port)
            if rec is None:
                continue
            ts = ts_sec + ts_frac / divisor
            if prev_ts is not None and ts < prev_ts:
                raise TraceFormatError(
                    f"{path}: record {index}: timestamp {ts} before {prev_ts}"
                )
            prev_ts = ts
            src, dst, direction, payload = rec
            yield TraceRecord(ts=ts, direction=direction, src=src, dst=dst, payload=payload)


def _decode_packet(
    data: bytes, linktype: int, port: int
) -> tuple[tuple[str, int], tuple[str, int], str, bytes] | None:
    off = 0
    if linktype == _LINKTYPE_ETHERNET:
        if len(data) < 14:
            return None
        ethertype = struct.unpack(">H", data[12:14])[0]
        off = 14
        if ethertype == 0x8100:  # single VLAN tag
            if len(data) < 18:
                return None
            ethertype = struct.unpack(">H", data[16:18])[0]
            off = 18
        if ethertype != 0x0800:
            return None
    if len(data) < off + 20:
        return None
    vih = data[off]
    if vih >> 4 != 4:
        return None
    ihl = (vih & 0x0F) * 4
    if ihl < 20 or len(data) < off + ihl + 8:
        return None
    if data[off + 9] != 17:  # UDP only
        return None
    flags_frag = struct.unpack(">H", data[off + 6 : off + 8])[0]
    if flags_frag & 0x3FFF:  # fragmented: offset or MF set
        return None
    src_ip = ".".join(str(b) for b in data[off + 12 : off + 16])
    dst_ip = ".".join(str(b) for b in data[off + 16 : off + 20])
    uoff = off + ihl
    sport, dport, ulen = struct.unpack(">HHH", data[uoff : uoff + 6])
    if port not in (sport, dport):
        return None
    if ulen < 8:
        return None
    payload = data[uoff + 8 : uoff + ulen]
    if not payload:
        return None
    direction = "in" if dport == port else "out"
    return (src_ip, sport), (dst_ip, dport), direction, payload


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------


@dataclass
class ReplayReport:
    messages: int = 0
    forwarded: int = 0
    dropped: int = 0
    malformed: int = 0
    wall_seconds: float = 0.0
    offered_rate: float | None = None
    achieved_rate: float = 0.0
    latencies_ns: list[int] = field(default_factory=list)

    def count(self, verdict: Verdict) -> None:
        self.messages += 1
        if verdict.malformed:
            self.malformed += 1
        elif verdict.decision == "drop":
            self.dropped += 1
        else:
            self.forwarded += 1
        self.latencies_ns.append(int(verdict.processing_time * 1e9))


def replay(
    records: Iterable[TraceRecord],
    engine: Engine,
    *,
    pacing: str = "fast",
    rate: float | None = None,
) -> ReplayReport:
    """Feed a trace through the engine.

    pacing "fast" runs flat out with recorded timestamps as the clock,
    "timed" sleeps to honor recorded inter-arrival gaps, and "fixed"
    releases message i at absolute deadline start + i/rate so delays
    never accumulate.
    """
    if pacing not in ("fast", "timed", "fixed"):
        raise ValueError(f"unknown pacing {pacing!r}")
    if pacing == "fixed" and (rate is None or rate <= 0):
        raise ValueError("fixed pacing needs a positive rate")

    report = ReplayReport(offered_rate=rate if pacing == "fixed" else None)
    wall0 = time.perf_counter()
    first_ts: float | None = None
    for i, rec in enumerate(records):
        if pacing == "fixed":
            arrival = i / rate
            sleep_until(wall0 + arrival)
        else:
            arrival = rec.ts
            if pacing == "timed":
                if first_ts is None:
                    first_ts = rec.ts
                sleep_until(wall0 + (rec.ts - first_ts))
        verdict = engine.process_message(
            rec.payload,
            direction=rec.direction,
            src=rec.src,
            dst=rec.dst,
            arrival_time=arrival,
        )
        report.count(verdict)
    engine.end_of_trace()
    report.wall_seconds = time.perf_counter() - wall0
    if report.wall_seconds > 0:
        report.achieved_rate = report.messages / report.wall_seconds
    return report


def sleep_until(deadline: float) -> None:
    # coarse sleep, then spin the last ~200us for tight release times
    while True:
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return
        if remaining > 0.0002:
            time.sleep(remaining - 0.0002)
