from __future__ import annotations

import socket
import struct
import time

import pytest

from sipwall.engine import Engine
from sipwall.gen import gen_clean_calls, gen_invite_flood
from sipwall.rules import compile_ruleset, parse_ruleset
from sipwall.trace import (
    TraceFormatError,
    TraceRecord,
    read_ndtrace,
    read_pcap,
    read_trace,
    replay,
    write_trace,
)

INVITE = (
    b"INVITE sip:bob@gw.example SIP/2.0\r\n"
    b"Via: SIP/2.0/UDP 10.0.0.5:5060;branch=z9hG4bKtrace1\r\n"
    b"From: <sip:alice@client.example>;tag=f1\r\n"
    b"To: <sip:bob@gw.example>\r\n"
    b"Call-ID: trace@client.example\r\n"
    b"CSeq: 1 INVITE\r\n"
    b"Content-Length: 0\r\n\r\n"
)


def empty_engine() -> Engine:
    return Engine(compile_ruleset(parse_ruleset("")))


# ----------------------------------------------------------------------
# ndtrace framing
# ----------------------------------------------------------------------


class TestNdtrace:
    def test_round_trip(self, tmp_path):
        records = gen_clean_calls(calls=3, seed=5)
        path = str(tmp_path / "t.ndtrace")
        assert write_trace(records, path) == len(records)
        assert list(read_ndtrace(path)) == records

    def test_rewrite_is_byte_identical(self, tmp_path):
        records = gen_clean_calls(calls=2, seed=8)
        p1 = tmp_path / "a.ndtrace"
        p2 = tmp_path / "b.ndtrace"
        write_trace(records, str(p1))
        write_trace(list(read_ndtrace(str(p1))), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_read_trace_dispatch(self, tmp_path):
        path = str(tmp_path / "t.ndtrace")
        write_trace(gen_clean_calls(calls=1), path)
        assert len(list(read_trace(path, fmt="ndtrace"))) == 6
        with pytest.raises(ValueError):
            read_trace(path, fmt="mystery")

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"#something else\n")
        with pytest.raises(TraceFormatError, match="not an ndtrace"):
            list(read_ndtrace(str(path)))

    def test_rejects_bad_metadata(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"#ndtrace v1\nnot metadata\n")
        with pytest.raises(TraceFormatError, match="record 1: bad metadata"):
            list(read_ndtrace(str(path)))

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(
            b"#ndtrace v1\n"
            b"ts=1.000000 dir=in src=10.0.0.5:5060 dst=10.0.0.9:5060 len=500\n"
            b"short"
        )
        with pytest.raises(TraceFormatError, match="record 1: truncated payload"):
            list(read_ndtrace(str(path)))

    def test_rejects_missing_terminator(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(
            b"#ndtrace v1\n"
            b"ts=1.000000 dir=in src=10.0.0.5:5060 dst=10.0.0.9:5060 len=2\n"
            b"ab"  # EOF where the newline should be
        )
        with pytest.raises(TraceFormatError, match="record 1: missing payload term"):
            list(read_ndtrace(str(path)))

    def test_rejects_non_monotone_timestamps(self, tmp_path):
        records = [
            TraceRecord(1.0, "in", ("a", 1), ("b", 2), b"x"),
            TraceRecord(2.0, "in", ("a", 1), ("b", 2), b"y"),
            TraceRecord(1.5, "in", ("a", 1), ("b", 2), b"z"),
        ]
        path = str(tmp_path / "t.ndtrace")
        write_trace(records, path)
        with pytest.raises(TraceFormatError, match="record 3"):
            list(read_ndtrace(path))

    def test_rejects_unreadable_timestamp(self, tmp_path):
        # the metadata pattern admits "1.2.3"; float() does not
        path = tmp_path / "bad"
        path.write_bytes(
            b"#ndtrace v1\n"
            b"ts=1.000000 dir=in src=10.0.0.5:5060 dst=10.0.0.9:5060 len=1\nx\n"
            b"ts=1.2.3 dir=in src=10.0.0.5:5060 dst=10.0.0.9:5060 len=1\ny\n"
        )
        with pytest.raises(TraceFormatError, match="record 2: unreadable timestamp"):
            list(read_ndtrace(str(path)))

    @pytest.mark.parametrize(
        "src, dst, length, error",
        [
            ("a:99999", "b:5060", "1", "port 99999 out of range"),
            ("a:5060", "b:65536", "1", "port 65536 out of range"),
            # too many digits for any port or length: int() would raise a
            # bare ValueError past Python's digit limit (4,300 digits)
            ("a:99999999999", "b:5060", "1", "bad metadata line"),
            ("a:5060", "b:" + "9" * 5000, "1", "bad metadata line"),
            ("a:5060", "b:5060", "9" * 5000, "bad metadata line"),
        ],
    )
    def test_rejects_port_out_of_range(self, tmp_path, src, dst, length, error):
        path = tmp_path / "bad"
        path.write_bytes(
            b"#ndtrace v1\n"
            + f"ts=1.000000 dir=in src={src} dst={dst} len={length}\nx\n".encode()
        )
        with pytest.raises(TraceFormatError, match=f"record 1: {error}"):
            list(read_ndtrace(str(path)))

    def test_accepts_the_port_bounds(self, tmp_path):
        rec = TraceRecord(0.5, "in", ("a", 0), ("b", 65535), b"p")
        path = str(tmp_path / "t.ndtrace")
        write_trace([rec], path)
        assert list(read_ndtrace(path)) == [rec]

    def test_records_are_immutable(self):
        rec = TraceRecord(0.5, "in", ("a", 1), ("b", 2), b"p")
        with pytest.raises(AttributeError):
            rec.ts = 1.0

    def test_ipv6_style_hosts_survive(self, tmp_path):
        # host part is everything before the last colon
        rec = TraceRecord(0.5, "out", ("2001:db8::1", 5060), ("2001:db8::2", 6000), b"p")
        path = str(tmp_path / "t.ndtrace")
        write_trace([rec], path)
        assert list(read_ndtrace(path)) == [rec]


# ----------------------------------------------------------------------
# pcap reading
# ----------------------------------------------------------------------


def pcap_bytes(packets, *, endian="<", ns=False, linktype=1) -> bytes:
    magic = 0xA1B23C4D if ns else 0xA1B2C3D4
    out = struct.pack(endian + "IHHiIII", magic, 2, 4, 0, 0, 65535, linktype)
    for ts_sec, ts_frac, data in packets:
        out += struct.pack(endian + "IIII", ts_sec, ts_frac, len(data), len(data))
        out += data
    return out


def udp_packet(
    src_ip: str,
    sport: int,
    dst_ip: str,
    dport: int,
    payload: bytes,
    *,
    vlan: bool = False,
    proto: int = 17,
    frag: int = 0,
    linktype: int = 1,
) -> bytes:
    udp = struct.pack(">HHHH", sport, dport, 8 + len(payload), 0) + payload
    ip = (
        struct.pack(
            ">BBHHHBBH",
            0x45, 0, 20 + len(udp), 0, frag, 64, proto, 0,
        )
        + socket.inet_aton(src_ip)
        + socket.inet_aton(dst_ip)
        + udp
    )
    if linktype == 101:
        return ip
    eth = b"\x02" * 6 + b"\x04" * 6
    if vlan:
        eth += struct.pack(">HH", 0x8100, 0)
    return eth + struct.pack(">H", 0x0800) + ip


class TestPcap:
    def test_reads_basic_capture(self, tmp_path):
        pkts = [
            (10, 500000, udp_packet("198.51.100.10", 4000, "192.0.2.20", 5060, INVITE)),
            (11, 250000, udp_packet("192.0.2.20", 5060, "198.51.100.10", 4000, b"resp")),
        ]
        path = tmp_path / "c.pcap"
        path.write_bytes(pcap_bytes(pkts))
        got = list(read_pcap(str(path)))
        assert len(got) == 2
        assert got[0].ts == pytest.approx(10.5)
        assert got[0].direction == "in"  # destination port matches
        assert got[0].src == ("198.51.100.10", 4000)
        assert got[0].dst == ("192.0.2.20", 5060)
        assert got[0].payload == INVITE
        assert got[1].direction == "out"
        assert got[1].payload == b"resp"

    def test_nanosecond_magic(self, tmp_path):
        pkts = [(5, 123456789, udp_packet("1.2.3.4", 9, "5.6.7.8", 5060, b"x"))]
        path = tmp_path / "c.pcap"
        path.write_bytes(pcap_bytes(pkts, ns=True))
        (rec,) = read_pcap(str(path))
        assert rec.ts == pytest.approx(5.123456789)

    def test_big_endian(self, tmp_path):
        pkts = [(7, 1, udp_packet("1.2.3.4", 9, "5.6.7.8", 5060, b"x"))]
        path = tmp_path / "c.pcap"
        path.write_bytes(pcap_bytes(pkts, endian=">"))
        (rec,) = read_pcap(str(path))
        assert rec.ts == pytest.approx(7.000001)

    def test_raw_linktype(self, tmp_path):
        pkt = udp_packet("1.2.3.4", 9, "5.6.7.8", 5060, b"x", linktype=101)
        path = tmp_path / "c.pcap"
        path.write_bytes(pcap_bytes([(1, 0, pkt)], linktype=101))
        (rec,) = read_pcap(str(path))
        assert rec.payload == b"x"

    def test_vlan_tag(self, tmp_path):
        pkt = udp_packet("1.2.3.4", 9, "5.6.7.8", 5060, b"x", vlan=True)
        path = tmp_path / "c.pcap"
        path.write_bytes(pcap_bytes([(1, 0, pkt)]))
        (rec,) = read_pcap(str(path))
        assert rec.payload == b"x"

    def test_skips_unrelated_traffic(self, tmp_path):
        pkts = [
            # TCP, fragmented, off-port, and empty payloads all skipped
            (1, 0, udp_packet("1.2.3.4", 9, "5.6.7.8", 5060, b"tcp", proto=6)),
            (2, 0, udp_packet("1.2.3.4", 9, "5.6.7.8", 5060, b"frag", frag=0x2000)),
            (3, 0, udp_packet("1.2.3.4", 9, "5.6.7.8", 9999, b"other")),
            (4, 0, udp_packet("1.2.3.4", 9, "5.6.7.8", 5060, b"")),
            (5, 0, udp_packet("1.2.3.4", 9, "5.6.7.8", 5060, b"keep")),
        ]
        path = tmp_path / "c.pcap"
        path.write_bytes(pcap_bytes(pkts))
        got = list(read_pcap(str(path)))
        assert [r.payload for r in got] == [b"keep"]

    def test_custom_port_filter(self, tmp_path):
        pkts = [(1, 0, udp_packet("1.2.3.4", 9, "5.6.7.8", 5080, b"x"))]
        path = tmp_path / "c.pcap"
        path.write_bytes(pcap_bytes(pkts))
        assert list(read_pcap(str(path), port=5060)) == []
        assert len(list(read_pcap(str(path), port=5080))) == 1

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "c.pcap"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(TraceFormatError, match="not a pcap"):
            list(read_pcap(str(path)))

    def test_rejects_short_global_header(self, tmp_path):
        path = tmp_path / "c.pcap"
        path.write_bytes(b"\xd4\xc3\xb2\xa1")
        with pytest.raises(TraceFormatError, match="truncated pcap global header"):
            list(read_pcap(str(path)))

    def test_rejects_unsupported_linktype(self, tmp_path):
        path = tmp_path / "c.pcap"
        path.write_bytes(pcap_bytes([], linktype=113))
        with pytest.raises(TraceFormatError, match="unsupported linktype"):
            list(read_pcap(str(path)))

    def test_rejects_truncated_packet(self, tmp_path):
        pkt = udp_packet("1.2.3.4", 9, "5.6.7.8", 5060, b"x")
        blob = pcap_bytes([(1, 0, pkt)])
        path = tmp_path / "c.pcap"
        path.write_bytes(blob[:-3])
        with pytest.raises(TraceFormatError, match="record 1: truncated packet"):
            list(read_pcap(str(path)))

    def test_rejects_non_monotone(self, tmp_path):
        pkts = [
            (5, 0, udp_packet("1.2.3.4", 9, "5.6.7.8", 5060, b"a")),
            (4, 0, udp_packet("1.2.3.4", 9, "5.6.7.8", 5060, b"b")),
        ]
        path = tmp_path / "c.pcap"
        path.write_bytes(pcap_bytes(pkts))
        with pytest.raises(TraceFormatError, match="record 2: timestamp"):
            list(read_pcap(str(path)))


# ----------------------------------------------------------------------
# replay pacing
# ----------------------------------------------------------------------


class TestReplay:
    def test_fast_uses_trace_timestamps(self):
        records = gen_clean_calls(calls=5, seed=2, start=1000.0)
        engine = empty_engine()
        t0 = time.perf_counter()
        report = replay(records, engine, pacing="fast")
        wall = time.perf_counter() - t0
        assert wall < 1.0  # no sleeping on a 10 second trace span
        assert engine._clock == records[-1].ts
        assert report.messages == 30
        assert report.forwarded == 30
        assert report.dropped == report.malformed == 0
        assert report.offered_rate is None

    def test_fixed_rate_pacing(self):
        records = gen_invite_flood(count=50, rate=1.0, seed=3)
        engine = empty_engine()
        report = replay(records, engine, pacing="fixed", rate=200.0)
        # 50 messages at 200/s is a quarter second of wall time, and the
        # engine clock follows the release schedule, not the trace
        assert 0.2 <= report.wall_seconds <= 0.8
        assert engine._clock == pytest.approx(49 / 200.0)
        assert report.offered_rate == 200.0
        assert report.achieved_rate == pytest.approx(200.0, rel=0.35)

    def test_timed_pacing_honors_gaps(self):
        records = [
            TraceRecord(0.0, "in", ("a", 1), ("b", 5060), INVITE),
            TraceRecord(0.15, "in", ("a", 1), ("b", 5060), INVITE),
            TraceRecord(0.3, "in", ("a", 1), ("b", 5060), INVITE),
        ]
        report = replay(records, empty_engine(), pacing="timed")
        assert report.wall_seconds >= 0.28

    def test_bad_pacing_arguments(self):
        with pytest.raises(ValueError, match="unknown pacing"):
            replay([], empty_engine(), pacing="warp")
        with pytest.raises(ValueError, match="positive rate"):
            replay([], empty_engine(), pacing="fixed")

    def test_malformed_counted_separately(self):
        records = [
            TraceRecord(0.0, "in", ("a", 1), ("b", 5060), INVITE),
            TraceRecord(0.1, "in", ("a", 1), ("b", 5060), b"garbage\r\n\r\n"),
        ]
        engine = empty_engine()
        report = replay(records, engine, pacing="fast")
        assert report.messages == 2
        assert report.forwarded == 1
        assert report.malformed == 1
        assert report.dropped == 0
        assert engine.stats.malformed == 1
