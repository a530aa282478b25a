"""Seeded benchmark traffic with a ground-truth verdict for every message.

Each writer streams its records into an ndtrace file and returns the
expected outcome of every record, in file order, as a :class:`Truth`.
The expected outcomes come from the protocol, not from sipwall:

* calls traffic: every message of a legitimate call is forwarded
  (RFC 3261), whichever side sends it; a BYE forged by a third party is
  dropped.
* floods: the ``invite_flood`` ruleset's global leaky counter is
  recomputed here from its closed form; the synthetic 256-rule set never
  drops.

The same seed always writes byte-identical files.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

from sipwall.gen import (
    ATTACKER_HOST,
    CALLEE_HOST,
    CALLER_HOST,
    SIP_PORT,
    build_request,
    build_response,
    gen_invite_flood,
)
from sipwall.trace import TraceRecord, write_trace

FORWARD, DROP = 0, 1

# message classes recorded next to the expected outcome
PLAIN, FORGED_BYE, CALLEE_BYE = 0, 1, 2

_CALLER = (CALLER_HOST, SIP_PORT)
_CALLEE = (CALLEE_HOST, SIP_PORT)
_ATTACKER = (ATTACKER_HOST, SIP_PORT)

# The call mix, call rate and talk time below are chosen, not measured
# from real traffic; each is picked for the paths it exercises.
#
# Call mix per block of eight calls, shuffled by the seed: four hung up by
# the caller (the plain path), two with a forged BYE before the caller's
# own (so bye_attack's drop rule fires in every block), two hung up by the
# callee (so the dialog-identity defect shows at a fixed share, 4% of
# messages).  Messages per block: 4*6 + 2*7 + 2*6 = 50.
CALL_BLOCK = ("caller",) * 4 + ("forged",) * 2 + ("callee",) * 2
MSGS_PER_BLOCK = 50
# Trace seconds between call starts (50 calls/s): a round of 16,000
# messages spans about 51 trace seconds, longer than the default 32 s
# transaction lifetime, so sweeps remove transactions within a round
# while dialog state (1800 s lifetime) only grows.
CALL_SPACING = 0.02
# Trace seconds from ACK to hang-up, uniform: the range spans the 32 s
# transaction lifetime, so some BYEs come after their call's INVITE
# transaction has been swept and some before.
TALK_RANGE = (5.0, 60.0)

FLOOD_CHUNK = 2000  # flood messages generated at a time

# invite_flood.rules: counter[10;60] incremented per INVITE, drop when > 15
FLOOD_LEAK, FLOOD_INTERVAL, FLOOD_LIMIT = 10, 60.0, 15


@dataclass
class Truth:
    expected: bytearray  # FORWARD / DROP per message, file order
    kinds: bytearray  # PLAIN / FORGED_BYE / CALLEE_BYE per message

    def __len__(self) -> int:
        return len(self.expected)


def _q(ts: float) -> float:
    return float(f"{ts:.6f}")


def _call_records(rng: random.Random, index: int, kind: str, start: float):
    """(ts, dir, src, dst, expected outcome, class, payload) tuples for one call."""
    call_id = f"{rng.getrandbits(48):012x}@{CALLER_HOST}"
    ftag = f"{rng.getrandbits(32):08x}"
    ttag = f"{rng.getrandbits(32):08x}"
    branches = [f"z9hG4bK{rng.getrandbits(48):012x}" for _ in range(4)]
    caller_uri = f"sip:alice{index}@client.example"
    callee_uri = f"sip:bob{index}@gw.example"
    caller_contact = f"sip:alice{index}@{CALLER_HOST}"
    callee_contact = f"sip:bob{index}@{CALLEE_HOST}"
    caller = f"<{caller_uri}>;tag={ftag}"
    callee_bare = f"<{callee_uri}>"
    callee = f"<{callee_uri}>;tag={ttag}"

    def via(i: int, host: str = CALLER_HOST) -> str:
        return f"SIP/2.0/UDP {host}:{SIP_PORT};branch={branches[i]}"

    t_ring = start + rng.uniform(0.05, 0.3)
    t_ok = t_ring + rng.uniform(0.5, 3.0)
    t_ack = t_ok + 0.05
    t_bye = t_ack + rng.uniform(*TALK_RANGE)
    common = dict(call_id=call_id)
    invite_tx = dict(via=via(0), from_=caller, cseq="1 INVITE", **common)
    out = [
        (start, "in", _CALLER, _CALLEE, FORWARD, PLAIN,
         build_request("INVITE", callee_uri, to=callee_bare,
                       contact=f"<{caller_contact}>", **invite_tx)),
        (t_ring, "out", _CALLEE, _CALLER, FORWARD, PLAIN,
         build_response(180, "Ringing", to=callee, **invite_tx)),
        (t_ok, "out", _CALLEE, _CALLER, FORWARD, PLAIN,
         build_response(200, "OK", to=callee, contact=f"<{callee_contact}>", **invite_tx)),
        (t_ack, "in", _CALLER, _CALLEE, FORWARD, PLAIN,
         build_request("ACK", callee_contact, via=via(1), from_=caller, to=callee,
                       cseq="1 ACK", **common)),
    ]
    if kind == "forged":
        out.append(
            (t_bye - 0.4, "in", _ATTACKER, _CALLEE, DROP, FORGED_BYE,
             build_request("BYE", callee_contact, via=via(2, ATTACKER_HOST),
                           from_=f"<sip:intruder{index}@attack.example>;tag={ftag}",
                           to=callee, cseq="2 BYE", **common)))
    if kind == "callee":
        # RFC 3261 section 15.1: the callee sends its own BYE, so its
        # From carries the to-tag and its To the caller's from-tag
        bye = dict(via=via(3, CALLEE_HOST), from_=callee, to=caller, cseq="1 BYE", **common)
        out.append((t_bye, "out", _CALLEE, _CALLER, FORWARD, CALLEE_BYE,
                    build_request("BYE", caller_contact, **bye)))
        out.append((t_bye + 0.05, "in", _CALLER, _CALLEE, FORWARD, PLAIN,
                    build_response(200, "OK", **bye)))
    else:
        bye = dict(via=via(3), from_=caller, to=callee, cseq="2 BYE", **common)
        out.append((t_bye, "in", _CALLER, _CALLEE, FORWARD, PLAIN,
                    build_request("BYE", callee_contact, **bye)))
        out.append((t_bye + 0.05, "out", _CALLEE, _CALLER, FORWARD, PLAIN,
                    build_response(200, "OK", **bye)))
    return [(_q(ts), *rest) for ts, *rest in out]


def write_calls(path: str, blocks: int, seed: int) -> Truth:
    """Overlapping calls (50 per trace second), merged in time order.

    The file holds ``blocks * MSGS_PER_BLOCK`` messages; 4% of them are
    callee-initiated BYEs and 4% forged BYEs.
    """
    rng = random.Random(seed)
    truth = Truth(bytearray(), bytearray())
    pending: list = []  # heap of (ts, seq, record tuple)
    seq = 0

    def records():
        nonlocal seq
        index = 0
        for _ in range(blocks):
            kinds = list(CALL_BLOCK)
            rng.shuffle(kinds)
            for kind in kinds:
                start = _q(index * CALL_SPACING)
                # every pending record earlier than this call's INVITE is final
                while pending and pending[0][0] < start:
                    yield heapq.heappop(pending)[2]
                for item in _call_records(rng, index, kind, start):
                    heapq.heappush(pending, (item[0], seq, item))
                    seq += 1
                index += 1
        while pending:
            yield heapq.heappop(pending)[2]

    def framed():
        for ts, direction, src, dst, expected, kind, payload in records():
            truth.expected.append(expected)
            truth.kinds.append(kind)
            yield TraceRecord(ts, direction, src, dst, payload)

    write_trace(framed(), path)
    return truth


def _flood_chunks(count: int, rate: float, seed: int):
    """gen_invite_flood in chunks of FLOOD_CHUNK, so the whole flood never
    sits in memory; chunk j has its own derived seed."""
    for j, first in enumerate(range(0, count, FLOOD_CHUNK)):
        n = min(FLOOD_CHUNK, count - first)
        yield from gen_invite_flood(
            count=n, rate=rate, seed=seed * 1_000_003 + j, start=first / rate
        )


def write_flood(path: str, count: int, rate: float, seed: int, *, limited: bool) -> Truth:
    """Unique-dialog INVITE flood at ``rate`` messages per trace second.

    With ``limited`` the expected outcome follows the invite_flood
    leaky counter; otherwise every INVITE is expected to be forwarded.
    """
    truth = Truth(bytearray(), bytearray(count))
    raw, anchor = 0, None

    def framed():
        nonlocal raw, anchor
        for rec in _flood_chunks(count, rate, seed):
            expected = FORWARD
            if limited:
                if anchor is None:
                    anchor = rec.ts
                k = int((rec.ts - anchor) // FLOOD_INTERVAL)
                if k > 0:
                    raw = max(0, raw - FLOOD_LEAK * k)
                    anchor += k * FLOOD_INTERVAL
                raw += 1
                expected = DROP if raw > FLOOD_LIMIT else FORWARD
            truth.expected.append(expected)
            yield rec

    write_trace(framed(), path)
    return truth
