"""The one-pass header scan against the line walker it replaced.

``walker_reference.WalkerParser`` is the previous scanner.  Both parse
the same corpora: the c8 mutants, and messages whose header section is
salted with CR, LF, tabs, colons, vertical tabs, form feeds, folds and
compact or oddly cased names.  Every tree (offsets, values, children),
every MalformedMessage and every ``parse_events`` step must agree, with
and without ``@normalize`` caps and with only some families registered.
The scan stops once every planned family has been seen, so the
configurations include planned families after unplanned ones, repeats
after every planned family, a body field and no header family at all.
"""

from __future__ import annotations

import random

import pytest

from sipwall.gen import gen_bye_attack
from sipwall.parser import FIELD_CATALOG, MalformedMessage, SipParser

from test_acceptance import mutate
from walker_reference import WalkerParser

SEEDS = [rec.payload for rec in gen_bye_attack(calls=1, seed=1)] + [
    b"INVITE sip:x@y SIP/2.0\r\n"
    b"v: SIP/2.0/UDP 10.0.0.5:5060;branch=z9hG4bKc1\r\n"
    b"f: <sip:a@b>;tag=1\r\n"
    b"t: <sip:x@y>\r\n"
    b"i: fold@x\r\n"
    b"m: <sip:a@10.0.0.5>\r\n"
    b"CSeq: 1 INVITE\r\n"
    b"Subject: line one\r\n\tline two\r\n"
    b"l: 4\r\n\r\nbody",
    # planned families repeated after the first of each has been seen
    b"BYE sip:x@y SIP/2.0\r\n"
    b"Via: SIP/2.0/UDP 10.0.0.5:5060;branch=z9hG4bKtop\r\n"
    b"Call-ID: top@x\r\n"
    b"From: <sip:a@b>;tag=top\r\n"
    b"CSeq: 2 BYE\r\n"
    b"X-Other: v\r\n"
    b"Via: SIP/2.0/UDP 10.0.0.6:5060;branch=z9hG4bKlower\r\n"
    b"f: <sip:late@b>;tag=late\r\n"
    b"i: late@x\r\n"
    b"CSeq: 3 INFO\r\n\r\nbody",
]

# what the whitespace corpus splices into a message
SALT = [b"\r", b"\n", b"\t", b" ", b":", b"\x0b", b"\x0c", b"\r\n", b"\r\n ", b"\r\n\t",
        b"\n\t", b"\r\r\n", b"\r\n\r\n", b"\n\n", b" :", b"; branch = b2", b";tag=t9"]
NAMES = [b"From", b"f", b"F", b"TO", b"t", b"call-ID", b"i", b"Via", b"V", b"cseq",
         b"Contact", b"m", b"M", b"Content-Length", b"l", b"user-agent", b"X-Other",
         b" from", b"\x0bvia", b"from\t", b"\rto"]

CONFIGS = {
    "all fields": (list(FIELD_CATALOG), {}),
    "all fields, capped": (list(FIELD_CATALOG), {
        "FIELDS:sip.from": 9, "FIELDS:sip.via": 14, "FIELDS:sip.call_id": 3,
        "FIELDS:sip.uri": 5, "FIELDS:sip.user_agent": 1, "FIELDS:sip.cseq.method": 2,
        "BODY:raw": 2,
    }),
    "some families": (["FIELDS:sip.from.tag", "FIELDS:sip.via.branch",
                       "FIELDS:sip.contact", "FIELDS:sip.method"], {}),
    "some families, capped": (["FIELDS:sip.to.tag", "FIELDS:sip.content_length",
                               "FIELDS:sip.from.addr", "FIELDS:sip.cseq"],
                              {"FIELDS:sip.to.tag": 2, "FIELDS:sip.cseq": 4}),
    "planned after unplanned": (["FIELDS:sip.content_length", "FIELDS:sip.user_agent"], {}),
    "repeated after all seen": (["FIELDS:sip.via.branch", "FIELDS:sip.call_id",
                                 "FIELDS:sip.from.tag", "FIELDS:sip.cseq.method"], {}),
    "body field": (["BODY:raw", "FIELDS:sip.via.branch"], {}),
    "start line only": (["FIELDS:sip.method", "FIELDS:sip.uri", "FIELDS:sip.status"], {}),
}


def build(cls, fields, caps):
    parser = cls()
    for key in fields:
        parser.register_field(key)
    for key, cap in caps.items():
        parser.set_normalize_cap(key, cap)
    parser.seal()
    return parser


def outcome(parser, raw):
    before = parser.parse_events
    try:
        tree = parser.parse_message(raw)
    except MalformedMessage as exc:
        tree = str(exc)
    return tree, parser.parse_events - before


def c8_mutants(rng: random.Random, n: int):
    for _ in range(n):
        raw = rng.choice(SEEDS)
        for _ in range(rng.randint(1, 4)):
            raw = mutate(rng, raw)
        yield raw


def salted(rng: random.Random, n: int):
    """Seeds with salt and header lines spliced in, mostly at line starts
    and around colons, so folds, blank lines and names meet the scanner."""
    for _ in range(n):
        data = bytearray(rng.choice(SEEDS))
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.4:
                piece = rng.choice(NAMES) + rng.choice((b":", b" :", b"\t:", b":\r\n ")) + b" v"
                piece = rng.choice((b"\r\n", b"\n", b"\r\n ")) + piece
            else:
                piece = rng.choice(SALT)
            anchors = [i + 1 for i, b in enumerate(data) if b in b"\n:"] or [0]
            at = rng.choice(anchors) if rng.random() < 0.7 else rng.randrange(len(data) + 1)
            data[at:at] = piece
        yield bytes(data)


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("corpus", ["c8 mutants", "salted"])
def test_one_pass_scan_matches_the_walker(config, corpus):
    fields, caps = CONFIGS[config]
    fast, slow = build(SipParser, fields, caps), build(WalkerParser, fields, caps)
    rng = random.Random(f"{corpus}/{config}")
    messages = c8_mutants(rng, 6000) if corpus == "c8 mutants" else salted(rng, 6000)
    parsed = 0
    for raw in messages:
        got, want = outcome(fast, raw), outcome(slow, raw)
        assert got == want, raw
        parsed += not isinstance(got[0], str)
    assert parsed > 1000
    headers = any(not FIELD_CATALOG[key][1].startswith("@") for key in fields)
    assert fast.parse_events == slow.parse_events
    assert (fast.parse_events > 0) == headers  # a start-line program scans nothing


def test_topmost_header_wins_after_every_family_is_seen():
    fields, _ = CONFIGS["repeated after all seen"]
    parser = build(SipParser, fields, {})
    tree, events = outcome(parser, SEEDS[-1])
    values = {key: tree.nodes[parser.field_id(key)].value for key in fields}
    assert values == {"FIELDS:sip.via.branch": "z9hG4bKtop", "FIELDS:sip.call_id": "top@x",
                      "FIELDS:sip.from.tag": "top", "FIELDS:sip.cseq.method": "BYE"}
    assert events == 4
