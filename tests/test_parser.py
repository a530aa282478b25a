from __future__ import annotations

import pytest

from sipwall.parser import (
    FIELD_CATALOG,
    FIELD_IDS,
    FieldPath,
    MalformedMessage,
    SipParser,
    UnknownFieldError,
    normalize_value,
)

from conftest import sipmsg

INVITE = sipmsg(
    """
    INVITE sip:bob@gw.example SIP/2.0
    Via: SIP/2.0/UDP 198.51.100.10:5060;branch=z9hG4bK776asdhds
    Max-Forwards: 70
    From: <sip:alice@client.example>;tag=1928301774
    To: <sip:bob@gw.example>
    Call-ID: a84b4c76e66710@client.example
    CSeq: 314159 INVITE
    Contact: <sip:alice@198.51.100.10>
    Content-Length: 0
    """
)

RINGING = sipmsg(
    """
    SIP/2.0 180 Ringing
    Via: SIP/2.0/UDP 198.51.100.10:5060;branch=z9hG4bK776asdhds
    From: <sip:alice@client.example>;tag=1928301774
    To: <sip:bob@gw.example>;tag=a6c85cf
    Call-ID: a84b4c76e66710@client.example
    CSeq: 314159 INVITE
    Content-Length: 0
    """
)


def value(parser, tree, path):
    node = tree.nodes.get(parser.field_id(path))
    return None if node is None else node.value


class TestStartLine:
    def test_request(self, full_parser):
        tree = full_parser.parse_message(INVITE)
        assert tree.message_kind == "request"
        assert tree.method == "INVITE"
        assert tree.status_code is None
        assert value(full_parser, tree, "FIELDS:sip.method") == "INVITE"
        assert value(full_parser, tree, "FIELDS:sip.uri") == "sip:bob@gw.example"

    def test_response(self, full_parser):
        tree = full_parser.parse_message(RINGING)
        assert tree.message_kind == "response"
        assert tree.method == ""
        assert tree.status_code == 180
        assert value(full_parser, tree, "FIELDS:sip.status") == "180"
        assert value(full_parser, tree, "FIELDS:sip.method") is None

    @pytest.mark.parametrize(
        "raw",
        [
            b"",
            b"\r\n",
            b"GARBAGE\r\n\r\n",
            b"GET / HTTP/1.1\r\n\r\n",
            b"SIP/2.0 999 Nope\r\n\r\n",  # out of the 100-699 range
            b"SIP/2.0 099 Low\r\n\r\n",
            b" INVITE sip:x SIP/2.0\r\n\r\n",
            b"INVITE sip:x\r\n\r\n",  # missing version
        ],
    )
    def test_malformed(self, full_parser, raw):
        with pytest.raises(MalformedMessage):
            full_parser.parse_message(raw)


class TestHeaderExtraction:
    def test_values(self, full_parser):
        tree = full_parser.parse_message(INVITE)
        assert value(full_parser, tree, "FIELDS:sip.from") == "<sip:alice@client.example>;tag=1928301774"
        assert value(full_parser, tree, "FIELDS:sip.from.tag") == "1928301774"
        assert value(full_parser, tree, "FIELDS:sip.from.addr") == "client.example"
        assert value(full_parser, tree, "FIELDS:sip.to") == "<sip:bob@gw.example>"
        assert value(full_parser, tree, "FIELDS:sip.to.tag") is None
        assert value(full_parser, tree, "FIELDS:sip.call_id") == "a84b4c76e66710@client.example"
        assert value(full_parser, tree, "FIELDS:sip.cseq") == "314159 INVITE"
        assert value(full_parser, tree, "FIELDS:sip.cseq.method") == "INVITE"
        assert value(full_parser, tree, "FIELDS:sip.via.branch") == "z9hG4bK776asdhds"
        assert value(full_parser, tree, "FIELDS:sip.content_length") == "0"

    def test_offset_fidelity(self, full_parser):
        tree = full_parser.parse_message(INVITE)
        for node in tree.nodes.values():
            assert 0 <= node.start <= node.end <= tree.raw_length
            sliced = INVITE[node.start : node.end].decode("utf-8", "replace").strip()
            assert sliced == node.value

    def test_children_nest(self, full_parser):
        tree = full_parser.parse_message(INVITE)
        from_node = tree.nodes.get(full_parser.field_id("FIELDS:sip.from"))
        assert from_node.children
        for child in from_node.children:
            assert from_node.start <= child.start <= child.end <= from_node.end

    def test_compact_names(self, full_parser):
        msg = sipmsg(
            """
            BYE sip:bob@gw.example SIP/2.0
            v: SIP/2.0/UDP 198.51.100.10;branch=z9hG4bKcompact
            f: <sip:alice@client.example>;tag=77
            t: <sip:bob@gw.example>;tag=88
            i: compact-call-id@client.example
            CSeq: 2 BYE
            Content-Length: 0
            """
        )
        tree = full_parser.parse_message(msg)
        assert value(full_parser, tree, "FIELDS:sip.from.tag") == "77"
        assert value(full_parser, tree, "FIELDS:sip.to.tag") == "88"
        assert value(full_parser, tree, "FIELDS:sip.call_id") == "compact-call-id@client.example"
        assert value(full_parser, tree, "FIELDS:sip.via.branch") == "z9hG4bKcompact"

    def test_compact_contact_and_content_length(self, full_parser):
        # RFC 3261 section 7.3.3: m is Contact, l is Content-Length
        msg = sipmsg(
            """
            INVITE sip:bob@gw.example SIP/2.0
            i: compact@client.example
            m: <sip:alice@198.51.100.10>
            L: 0
            """
        )
        tree = full_parser.parse_message(msg)
        assert value(full_parser, tree, "FIELDS:sip.contact") == "<sip:alice@198.51.100.10>"
        assert value(full_parser, tree, "FIELDS:sip.content_length") == "0"

    def test_names_are_stripped_and_caseless(self, full_parser):
        raw = (
            b"INVITE sip:bob@gw.example SIP/2.0\r\n"
            b"\x0bcALL-iD \t: odd@client.example\r\n"
            b"\tnot a header: x\r\n"  # a continuation line never starts a header
            b"Max-Forwards\r\n"  # no colon: ends the header above
            b"\tTo: <sip:late@gw.example>\r\n"
            b"To:\r\n"
            b"\r\n"
        )
        tree = full_parser.parse_message(raw)
        assert value(full_parser, tree, "FIELDS:sip.call_id") == "odd@client.example\r\n\tnot a header: x"
        node = tree.nodes.get(full_parser.field_id("FIELDS:sip.to"))
        # a blank value is empty and sits before its line's CR
        assert node.value == "" and node.start == node.end == raw.index(b"To:\r\n") + 3

    def test_folded_header(self, full_parser):
        raw = (
            b"INVITE sip:bob@gw.example SIP/2.0\r\n"
            b"Subject: I know you're in there,\r\n"
            b"\tpick up the phone!\r\n"
            b"From: <sip:alice@client.example>\r\n"
            b"\t;tag=folded1\r\n"
            b"Call-ID: fold@client.example\r\n"
            b"CSeq: 1 INVITE\r\n"
            b"\r\n"
        )
        tree = full_parser.parse_message(raw)
        from_node = tree.nodes.get(full_parser.field_id("FIELDS:sip.from"))
        # interior fold bytes survive inside the span; ends are trimmed
        assert raw[from_node.start : from_node.end].decode().strip() == from_node.value
        assert "<sip:alice@client.example>" in from_node.value
        assert value(full_parser, tree, "FIELDS:sip.from.tag") == "folded1"

    def test_tag_after_folded_semicolon(self, full_parser):
        # SEMI allows a fold between ";" and the parameter name, so both
        # forms key the same dialog
        def key(from_value: bytes):
            return full_parser.extract_dialog_key(full_parser.parse_message(
                b"INVITE sip:bob@gw.example SIP/2.0\r\n"
                b"From: " + from_value + b"\r\n"
                b"To: <sip:b@h> ; tag = y2\r\n"
                b"Call-ID: c@x\r\n"
                b"CSeq: 1 INVITE\r\n"
                b"\r\n"
            ))
        assert key(b"<sip:a@b>;\r\n tag=x1") == ("c@x", "x1", "y2")
        assert key(b"<sip:a@b>;\r\n\ttag\r\n =\r\n x1") == ("c@x", "x1", "y2")
        assert key(b"<sip:a@b>;tag=x1") == ("c@x", "x1", "y2")

    def test_topmost_via_wins(self, full_parser):
        msg = sipmsg(
            """
            INVITE sip:bob@gw.example SIP/2.0
            Via: SIP/2.0/UDP hop2.example;branch=z9hG4bKtop
            Via: SIP/2.0/UDP hop1.example;branch=z9hG4bKbottom
            From: <sip:alice@client.example>;tag=1
            Call-ID: vias@client.example
            CSeq: 1 INVITE
            """
        )
        tree = full_parser.parse_message(msg)
        assert value(full_parser, tree, "FIELDS:sip.via.branch") == "z9hG4bKtop"

    @pytest.mark.parametrize(
        "from_value,host",
        [
            ("<sip:alice@a.example>;tag=x", "a.example"),
            ("sip:alice@a.example;tag=x", "a.example"),
            ('"Al Ice" <sips:alice@a.example:5071>;tag=x', "a.example"),
            ("<sip:a.example>", "a.example"),
            ("<sip:alice@[2001:db8::1]:5060>;tag=x", "[2001:db8::1]"),
            ("<sip:user:pw@h.example>", "h.example"),
        ],
    )
    def test_from_addr_host(self, full_parser, from_value, host):
        msg = sipmsg(
            f"""
            INVITE sip:bob@gw.example SIP/2.0
            From: {from_value}
            Call-ID: hosts@client.example
            CSeq: 1 INVITE
            """
        )
        tree = full_parser.parse_message(msg)
        assert value(full_parser, tree, "FIELDS:sip.from.addr") == host

    def test_idempotent(self, full_parser):
        assert full_parser.parse_message(INVITE) == full_parser.parse_message(INVITE)

    def test_body(self, full_parser):
        body = b"v=0\r\no=alice 2890844526 2890844526 IN IP4 client.example\r\n"
        msg = sipmsg(
            """
            INVITE sip:bob@gw.example SIP/2.0
            From: <sip:alice@client.example>;tag=1
            Call-ID: body@client.example
            CSeq: 1 INVITE
            Content-Type: application/sdp
            """,
            body,
        )
        tree = full_parser.parse_message(msg)
        node = tree.nodes.get(full_parser.field_id("BODY:raw"))
        assert node.value == body.decode().strip()
        assert value(full_parser, full_parser.parse_message(INVITE), "BODY:raw") is None


class TestLaziness:
    def test_unregistered_headers_cost_nothing(self):
        parser = SipParser(["FIELDS:sip.method"])
        before = parser.parse_events
        parser.parse_message(INVITE)
        assert parser.parse_events == before  # start line is not a header event

    def test_events_track_registered_families_only(self):
        parser = SipParser(["FIELDS:sip.from.tag", "FIELDS:sip.call_id"])
        before = parser.parse_events
        parser.parse_message(INVITE)
        assert parser.parse_events - before == 2

    def test_extra_junk_headers_add_no_events(self):
        parser = SipParser(["FIELDS:sip.call_id"])
        small = sipmsg(
            """
            OPTIONS sip:gw.example SIP/2.0
            Call-ID: j@x
            CSeq: 1 OPTIONS
            """
        )
        noisy = sipmsg(
            """
            OPTIONS sip:gw.example SIP/2.0
            Call-ID: j@x
            CSeq: 1 OPTIONS
            X-Noise-1: aaaa
            X-Noise-2: bbbb
            X-Noise-3: cccc
            X-Noise-4: dddd
            X-Noise-5: eeee
            """
        )
        parser.parse_message(small)
        base = parser.parse_events
        parser.parse_message(small)
        cost_small = parser.parse_events - base
        base = parser.parse_events
        parser.parse_message(noisy)
        cost_noisy = parser.parse_events - base
        assert cost_small == cost_noisy == 1

    def test_unregistered_fields_absent_from_tree(self):
        parser = SipParser(["FIELDS:sip.method"])
        tree = parser.parse_message(INVITE)
        assert set(tree.nodes) == {FIELD_IDS["FIELDS:sip.method"]}
        assert parser.field_id("FIELDS:sip.method") == FIELD_IDS["FIELDS:sip.method"]
        assert parser.field_id("FIELDS:sip.uri") is None


class TestRegistry:
    def test_unknown_field_rejected(self):
        with pytest.raises(UnknownFieldError):
            SipParser(["FIELDS:sip.nonexistent"])
        with pytest.raises(UnknownFieldError):
            SipParser(["WEIRD:sip.method"])

    def test_message_headers_alias(self):
        path = FieldPath.parse("MESSAGE_HEADERS:sip.from")
        assert path.key() == "FIELDS:sip.from"

    def test_catalog_paths_all_register(self):
        parser = SipParser(reversed(FIELD_CATALOG))
        assert sorted(FIELD_IDS.values()) == list(range(1, len(FIELD_CATALOG) + 1))
        assert all(parser.field_id(key) == fid for key, fid in FIELD_IDS.items())
        via = FieldPath.parse("MESSAGE_HEADERS:sip.via")
        assert parser.field_id(via) == FIELD_IDS["FIELDS:sip.via"]


class TestNormalize:
    def test_short_value_untouched(self):
        assert normalize_value("abc", 1024) == "abc"
        assert normalize_value("", 1) == ""

    def test_cap_applies(self):
        assert normalize_value("a" * 1500, 1024) == "a" * 1024

    def test_never_splits_multibyte(self):
        text = "é" * 600  # 2 bytes each
        capped = normalize_value(text, 1024)
        assert capped == "é" * 512
        capped = normalize_value(text, 1023)
        assert capped == "é" * 511

    def test_never_splits_crlf(self):
        text = "a" * 7 + "\r\n" + "b" * 10
        capped = normalize_value(text, 8)
        assert capped == "a" * 7  # the \r of a CRLF pair is not kept alone

    def test_constructor_rejects_bad_caps(self):
        with pytest.raises(ValueError):
            SipParser(["FIELDS:sip.uri"], {"FIELDS:sip.uri": 0})
        with pytest.raises(UnknownFieldError):
            SipParser(["FIELDS:sip.uri"], {"FIELDS:sip.nonexistent": 4})

    def test_parser_cap_keeps_fidelity(self):
        parser = SipParser(["FIELDS:sip.uri"], {"FIELDS:sip.uri": 12})
        msg = sipmsg(
            """
            INVITE sip:a-very-long-target-name@gw.example SIP/2.0
            Call-ID: cap@x
            CSeq: 1 INVITE
            """
        )
        tree = parser.parse_message(msg)
        node = tree.nodes.get(parser.field_id("FIELDS:sip.uri"))
        assert len(node.value.encode()) <= 12
        assert msg[node.start : node.end].decode("utf-8", "replace").strip() == node.value


class TestKeys:
    def test_dialog_key_request(self, full_parser):
        tree = full_parser.parse_message(INVITE)
        key = full_parser.extract_dialog_key(tree)
        assert key == ("a84b4c76e66710@client.example", "1928301774", "")

    def test_dialog_key_response(self, full_parser):
        tree = full_parser.parse_message(RINGING)
        key = full_parser.extract_dialog_key(tree)
        assert key == ("a84b4c76e66710@client.example", "1928301774", "a6c85cf")

    def test_dialog_key_missing_call_id(self, full_parser):
        msg = sipmsg(
            """
            INVITE sip:bob@gw.example SIP/2.0
            From: <sip:alice@client.example>;tag=1
            CSeq: 1 INVITE
            """
        )
        assert full_parser.extract_dialog_key(full_parser.parse_message(msg)) is None

    def test_transaction_key(self, full_parser):
        tree = full_parser.parse_message(INVITE)
        key = full_parser.extract_transaction_key(tree)
        assert key == ("z9hG4bK776asdhds", "INVITE")

    def test_branch_lookalike_parameter_is_no_branch(self, full_parser):
        msg = sipmsg(
            """
            OPTIONS sip:bob@gw.example SIP/2.0
            Via: SIP/2.0/UDP 10.0.0.1;xbranch=forged;branch=z9hG4bKreal
            From: <sip:alice@client.example>;tag=1
            Call-ID: spoof@x
            CSeq: 1 OPTIONS
            """
        )
        tree = full_parser.parse_message(msg)
        assert full_parser.extract_transaction_key(tree) == ("z9hG4bKreal", "OPTIONS")
        only_lookalike = msg.replace(b";branch=z9hG4bKreal", b"")
        assert full_parser.extract_transaction_key(full_parser.parse_message(only_lookalike)) is None
        folded = msg.replace(b";branch=", b";\r\n BRANCH = ")
        assert value(full_parser, full_parser.parse_message(folded), "FIELDS:sip.via.branch") == "z9hG4bKreal"

    def test_transaction_key_missing_branch(self, full_parser):
        msg = sipmsg(
            """
            INVITE sip:bob@gw.example SIP/2.0
            Via: SIP/2.0/UDP host.example
            From: <sip:alice@client.example>;tag=1
            Call-ID: nobranch@x
            CSeq: 1 INVITE
            """
        )
        assert full_parser.extract_transaction_key(full_parser.parse_message(msg)) is None

    def test_keys_read_another_parsers_tree(self, full_parser):
        # nodes are keyed by catalog id, so any parser keys any parser's tree
        keys_only = SipParser(["FIELDS:sip.cseq.method", "FIELDS:sip.to.tag",
                               "FIELDS:sip.via.branch", "FIELDS:sip.from.tag",
                               "FIELDS:sip.call_id"])
        start_only = SipParser(["FIELDS:sip.method"])
        for msg in (INVITE, RINGING):
            for tree in (full_parser.parse_message(msg), keys_only.parse_message(msg)):
                dialog = full_parser.extract_dialog_key(tree)
                transaction = full_parser.extract_transaction_key(tree)
                assert dialog is not None and transaction is not None
                for parser in (keys_only, start_only):
                    assert parser.extract_dialog_key(tree) == dialog
                    assert parser.extract_transaction_key(tree) == transaction
            assert full_parser.extract_dialog_key(start_only.parse_message(msg)) is None
