from __future__ import annotations

import textwrap

import pytest

from sipwall.parser import FIELD_CATALOG, SipParser


def sipmsg(text: str, body: bytes = b"") -> bytes:
    """Dedent a header block, convert to CRLF, append the body."""
    head = textwrap.dedent(text).strip("\n").replace("\n", "\r\n").encode("utf-8")
    return head + b"\r\n\r\n" + body


@pytest.fixture
def full_parser() -> SipParser:
    """Parser for every catalog field."""
    return SipParser(FIELD_CATALOG)
