"""SIP message parsing with lazy field extraction.

Messages are parsed against a fixed catalog of addressable fields
(``FIELDS:sip.from``, ``FIELDS:sip.via.branch``, ``BODY:raw``, ...).
Only fields registered ahead of time are materialized; headers nobody
asked for are identified by name and skipped without value parsing.
Every extracted node carries byte offsets into the original datagram so
the raw slice can always be recovered from the parse tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = [
    "MalformedMessage",
    "UnknownFieldError",
    "FieldPath",
    "ParseNode",
    "ParseTree",
    "SipParser",
    "normalize_value",
    "FIELD_CATALOG",
]


class MalformedMessage(Exception):
    """Raised when the start line cannot be read as a SIP request or response."""


class UnknownFieldError(Exception):
    """Raised when a field path is not part of the catalog."""


_IDENT_RE = re.compile(r"^[a-z_][a-z0-9_]*$")

# Catalog of addressable fields: path -> (value type, header family, sub-part).
# Families starting with "@" are not header names: "@start" comes from the
# start line, "@body" from the message body, "@pseudo" is supplied by the
# engine (never parsed out of the datagram).
FIELD_CATALOG: dict[str, tuple[str, str, str]] = {
    "FIELDS:sip.method": ("token", "@start", "method"),
    "FIELDS:sip.uri": ("uri", "@start", "uri"),
    "FIELDS:sip.status": ("numeric", "@start", "status"),
    "FIELDS:sip.from": ("address", "from", ""),
    "FIELDS:sip.from.addr": ("address", "from", "addr"),
    "FIELDS:sip.from.tag": ("token", "from", "tag"),
    "FIELDS:sip.to": ("address", "to", ""),
    "FIELDS:sip.to.addr": ("address", "to", "addr"),
    "FIELDS:sip.to.tag": ("token", "to", "tag"),
    "FIELDS:sip.call_id": ("text", "call-id", ""),
    "FIELDS:sip.cseq": ("text", "cseq", ""),
    "FIELDS:sip.cseq.method": ("token", "cseq", "method"),
    "FIELDS:sip.via": ("text", "via", ""),
    "FIELDS:sip.via.branch": ("token", "via", "branch"),
    "FIELDS:sip.contact": ("address", "contact", ""),
    "FIELDS:sip.content_length": ("numeric", "content-length", ""),
    "FIELDS:sip.user_agent": ("text", "user-agent", ""),
    "FIELDS:net.src_addr": ("address", "@pseudo", ""),
    "BODY:raw": ("text", "@body", ""),
}

# Short header forms are expanded before the family lookup.
_COMPACT = {"f": "from", "t": "to", "i": "call-id", "v": "via"}

_REQUEST_RE = re.compile(
    rb"^([A-Za-z][A-Za-z0-9.!%*_+`'~-]*)[ \t]+([^ \t]+)[ \t]+SIP/\d+\.\d+[ \t]*$"
)
_RESPONSE_RE = re.compile(rb"^SIP/\d+\.\d+[ \t]+(\d{3})(?:[ \t]+(.*))?$")

_TAG_RE = re.compile(rb"(?:^|[;?])[ \t]*tag[ \t]*=[ \t]*([^;>,\s]+)", re.IGNORECASE)
_BRANCH_RE = re.compile(rb"branch[ \t]*=[ \t]*([^;,\s]+)", re.IGNORECASE)
# applied with .match(raw, pos), which anchors at pos; no ^ (it would pin to offset 0)
_CSEQ_RE = re.compile(rb"(\d+)[ \t]+([^ \t\r\n]+)")

# Fields the dialog and transaction keys are built from, in the order
# extract_dialog_key/extract_transaction_key unpack their ids.
_KEY_FIELDS = ("FIELDS:sip.call_id", "FIELDS:sip.from.tag", "FIELDS:sip.to.tag",
               "FIELDS:sip.via.branch", "FIELDS:sip.cseq.method")


@dataclass(frozen=True)
class FieldPath:
    """Catalog address of a field: namespace plus dotted segments."""

    namespace: str
    segments: tuple[str, ...]

    @classmethod
    def parse(cls, text: str) -> "FieldPath":
        ns, sep, rest = text.partition(":")
        if not sep or not rest:
            raise UnknownFieldError(f"field reference {text!r} lacks a namespace")
        ns = ns.upper()
        if ns == "MESSAGE_HEADERS":  # accepted alias for the header namespace
            ns = "FIELDS"
        if ns not in ("FIELDS", "BODY"):
            raise UnknownFieldError(f"unknown namespace {ns!r} in {text!r}")
        segments = tuple(seg.lower() for seg in rest.split("."))
        for seg in segments:
            if not _IDENT_RE.match(seg):
                raise UnknownFieldError(f"bad path segment {seg!r} in {text!r}")
        return cls(ns, segments)

    def key(self) -> str:
        return f"{self.namespace}:{'.'.join(self.segments)}"

    def __str__(self) -> str:
        return self.key()


@dataclass
class ParseNode:
    """One extracted field: byte span in the datagram plus the decoded value."""

    field_id: int
    field_type: str
    start: int
    end: int
    value: str
    children: list["ParseNode"] = field(default_factory=list)


@dataclass
class ParseTree:
    message_kind: str  # "request" | "response"
    method: str  # "" for responses
    status_code: int | None  # None for requests
    nodes: dict[int, ParseNode]
    raw_length: int

    def node(self, field_id: int | None) -> ParseNode | None:
        if field_id is None:
            return None
        return self.nodes.get(field_id)

    def value_of(self, field_id: int | None) -> str | None:
        node = self.node(field_id)
        return None if node is None else node.value


def _truncate_len(data: bytes, max_len: int) -> int:
    """Longest prefix length <= max_len that splits neither a UTF-8 character
    nor a CRLF pair."""
    if len(data) <= max_len:
        return len(data)
    cut = max_len
    while cut > 0 and (data[cut] & 0xC0) == 0x80:
        cut -= 1
    if cut > 0 and data[cut - 1 : cut] == b"\r" and data[cut : cut + 1] == b"\n":
        cut -= 1
    return cut


def normalize_value(value: str, max_len: int) -> str:
    """Cap a value at max_len bytes of its UTF-8 encoding."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    data = value.encode("utf-8")
    if len(data) <= max_len:
        return value
    return data[: _truncate_len(data, max_len)].decode("utf-8")


def _trim_span(raw: bytes, start: int, end: int) -> tuple[int, int]:
    while start < end and raw[start] in (0x20, 0x09, 0x0D, 0x0A):
        start += 1
    while end > start and raw[end - 1] in (0x20, 0x09, 0x0D, 0x0A):
        end -= 1
    return start, end


def _addr_host_span(raw: bytes, start: int, end: int) -> tuple[int, int] | None:
    """Byte span of the host part of the URI inside an address header value."""
    lt = raw.find(b"<", start, end)
    if lt >= 0:
        gt = raw.find(b">", lt + 1, end)
        us, ue = lt + 1, (gt if gt >= 0 else end)
    else:
        # Bare URI form: parameters after the first semicolon belong to the
        # header, not the URI.
        semi = raw.find(b";", start, end)
        us, ue = start, (semi if semi >= 0 else end)
    us, ue = _trim_span(raw, us, ue)
    at = raw.rfind(b"@", us, ue)
    if at >= 0:
        hs = at + 1
    else:
        colon = raw.find(b":", us, ue)
        hs = colon + 1 if colon >= 0 else us
    if raw[hs : hs + 1] == b"[":  # IPv6 literal: keep the brackets
        close = raw.find(b"]", hs, ue)
        he = close + 1 if close >= 0 else ue
    else:
        he = ue
        for delim in (b":", b";", b"?"):
            i = raw.find(delim, hs, ue)
            if i >= 0 and i < he:
                he = i
    hs, he = _trim_span(raw, hs, he)
    if hs >= he:
        return None
    return hs, he


def _tag_span(raw: bytes, start: int, end: int) -> tuple[int, int] | None:
    gt = raw.rfind(b">", start, end)
    m = _TAG_RE.search(raw, gt + 1 if gt >= 0 else start, end)
    if not m:
        return None
    return m.span(1)


class SipParser:
    """Registry-driven lazy parser.

    Register the field paths the rule program needs, then call
    :meth:`parse_message` per datagram.  ``parse_events`` counts header
    value extractions and is the observable proof that unregistered
    headers stay untouched.
    """

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._paths: dict[int, FieldPath] = {}
        self._caps: dict[str, int] = {}
        self._sealed = False
        self._header_plan: dict[str, dict[str, tuple[int, str]]] = {}
        self._start_plan: dict[str, tuple[int, str]] = {}
        self._body_field: tuple[int, str] | None = None
        self._key_ids: tuple[int | None, ...] | None = None  # set by seal()
        self.parse_events = 0

    def register_field(self, path: FieldPath | str) -> int:
        if self._sealed:
            raise RuntimeError("cannot register fields after parsing has started")
        if isinstance(path, str):
            path = FieldPath.parse(path)
        key = path.key()
        if key not in FIELD_CATALOG:
            raise UnknownFieldError(f"unknown field {key}")
        if key in self._ids:
            return self._ids[key]
        fid = len(self._ids) + 1
        self._ids[key] = fid
        self._paths[fid] = path
        return fid

    def set_normalize_cap(self, path: FieldPath | str, max_len: int) -> None:
        """Limit the extracted length of a field to max_len bytes."""
        if isinstance(path, str):
            path = FieldPath.parse(path)
        if max_len < 1:
            raise ValueError("max_len must be >= 1")
        key = path.key()
        if key not in FIELD_CATALOG:
            raise UnknownFieldError(f"unknown field {key}")
        prev = self._caps.get(key)
        self._caps[key] = max_len if prev is None else min(prev, max_len)

    def field_id(self, path: FieldPath | str) -> int | None:
        key = path.key() if isinstance(path, FieldPath) else FieldPath.parse(path).key()
        return self._ids.get(key)

    def seal(self) -> None:
        """Freeze the registry and precompute the per-header extraction plan."""
        if self._sealed:
            return
        for key, fid in self._ids.items():
            ftype, family, part = FIELD_CATALOG[key]
            if family == "@start":
                self._start_plan[part] = (fid, ftype)
            elif family == "@body":
                self._body_field = (fid, ftype)
            elif family == "@pseudo":
                continue
            else:
                self._header_plan.setdefault(family, {})[part] = (fid, ftype)
        self._key_ids = self._key_field_ids()
        self._sealed = True

    def _key_field_ids(self) -> tuple[int | None, ...]:
        return tuple(self._ids.get(key) for key in _KEY_FIELDS)

    # ------------------------------------------------------------------
    # message parsing
    # ------------------------------------------------------------------

    def parse_message(self, raw: bytes) -> ParseTree:
        if not self._sealed:
            self.seal()
        if not self._ids:
            raise RuntimeError("no fields registered")
        if not raw:
            raise MalformedMessage("empty message")

        nl = raw.find(b"\n")
        if nl < 0:
            line_end, header_pos = len(raw), len(raw)
        else:
            line_end, header_pos = nl, nl + 1
        start_line = raw[:line_end]
        if start_line.endswith(b"\r"):
            start_line = start_line[:-1]

        nodes: dict[int, ParseNode] = {}
        kind, method, status = self._parse_start_line(start_line, raw, nodes)
        body_start = self._scan_headers(raw, header_pos, nodes)

        if self._body_field is not None and body_start < len(raw):
            fid, ftype = self._body_field
            s, e = _trim_span(raw, body_start, len(raw))
            if s < e:
                self._make_node(raw, fid, ftype, s, e, nodes)

        return ParseTree(kind, method, status, nodes, len(raw))

    def extract_dialog_key(self, tree: ParseTree) -> tuple[str, str, str] | None:
        """(call_id, from_tag, to_tag), a missing tag as ""; None without a Call-ID."""
        call_id_id, from_tag_id, to_tag_id, _, _ = self._key_ids or self._key_field_ids()
        call_id = tree.value_of(call_id_id)
        if not call_id:
            return None
        from_tag = tree.value_of(from_tag_id) or ""
        to_tag = tree.value_of(to_tag_id) or ""
        return call_id, from_tag, to_tag

    def extract_transaction_key(self, tree: ParseTree) -> tuple[str, str] | None:
        """(topmost Via branch, CSeq method); None when either is missing."""
        _, _, _, branch_id, method_id = self._key_ids or self._key_field_ids()
        branch = tree.value_of(branch_id)
        cseq_method = tree.value_of(method_id)
        if not branch or not cseq_method:
            return None
        return branch, cseq_method

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _make_node(
        self,
        raw: bytes,
        fid: int,
        ftype: str,
        start: int,
        end: int,
        nodes: dict[int, ParseNode],
    ) -> ParseNode:
        cap = self._caps.get(self._paths[fid].key())
        if cap is not None and end - start > cap:
            end = start + _truncate_len(raw[start:end], cap)
            start, end = _trim_span(raw, start, end)
        value = raw[start:end].decode("utf-8", "replace").strip()
        node = ParseNode(fid, ftype, start, end, value)
        nodes[fid] = node
        return node

    def _parse_start_line(
        self, line: bytes, raw: bytes, nodes: dict[int, ParseNode]
    ) -> tuple[str, str, int | None]:
        m = _REQUEST_RE.match(line)
        if m:
            method = m.group(1).decode("ascii")
            plan = self._start_plan
            if "method" in plan:
                fid, ftype = plan["method"]
                self._make_node(raw, fid, ftype, m.start(1), m.end(1), nodes)
            if "uri" in plan:
                fid, ftype = plan["uri"]
                self._make_node(raw, fid, ftype, m.start(2), m.end(2), nodes)
            return "request", method, None
        m = _RESPONSE_RE.match(line)
        if m:
            code = int(m.group(1))
            if not 100 <= code <= 699:
                raise MalformedMessage(f"status code {code} out of range")
            if "status" in self._start_plan:
                fid, ftype = self._start_plan["status"]
                self._make_node(raw, fid, ftype, m.start(1), m.end(1), nodes)
            return "response", "", code
        raise MalformedMessage(f"unparseable start line {line[:64]!r}")

    def _scan_headers(
        self, raw: bytes, pos: int, nodes: dict[int, ParseNode]
    ) -> int:
        """Walk the header section, extracting only planned families.

        Returns the byte offset where the body begins (== len(raw) when
        the message has no body).  Folded continuation lines extend the
        value span of the header they belong to.
        """
        seen: set[str] = set()
        cur_family: str | None = None
        cur_vs = cur_ve = 0
        end = len(raw)

        while pos < end:
            nl = raw.find(b"\n", pos)
            if nl < 0:
                content_end, nxt = end, end
            else:
                content_end, nxt = nl, nl + 1
            if content_end > pos and raw[content_end - 1] == 0x0D:
                content_end -= 1
            if content_end == pos:  # blank line terminates the header section
                if cur_family is not None:
                    self._emit_header(raw, cur_family, cur_vs, cur_ve, nodes, seen)
                return nxt
            b0 = raw[pos]
            if b0 in (0x20, 0x09):
                if cur_family is not None:
                    cur_ve = content_end
            else:
                if cur_family is not None:
                    self._emit_header(raw, cur_family, cur_vs, cur_ve, nodes, seen)
                    cur_family = None
                colon = raw.find(b":", pos, content_end)
                if colon >= 0:
                    name = raw[pos:colon].strip().lower().decode("ascii", "replace")
                    cur_family = _COMPACT.get(name, name)
                    cur_vs, cur_ve = colon + 1, content_end
            pos = nxt

        if cur_family is not None:
            self._emit_header(raw, cur_family, cur_vs, cur_ve, nodes, seen)
        return end

    def _emit_header(
        self,
        raw: bytes,
        family: str,
        vs: int,
        ve: int,
        nodes: dict[int, ParseNode],
        seen: set[str],
    ) -> None:
        plan = self._header_plan.get(family)
        if plan is None or family in seen:
            return  # unregistered family, or repeat (only the topmost counts)
        seen.add(family)
        self.parse_events += 1

        s, e = _trim_span(raw, vs, ve)
        full = None
        if "" in plan:
            fid, ftype = plan[""]
            full = self._make_node(raw, fid, ftype, s, e, nodes)
            e = full.end  # children must stay inside a capped parent span

        children: list[ParseNode] = []
        if "addr" in plan:
            span = _addr_host_span(raw, s, e)
            if span:
                fid, ftype = plan["addr"]
                children.append(self._make_node(raw, fid, ftype, *span, nodes))
        if "tag" in plan:
            span = _tag_span(raw, s, e)
            if span:
                fid, ftype = plan["tag"]
                children.append(self._make_node(raw, fid, ftype, *span, nodes))
        if "branch" in plan:
            m = _BRANCH_RE.search(raw, s, e)
            if m:
                fid, ftype = plan["branch"]
                children.append(self._make_node(raw, fid, ftype, *m.span(1), nodes))
        if "method" in plan:
            m = _CSEQ_RE.match(raw, s, e)
            if m:
                fid, ftype = plan["method"]
                children.append(self._make_node(raw, fid, ftype, *m.span(2), nodes))

        if full is not None:
            full.children.extend(children)
