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
from dataclasses import dataclass

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

# Short header forms (RFC 3261 section 7.3.3) of the catalog's header families.
_COMPACT = {"f": "from", "t": "to", "i": "call-id", "v": "via", "m": "contact",
            "l": "content-length"}

# Every name of each header family the catalog addresses, lowercase: the
# full name, then its compact forms.
_HEADER_NAMES: dict[str, tuple[bytes, ...]] = {
    family: (family.encode(), *(c.encode() for c, f in _COMPACT.items() if f == family))
    for _, family, _ in FIELD_CATALOG.values()
    if not family.startswith("@")
}

# A header line of a catalog family, matched from the newline before it in
# a lowercased copy of the header section (faster than IGNORECASE, and the
# name comes out lowercase).  The line's first byte is no blank (a line that
# starts with one continues the header above), the name is what
# bytes.strip() leaves before the first colon, and the value skips its
# leading blanks and runs to the end of the line, folded continuation lines
# included.
_HEADER_RE = re.compile(
    rb"\n(?![ \t])[ \t\r\x0b\x0c]*("
    + b"|".join(re.escape(name) for names in _HEADER_NAMES.values() for name in names)
    + rb")[ \t\r\x0b\x0c]*:(?:[ \t\r]|\n(?=[ \t]))*([^\n]*(?:\n[ \t][^\n]*)*)"
)
# The blank line that ends the header section, searched from the newline before it.
_BLANK_LINE_RE = re.compile(rb"\n\r?(?:\n|\Z)")

_REQUEST_RE = re.compile(
    rb"^([A-Za-z][A-Za-z0-9.!%*_+`'~-]*)[ \t]+([^ \t]+)[ \t]+SIP/\d+\.\d+[ \t]*$"
)
_RESPONSE_RE = re.compile(rb"^SIP/\d+\.\d+[ \t]+(\d{3})(?:[ \t]+(.*))?$")

# SEMI and EQUAL (RFC 3261) allow folding whitespace around the name
_TAG_RE = re.compile(rb"(?:^|[;?])\s*tag\s*=\s*([^;>,\s]+)", re.IGNORECASE)
# a parameter: after a semicolon, so a look-alike such as xbranch= is no branch
_BRANCH_RE = re.compile(rb";\s*branch\s*=\s*([^;,\s]+)", re.IGNORECASE)
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


@dataclass(slots=True)
class ParseNode:
    """One extracted field: byte span in the datagram plus the decoded value."""

    field_id: int
    field_type: str
    start: int
    end: int
    value: str
    children: tuple["ParseNode", ...] = ()


@dataclass
class ParseTree:
    message_kind: str  # "request" | "response"
    method: str  # "" for responses
    status_code: int | None  # None for requests
    nodes: dict[int, ParseNode]
    raw_length: int


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


_BLANKS = b" \t\r\n"


def _trim_span(raw: bytes, start: int, end: int) -> tuple[int, int]:
    while start < end and raw[start] in _BLANKS:
        start += 1
    while end > start and raw[end - 1] in _BLANKS:
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


def _branch_span(raw: bytes, start: int, end: int) -> tuple[int, int] | None:
    m = _BRANCH_RE.search(raw, start, end)
    return None if m is None else m.span(1)


def _cseq_method_span(raw: bytes, start: int, end: int) -> tuple[int, int] | None:
    m = _CSEQ_RE.match(raw, start, end)
    return None if m is None else m.span(2)


# Sub-part -> (its rank among its parent node's children, where it lies
# inside its header's value).
_PART_SPAN = {"addr": (0, _addr_host_span), "tag": (1, _tag_span),
              "branch": (2, _branch_span), "method": (3, _cseq_method_span)}


def _catalog_key(path: FieldPath | str) -> str:
    if isinstance(path, str):
        if path in FIELD_CATALOG:  # already in canonical form
            return path
        path = FieldPath.parse(path)
    key = path.key()
    if key not in FIELD_CATALOG:
        raise UnknownFieldError(f"unknown field {key}")
    return key


# What seal() plans for one field: (field id, value type, @normalize cap or None).
_Entry = tuple[int, str, "int | None"]


def _node(raw: bytes, entry: _Entry, start: int, end: int) -> ParseNode:
    fid, ftype, cap = entry
    if cap is not None and end - start > cap:
        end = start + _truncate_len(raw[start:end], cap)
        start, end = _trim_span(raw, start, end)
    return ParseNode(fid, ftype, start, end, raw[start:end].decode("utf-8", "replace").strip())


class SipParser:
    """Registry-driven lazy parser.

    Register the field paths the rule program needs, then call
    :meth:`parse_message` per datagram.  ``parse_events`` counts header
    value extractions and is the observable proof that unregistered
    headers stay untouched.
    """

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._caps: dict[str, int] = {}
        self._sealed = False
        # set by seal(): start-line part -> entry, header name -> the plan of
        # its family ([bit, entry of the whole value or None, [(rank, span,
        # entry) per sub-part]]), and the body's entry
        self._start_plan: dict[str, _Entry] = {}
        self._header_plans: dict[bytes, list] = {}
        self._all_families = 0  # the bits of every planned family
        self._body_entry: _Entry | None = None
        self._key_ids: tuple[int | None, ...] | None = None
        self.parse_events = 0

    def register_field(self, path: FieldPath | str) -> int:
        if self._sealed:
            raise RuntimeError("cannot register fields after parsing has started")
        key = _catalog_key(path)
        if key in self._ids:
            return self._ids[key]
        fid = len(self._ids) + 1
        self._ids[key] = fid
        return fid

    def set_normalize_cap(self, path: FieldPath | str, max_len: int) -> None:
        """Limit the extracted length of a field to max_len bytes."""
        if self._sealed:
            raise RuntimeError("cannot set caps after parsing has started")
        if max_len < 1:
            raise ValueError("max_len must be >= 1")
        key = _catalog_key(path)
        prev = self._caps.get(key)
        self._caps[key] = max_len if prev is None else min(prev, max_len)

    def field_id(self, path: FieldPath | str) -> int | None:
        key = path.key() if isinstance(path, FieldPath) else FieldPath.parse(path).key()
        return self._ids.get(key)

    def seal(self) -> None:
        """Freeze the registry and plan the extraction of each field."""
        if self._sealed:
            return
        plans, families = self._header_plans, 0
        for key, fid in self._ids.items():
            ftype, family, part = FIELD_CATALOG[key]
            entry = (fid, ftype, self._caps.get(key))
            if family == "@start":
                self._start_plan[part] = entry
            elif family == "@body":
                self._body_entry = entry
            elif family != "@pseudo":
                names = _HEADER_NAMES[family]
                plan = plans.get(names[0])
                if plan is None:
                    plan = [1 << families, None, []]
                    families += 1
                    for name in names:
                        plans[name] = plan
                if not part:
                    plan[1] = entry
                else:
                    plan[2].append((*_PART_SPAN[part], entry))
                    plan[2].sort()
        self._all_families = (1 << families) - 1
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

        end = len(raw)
        nl = raw.find(b"\n")
        line_end = end if nl < 0 else nl
        if line_end and raw[line_end - 1] == 0x0D:
            line_end -= 1
        nodes: dict[int, ParseNode] = {}
        kind, method, status = self._parse_start_line(raw, line_end, nodes)
        body_start = end
        if nl >= 0:
            blank = _BLANK_LINE_RE.search(raw, nl)
            head_end = end if blank is None else blank.start()
            self._scan_headers(raw, raw[:head_end].lower(), nl, head_end, nodes)
            if blank is not None:
                body_start = blank.end()

        if self._body_entry is not None and body_start < end:
            s, e = _trim_span(raw, body_start, end)
            if s < e:
                nodes[self._body_entry[0]] = _node(raw, self._body_entry, s, e)

        return ParseTree(kind, method, status, nodes, end)

    def extract_dialog_key(self, tree: ParseTree) -> tuple[str, str, str] | None:
        """(call_id, from_tag, to_tag), a missing tag as ""; None without a Call-ID."""
        call_id_id, from_tag_id, to_tag_id, _, _ = self._key_ids or self._key_field_ids()
        get = tree.nodes.get  # a None id finds no node
        call_id = get(call_id_id)
        if call_id is None or not call_id.value:
            return None
        from_tag, to_tag = get(from_tag_id), get(to_tag_id)
        return (call_id.value, "" if from_tag is None else from_tag.value,
                "" if to_tag is None else to_tag.value)

    def extract_transaction_key(self, tree: ParseTree) -> tuple[str, str] | None:
        """(topmost Via branch, CSeq method); None when either is missing."""
        _, _, _, branch_id, method_id = self._key_ids or self._key_field_ids()
        get = tree.nodes.get
        branch, cseq_method = get(branch_id), get(method_id)
        if branch is None or cseq_method is None or not branch.value or not cseq_method.value:
            return None
        return branch.value, cseq_method.value

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _parse_start_line(
        self, raw: bytes, line_end: int, nodes: dict[int, ParseNode]
    ) -> tuple[str, str, int | None]:
        """Read raw[:line_end], the start line without its line break."""
        plan = self._start_plan
        m = _REQUEST_RE.match(raw, 0, line_end)
        if m:
            for part, group in (("method", 1), ("uri", 2)):
                if part in plan:
                    nodes[plan[part][0]] = _node(raw, plan[part], *m.span(group))
            return "request", m.group(1).decode("ascii"), None
        m = _RESPONSE_RE.match(raw, 0, line_end)
        if m:
            code = int(m.group(1))
            if not 100 <= code <= 699:
                raise MalformedMessage(f"status code {code} out of range")
            if "status" in plan:
                nodes[plan["status"][0]] = _node(raw, plan["status"], *m.span(1))
            return "response", "", code
        raise MalformedMessage(f"unparseable start line {raw[:min(line_end, 64)]!r}")

    def _scan_headers(
        self, raw: bytes, lowered: bytes, pos: int, end: int, nodes: dict[int, ParseNode]
    ) -> None:
        """Extract the planned families from the header section raw[pos:end],
        which starts at the start line's newline and ends before the blank
        line.  ``lowered`` is raw[:end].lower().

        Only the topmost header of a family counts, so the scan stops once
        every planned family has been seen.  A value's span is trimmed of
        blanks; a blank value sits where its last line's content ends,
        before the line's CR.
        """
        plans, search, every = self._header_plans, _HEADER_RE.search, self._all_families
        seen = 0
        # a search loop, not finditer: tracemalloc sees finditer's iterators
        # keep a slowly filling, bounded pool of blocks, which a per-message
        # memory check cannot tell from growth
        while (m := search(lowered, pos, end)) is not None:
            pos = e = m.end()
            plan = plans.get(m.group(1))
            if plan is None or seen & plan[0]:
                continue
            bit, whole, parts = plan
            seen |= bit
            s = m.start(2)
            while e > s and raw[e - 1] in _BLANKS:
                e -= 1
            if raw[e - 1] == 0x0D:  # only a blank value ends on a CR
                e -= 1
                s = e
            # a node is built inline unless a cap applies (_node)
            if whole is not None:
                fid, ftype, cap = whole
                if cap is None:
                    parent = nodes[fid] = ParseNode(
                        fid, ftype, s, e, raw[s:e].decode("utf-8", "replace").strip()
                    )
                else:
                    parent = nodes[fid] = _node(raw, whole, s, e)
                    e = parent.end  # children must stay inside a capped parent span
            if parts:
                children = []
                for _, span_of, entry in parts:
                    span = span_of(raw, s, e)
                    if span is not None:
                        fid, ftype, cap = entry
                        if cap is None:
                            cs, ce = span
                            child = ParseNode(
                                fid, ftype, cs, ce, raw[cs:ce].decode("utf-8", "replace").strip()
                            )
                        else:
                            child = _node(raw, entry, *span)
                        nodes[fid] = child
                        children.append(child)
                if whole is not None and children:
                    parent.children = tuple(children)
            if seen == every:  # the rest of the section holds no topmost header
                break
        self.parse_events += seen.bit_count()  # one event per family extracted
