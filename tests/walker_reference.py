"""The header scanner sipwall used before its one-pass regex, kept as an oracle.

``WalkerParser`` walks the header section line by line in Python: a line
that starts with a blank continues the header above it, a line without a
colon ends it, a blank line ends the section, and only the topmost header
of each planned family is extracted.  It takes the same fields and caps
and shares the sub-part helpers with :class:`sipwall.parser.SipParser`,
so comparing the two isolates how headers are found.  Tests only;
nothing in sipwall imports it.
"""

from __future__ import annotations

from sipwall.parser import (
    _COMPACT,
    _PART_SPAN,
    _REQUEST_RE,
    _RESPONSE_RE,
    FIELD_CATALOG,
    FIELD_IDS,
    MalformedMessage,
    ParseNode,
    ParseTree,
    SipParser,
    _trim_span,
    _truncate_len,
)


class WalkerParser(SipParser):
    def __init__(self, fields, caps=None) -> None:
        fields, caps = list(fields), dict(caps or {})
        super().__init__(fields, caps)
        self._walk_header_plan: dict[str, dict[str, int]] = {}
        self._walk_start_plan: dict[str, int] = {}
        self._walk_body_field = None
        self._walk_caps = {FIELD_IDS[key]: cap for key, cap in caps.items()}
        for key in fields:
            fid = FIELD_IDS[key]
            family, part = FIELD_CATALOG[key]
            if family == "@start":
                self._walk_start_plan[part] = fid
            elif family == "@body":
                self._walk_body_field = fid
            elif family != "@pseudo":
                self._walk_header_plan.setdefault(family, {})[part] = fid

    def parse_message(self, raw: bytes) -> ParseTree:
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
        kind, method, status = self._walk_start_line(start_line, raw, nodes)
        body_start = self._walk_headers(raw, header_pos, nodes)

        if self._walk_body_field is not None and body_start < len(raw):
            s, e = _trim_span(raw, body_start, len(raw))
            if s < e:
                self._make_node(raw, self._walk_body_field, s, e, nodes)

        return ParseTree(kind, method, status, nodes, len(raw))

    def _make_node(self, raw, fid, start, end, nodes) -> ParseNode:
        cap = self._walk_caps.get(fid)
        if cap is not None and end - start > cap:
            end = start + _truncate_len(raw[start:end], cap)
            start, end = _trim_span(raw, start, end)
        value = raw[start:end].decode("utf-8", "replace").strip()
        node = ParseNode(fid, start, end, value)
        nodes[fid] = node
        return node

    def _walk_start_line(self, line, raw, nodes):
        m = _REQUEST_RE.match(line)
        if m:
            method = m.group(1).decode("ascii")
            plan = self._walk_start_plan
            if "method" in plan:
                self._make_node(raw, plan["method"], m.start(1), m.end(1), nodes)
            if "uri" in plan:
                self._make_node(raw, plan["uri"], m.start(2), m.end(2), nodes)
            return "request", method, None
        m = _RESPONSE_RE.match(line)
        if m:
            code = int(m.group(1))
            if not 100 <= code <= 699:
                raise MalformedMessage(f"status code {code} out of range")
            if "status" in self._walk_start_plan:
                self._make_node(raw, self._walk_start_plan["status"], m.start(1), m.end(1), nodes)
            return "response", "", code
        raise MalformedMessage(f"unparseable start line {line[:64]!r}")

    def _walk_headers(self, raw: bytes, pos: int, nodes) -> int:
        """Returns the byte offset where the body begins."""
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

    def _emit_header(self, raw, family, vs, ve, nodes, seen) -> None:
        plan = self._walk_header_plan.get(family)
        if plan is None or family in seen:
            return  # unplanned family, or repeat (only the topmost counts)
        seen.add(family)
        self.parse_events += 1

        s, e = _trim_span(raw, vs, ve)
        full = None
        if "" in plan:
            full = self._make_node(raw, plan[""], s, e, nodes)
            e = full.end  # children must stay inside a capped parent span

        children = []
        for part, span_of in _PART_SPAN.items():
            if part in plan:
                span = span_of(raw, s, e)
                if span:
                    children.append(self._make_node(raw, plan[part], *span, nodes))
        if full is not None and children:
            full.children = tuple(children)
