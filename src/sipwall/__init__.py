"""Stateful application-level firewall for SIP traffic."""

from .engine import Engine, Verdict
from .parser import (
    FieldPath,
    MalformedMessage,
    ParseTree,
    SipParser,
    normalize_value,
)
from .rules import RuleError, RuleProgram, compile_ruleset, parse_ruleset
from .state import Scope, StateStore
from .trace import TraceRecord, read_trace, replay, write_trace

__version__ = "0.1.0"

__all__ = [
    "Engine",
    "Verdict",
    "FieldPath",
    "MalformedMessage",
    "ParseTree",
    "SipParser",
    "normalize_value",
    "RuleError",
    "RuleProgram",
    "compile_ruleset",
    "parse_ruleset",
    "Scope",
    "StateStore",
    "TraceRecord",
    "read_trace",
    "replay",
    "write_trace",
    "__version__",
]
