"""Scoped state: held sets and leaky counters, one slotted class each.

Instances are addressed by (object name, scope key) and created by a write
or a counter read; a collection read creates none.  A scope key is the
plain identity tuple of its scope: GLOBAL_KEY (empty), a dialog key
(call_id, from_tag, to_tag) or a transaction key (branch, cseq_method).
A set, list or bag object is held as a set of its capped values (HeldSet):
@in, the only reader of a collection, sees neither order nor multiplicity.
A counter object is a CounterState.
Expiry is lazy: a stale instance is discarded when resolved.  Each
table keeps its entries in order of last touch, so a sweep pops expired
entries off the head and stops at the first live one, or at a limit
that follows the table's growth (expire_head).  All time handling uses
the engine clock passed in by the caller; nothing here reads the wall
clock, and that clock is taken not to go backwards.  If it does,
eviction can only come late, never early.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import islice
from operator import attrgetter
from typing import Callable

from .parser import normalize_value

__all__ = [
    "Scope",
    "ContainerKind",
    "GLOBAL_KEY",
    "ContainerDescriptor",
    "CounterState",
    "HeldSet",
    "StateStore",
    "DEFAULT_LIFETIMES",
    "DEFAULT_MAX_VALUE_LEN",
    "SWEEP_FLOOR",
    "expire_head",
]


class Scope(str, Enum):
    GLOBAL = "global"
    DIALOG = "dialog"
    TRANSACTION = "transaction"


class ContainerKind(str, Enum):
    SET = "set"
    LIST = "list"
    BAG = "bag"
    COUNTER = "counter"


# Per-scope instance lifetimes in seconds; None means no timed expiry.
DEFAULT_LIFETIMES: dict[Scope, float | None] = {
    Scope.GLOBAL: None,
    Scope.DIALOG: 1800.0,
    Scope.TRANSACTION: 32.0,
}

DEFAULT_MAX_VALUE_LEN = 1024


GLOBAL_KEY: tuple = ()

# The scopes' keys differ in length, so a key tells which scope it is for.
_KEY_LEN = {Scope.GLOBAL: 0, Scope.DIALOG: 3, Scope.TRANSACTION: 2}


@dataclass(frozen=True)
class ContainerDescriptor:
    """Compile-time shape of a declared object."""

    name: str
    kind: ContainerKind
    scope: Scope
    lifetime: float | None = None
    max_value_len: int = DEFAULT_MAX_VALUE_LEN
    leak_amount: int = 0
    leak_interval: float = 60.0


class CounterState:
    """Leaky counter instance: drains leak_amount per elapsed leak_interval.

    Settlement is lazy.  The anchor only ever advances by whole
    intervals, so leak epochs stay on the grid fixed at creation time,
    and the value saturates at zero (drained intervals are not banked
    against future increments).  The store alone moves last_touched.
    """

    __slots__ = ("leak_amount", "leak_interval", "anchor", "raw", "last_touched")

    def __init__(
        self, leak_amount: int, leak_interval: float, anchor: float, raw: int = 0
    ) -> None:
        self.leak_amount = leak_amount
        self.leak_interval = leak_interval
        self.anchor = anchor
        self.raw = raw
        self.last_touched = anchor

    def settle(self, now: float) -> None:
        if now <= self.anchor:
            return
        k = math.floor((now - self.anchor) / self.leak_interval)
        if k <= 0:
            return
        self.raw = max(0, self.raw - self.leak_amount * k)
        self.anchor += k * self.leak_interval

    def increment(self, now: float, amount: int = 1) -> int:
        self.settle(now)
        self.raw += amount
        return self.raw

    def value(self, now: float) -> int:
        self.settle(now)
        return self.raw


class HeldSet:
    """Collection instance: the values held, each capped at max_len bytes
    on the way in and on lookup.  The store alone moves last_touched."""

    __slots__ = ("max_len", "last_touched", "items")

    def __init__(self, max_len: int, now: float) -> None:
        self.max_len = max_len
        self.last_touched = now
        self.items: set[str] = set()

    def insert(self, value: str) -> None:
        self.items.add(normalize_value(value, self.max_len))

    def contains(self, value: str) -> bool:
        return normalize_value(value, self.max_len) in self.items



# A sweep evicts at most max(SWEEP_FLOOR, 2 * growth) entries of a table,
# growth being what the table gained since its last sweep: eviction
# outpaces any insertion rate, yet a backlog (an idle gap, a burst) is
# paid over several sweeps rather than by one message.
SWEEP_FLOOR = 1024


def expire_head(
    table: dict,
    now: float,
    lifetime: float,
    swept_size: int,
    seen: Callable[[object], float] = float,
) -> int:
    """Delete the entries at the head of table idle longer than lifetime,
    up to the first that is not and at most max(SWEEP_FLOOR, twice the
    growth since the last sweep, which left swept_size entries); seen
    reads an entry's last-touch time off its value, which by default is
    that time.

    The table must be in order of last touch, each touch moving its entry
    to the tail, so the entries after the first live one are live too.
    """
    dead = []
    limit = max(SWEEP_FLOOR, 2 * (len(table) - swept_size))
    for key, value in islice(table.items(), limit):
        if not now - seen(value) > lifetime:
            break
        dead.append(key)
    for key in dead:
        del table[key]
    return len(dead)


_LAST_TOUCHED = attrgetter("last_touched")


class StateStore:
    """Instances in one table per distinct lifetime, each table in order of
    last touch; a table without a lifetime is never reordered or swept."""

    def __init__(self, descriptors: dict[str, ContainerDescriptor] | None = None):
        self._descriptors: dict[str, ContainerDescriptor] = dict(descriptors or {})
        self._by_lifetime: dict[float | None, dict[tuple[str, tuple], CounterState | HeldSet]] = {}
        self._tables: dict[str, tuple[dict, float | None]] = {}  # name -> (table, lifetime)
        for name, desc in self._descriptors.items():
            life = desc.lifetime
            self._tables[name] = (self._by_lifetime.setdefault(life, {}), life)
        # each swept table's size after its last sweep (expire_head)
        self._swept_size = {life: 0 for life in self._by_lifetime if life is not None}

    def resolve(
        self, name: str, key: tuple, now: float, create: bool = True
    ) -> CounterState | HeldSet | None:
        """Live instance for (name, key), touched; without one, a fresh
        instance, or None when create is false (a read creates nothing).
        A key of another scope raises ValueError; it is checked on creation
        only, since no stored slot can hold such a key."""
        table, lifetime = self._tables[name]
        slot = (name, key)
        if lifetime is None:  # never swept, so left in place
            inst = table.get(slot)
        else:  # taken out, and put back at the tail while live
            inst = table.pop(slot, None)
            if inst is not None and not now - inst.last_touched > lifetime:
                table[slot] = inst
            else:
                inst = None
        if inst is not None:
            if now > inst.last_touched:
                inst.last_touched = now
            return inst
        if not create:
            return None
        desc = self._descriptors[name]
        if len(key) != _KEY_LEN[desc.scope]:
            raise ValueError(
                f"object {name} is {desc.scope.value}-scoped, got the key {key!r}"
            )
        if desc.kind is ContainerKind.COUNTER:
            inst = CounterState(desc.leak_amount, desc.leak_interval, now)
        else:
            inst = HeldSet(desc.max_value_len, now)
        table[slot] = inst
        return inst

    def peek(self, name: str, key: tuple) -> CounterState | HeldSet | None:
        return self._tables[name][0].get((name, key))

    def expire(self, now: float) -> int:
        """Evict the instances idle longer than their lifetime, as many per
        table as expire_head allows; the rest are left for later, and so
        are some on a clock that has gone backwards."""
        evicted, swept_size = 0, self._swept_size
        for life, size in swept_size.items():
            table = self._by_lifetime[life]
            evicted += expire_head(table, now, life, size, _LAST_TOUCHED)
            swept_size[life] = len(table)
        return evicted

    def live_counts(self) -> dict[str, int]:
        counts = {name: 0 for name in self._descriptors}
        for table in self._by_lifetime.values():
            for name, _key in table:
                counts[name] += 1
        return counts

    def live_total(self) -> int:
        return sum(map(len, self._by_lifetime.values()))
