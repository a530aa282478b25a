"""Scoped state containers: sets, lists, bags, and leaky counters.

Instances are addressed by (object name, scope key) and created by a write
or a counter read; a collection read creates none.  A scope key is the
plain identity tuple of its scope: GLOBAL_KEY (empty), a dialog key
(call_id, from_tag, to_tag) or a transaction key (branch, cseq_method).
Expiry is lazy: a stale instance is discarded when resolved, and bulk
sweeps walk the whole table.  All time handling uses the engine clock
passed in by the caller; nothing here reads the wall clock.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .parser import FieldPath, normalize_value

__all__ = [
    "Scope",
    "ContainerKind",
    "GLOBAL_KEY",
    "ContainerDescriptor",
    "CounterState",
    "ContainerInstance",
    "StateStore",
    "DEFAULT_LIFETIMES",
    "DEFAULT_MAX_VALUE_LEN",
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
    source: FieldPath | None = None  # field whose values a hold: rule stores
    lifetime: float | None = None
    max_value_len: int = DEFAULT_MAX_VALUE_LEN
    leak_amount: int = 0
    leak_interval: float = 60.0


@dataclass
class CounterState:
    """Leaky counter: drains leak_amount per elapsed leak_interval.

    Settlement is lazy.  The anchor only ever advances by whole
    intervals, so leak epochs stay on the grid fixed at creation time,
    and the value saturates at zero (drained intervals are not banked
    against future increments).
    """

    leak_amount: int
    leak_interval: float
    anchor: float
    raw: int = 0

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


class ContainerInstance:
    """Live state for one (object, scope key) pair."""

    __slots__ = ("descriptor", "created_at", "last_touched", "_values", "_counter")

    def __init__(self, descriptor: ContainerDescriptor, now: float) -> None:
        self.descriptor = descriptor
        self.created_at = now
        self.last_touched = now
        self._values: set | list | Counter | None
        self._counter: CounterState | None
        kind = descriptor.kind
        if kind is ContainerKind.COUNTER:
            self._values = None
            self._counter = CounterState(
                descriptor.leak_amount, descriptor.leak_interval, anchor=now
            )
        elif kind is ContainerKind.SET:
            self._values = set()
            self._counter = None
        elif kind is ContainerKind.LIST:
            self._values = []
            self._counter = None
        else:
            self._values = Counter()
            self._counter = None

    def touch(self, now: float) -> None:
        if now > self.last_touched:
            self.last_touched = now

    def insert(self, value: str, now: float) -> None:
        if self._values is None:
            raise TypeError(f"{self.descriptor.name} is a counter, not a collection")
        value = normalize_value(value, self.descriptor.max_value_len)
        self.touch(now)
        if isinstance(self._values, set):
            self._values.add(value)
        elif isinstance(self._values, list):
            self._values.append(value)
        else:
            self._values[value] += 1

    def contains(self, value: str) -> bool:
        if self._values is None:
            raise TypeError(f"{self.descriptor.name} is a counter, not a collection")
        value = normalize_value(value, self.descriptor.max_value_len)
        return value in self._values

    def multiplicity(self, value: str) -> int:
        if not isinstance(self._values, Counter):
            raise TypeError(f"{self.descriptor.name} is not a bag")
        return self._values[normalize_value(value, self.descriptor.max_value_len)]

    def counter_increment(self, now: float, amount: int = 1) -> int:
        if self._counter is None:
            raise TypeError(f"{self.descriptor.name} is not a counter")
        self.touch(now)
        return self._counter.increment(now, amount)

    def counter_value(self, now: float) -> int:
        if self._counter is None:
            raise TypeError(f"{self.descriptor.name} is not a counter")
        self.touch(now)
        return self._counter.value(now)

    def size(self) -> int:
        if self._counter is not None:
            return self._counter.raw
        if isinstance(self._values, Counter):
            return sum(self._values.values())
        return len(self._values)  # type: ignore[arg-type]

    def values(self):
        return self._values

    def expired(self, now: float) -> bool:
        lifetime = self.descriptor.lifetime
        return lifetime is not None and now - self.last_touched > lifetime


class StateStore:
    def __init__(self, descriptors: dict[str, ContainerDescriptor] | None = None):
        self._descriptors: dict[str, ContainerDescriptor] = dict(descriptors or {})
        self._instances: dict[tuple[str, tuple], ContainerInstance] = {}

    def resolve(
        self, name: str, key: tuple, now: float, create: bool = True
    ) -> ContainerInstance | None:
        """Live instance for (name, key), touched; without one, a fresh
        instance, or None when create is false (a read creates nothing).
        A key of another scope raises ValueError; it is checked on creation
        only, since no stored slot can hold such a key."""
        slot = (name, key)
        inst = self._instances.get(slot)
        if inst is not None:
            if not inst.expired(now):
                inst.touch(now)
                return inst
            del self._instances[slot]
        if not create:
            return None
        desc = self._descriptors[name]
        if len(key) != _KEY_LEN[desc.scope]:
            raise ValueError(
                f"object {name} is {desc.scope.value}-scoped, got the key {key!r}"
            )
        inst = ContainerInstance(desc, now)
        self._instances[slot] = inst
        return inst

    def peek(self, name: str, key: tuple) -> ContainerInstance | None:
        return self._instances.get((name, key))

    def expire(self, now: float) -> int:
        """Evict every instance idle longer than its lifetime."""
        dead = [slot for slot, inst in self._instances.items() if inst.expired(now)]
        for slot in dead:
            del self._instances[slot]
        return len(dead)

    def live_counts(self) -> dict[str, int]:
        counts = {name: 0 for name in self._descriptors}
        for name, _key in self._instances:
            counts[name] += 1
        return counts

    def live_total(self) -> int:
        return len(self._instances)
