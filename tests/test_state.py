from __future__ import annotations

import random

import pytest

from sipwall.parser import FieldPath
from sipwall.state import (
    GLOBAL_KEY,
    ContainerDescriptor,
    ContainerKind,
    CounterState,
    Scope,
    StateStore,
)


def leaky_oracle(events, leak, interval, t0):
    """Reference counter: walks leak epochs one at a time.

    Deliberately a different computation than the closed-form settlement
    in CounterState; returns the result of every read in order.
    """
    value = 0
    next_epoch = t0 + interval
    reads = []
    for op, t in events:
        while next_epoch <= t:
            value = max(0, value - leak)
            next_epoch += interval
        if op == "inc":
            value += 1
        else:
            reads.append(value)
    return reads


def dialog_scope(n: int) -> tuple[str, str, str]:
    return (f"call-{n}@x", "f", "t")


def make_store(**overrides) -> tuple[StateStore, ContainerDescriptor]:
    desc = ContainerDescriptor(
        name="obj",
        kind=overrides.pop("kind", ContainerKind.SET),
        scope=overrides.pop("scope", Scope.DIALOG),
        source=FieldPath.parse("FIELDS:sip.from"),
        **overrides,
    )
    return StateStore({"obj": desc}), desc


class TestCounter:
    def test_single_drain_then_increment(self):
        # a counter at 5 with leak 10/60s: one interval later an increment
        # lands on a drained (not negative) value
        c = CounterState(leak_amount=10, leak_interval=60.0, anchor=0.0, raw=5)
        assert c.increment(61.0) == 1

    def test_no_drain_before_full_interval(self):
        c = CounterState(10, 60.0, anchor=0.0, raw=5)
        assert c.value(59.999) == 5
        assert c.value(60.0) == 0  # exactly one full interval has elapsed

    def test_saturates_at_zero(self):
        c = CounterState(10, 60.0, anchor=0.0, raw=3)
        assert c.value(600.0) == 0
        assert c.increment(600.5) == 1  # drained intervals are not banked

    def test_epochs_stay_on_creation_grid(self):
        c = CounterState(1, 10.0, anchor=0.0, raw=0)
        c.increment(25.0)  # settles 2 intervals, anchor moves to 20.0
        assert c.anchor == 20.0
        assert c.value(29.9) == 1
        assert c.value(30.0) == 0  # epoch at t=30, not 25+10

    def test_zero_leak_never_drains(self):
        c = CounterState(0, 60.0, anchor=0.0, raw=7)
        assert c.value(1e6) == 7

    def test_random_timelines_match_oracle(self):
        rng = random.Random(0xC0)
        for _ in range(500):
            leak = rng.randrange(0, 25)
            interval = rng.randrange(1, 90)
            t0 = round(rng.uniform(0, 100), 3)
            t = t0
            events = []
            for _ in range(rng.randrange(1, 40)):
                t += round(rng.uniform(0, 150), 3)
                events.append((rng.choice(("inc", "read")), round(t, 3)))
            expected = leaky_oracle(events, leak, interval, t0)
            c = CounterState(leak, float(interval), anchor=t0)
            got = []
            for op, when in events:
                if op == "inc":
                    c.increment(when)
                else:
                    got.append(c.value(when))
            assert got == expected


class TestContainers:
    def test_set_deduplicates(self):
        store, _ = make_store(kind=ContainerKind.SET)
        inst = store.resolve("obj", dialog_scope(1), 0.0)
        inst.insert("a", 0.0)
        inst.insert("a", 1.0)
        assert inst.size() == 1
        assert inst.contains("a")
        assert not inst.contains("b")

    def test_list_keeps_duplicates(self):
        store, _ = make_store(kind=ContainerKind.LIST)
        inst = store.resolve("obj", dialog_scope(1), 0.0)
        inst.insert("a", 0.0)
        inst.insert("a", 0.0)
        assert inst.size() == 2
        assert inst.contains("a")

    def test_bag_counts_multiplicity(self):
        store, _ = make_store(kind=ContainerKind.BAG)
        inst = store.resolve("obj", dialog_scope(1), 0.0)
        for _ in range(3):
            inst.insert("x", 0.0)
        assert inst.multiplicity("x") == 3
        assert inst.multiplicity("y") == 0
        assert inst.size() == 3

    def test_kind_misuse_raises(self):
        store, _ = make_store(kind=ContainerKind.SET)
        inst = store.resolve("obj", dialog_scope(1), 0.0)
        with pytest.raises(TypeError):
            inst.counter_increment(0.0)
        counters = StateStore(
            {
                "c": ContainerDescriptor(
                    "c", ContainerKind.COUNTER, Scope.GLOBAL, leak_amount=1
                )
            }
        )
        c = counters.resolve("c", GLOBAL_KEY, 0.0)
        with pytest.raises(TypeError):
            c.insert("x", 0.0)

    def test_insert_and_query_normalize(self):
        store, _ = make_store(kind=ContainerKind.SET, max_value_len=8)
        inst = store.resolve("obj", dialog_scope(1), 0.0)
        inst.insert("abcdefgh-LONG-TAIL", 0.0)
        # stored value is capped, and a query with the same long value
        # is capped before lookup, so it still hits
        assert inst.contains("abcdefgh-LONG-TAIL")
        assert inst.contains("abcdefgh")
        (stored,) = inst.values()
        assert len(stored.encode()) <= 8


class TestStore:
    def test_scope_isolation(self):
        store, _ = make_store()
        store.resolve("obj", dialog_scope(1), 0.0).insert("a", 0.0)
        assert not store.resolve("obj", dialog_scope(2), 0.0).contains("a")
        assert store.live_counts() == {"obj": 2}

    def test_scope_mismatch_rejected(self):
        store, _ = make_store(scope=Scope.DIALOG)
        with pytest.raises(ValueError):
            store.resolve("obj", GLOBAL_KEY, 0.0)

    def test_expiry_is_strict(self):
        store, _ = make_store(lifetime=10.0)
        key = dialog_scope(1)
        store.resolve("obj", key, 0.0).insert("a", 0.0)
        # exactly at the lifetime boundary the instance survives
        assert store.resolve("obj", key, 10.0).contains("a")
        # touching refreshed the clock; jump past it from the last touch
        assert not store.resolve("obj", key, 20.5).contains("a")

    def test_resolve_discards_stale_instance(self):
        store, _ = make_store(lifetime=5.0)
        key = dialog_scope(1)
        store.resolve("obj", key, 0.0).insert("a", 0.0)
        fresh = store.resolve("obj", key, 100.0)
        assert not fresh.contains("a")
        assert fresh.created_at == 100.0

    def test_read_without_create_makes_nothing(self):
        store, _ = make_store(lifetime=5.0)
        key = dialog_scope(1)
        assert store.resolve("obj", key, 0.0, create=False) is None
        assert store.live_total() == 0
        store.resolve("obj", key, 0.0).insert("a", 0.0)
        live = store.resolve("obj", key, 4.0, create=False)
        assert live is not None and live.contains("a") and live.last_touched == 4.0
        # a stale instance is discarded, not replaced
        assert store.resolve("obj", key, 100.0, create=False) is None
        assert store.live_total() == 0

    def test_bulk_expire(self):
        store, _ = make_store(lifetime=10.0)
        store.resolve("obj", dialog_scope(1), 0.0)
        store.resolve("obj", dialog_scope(2), 50.0)
        assert store.expire(55.0) == 1
        assert store.live_total() == 1
        assert store.peek("obj", dialog_scope(2)) is not None

    def test_no_lifetime_never_expires_but_leaks(self):
        store = StateStore(
            {
                "c": ContainerDescriptor(
                    "c",
                    ContainerKind.COUNTER,
                    Scope.GLOBAL,
                    lifetime=None,
                    leak_amount=10,
                    leak_interval=60.0,
                )
            }
        )
        store.resolve("c", GLOBAL_KEY, 0.0).counter_increment(0.0)
        assert store.expire(1e9) == 0
        assert store.resolve("c", GLOBAL_KEY, 1e9).counter_value(1e9) == 0
