from __future__ import annotations

import random

import pytest

from sipwall import state
from sipwall.engine import TransactionTracker
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
        inst.insert("a")
        inst.insert("a")
        assert inst.items == {"a"}
        assert inst.contains("a")
        assert not inst.contains("b")

    def test_list_and_bag_answer_in_like_a_set(self):
        # @in sees neither order nor multiplicity, so a repeat adds nothing
        for kind in (ContainerKind.LIST, ContainerKind.BAG):
            store, _ = make_store(kind=kind)
            inst = store.resolve("obj", dialog_scope(1), 0.0)
            for value in ("x", "y", "x", "x"):
                inst.insert(value)
            assert inst.items == {"x", "y"}
            assert inst.contains("x") and inst.contains("y")
            assert not inst.contains("z")

    def test_kind_misuse_raises(self):
        store, _ = make_store(kind=ContainerKind.SET)
        inst = store.resolve("obj", dialog_scope(1), 0.0)
        with pytest.raises(AttributeError):
            inst.increment(0.0)
        counters = StateStore(
            {
                "c": ContainerDescriptor(
                    "c", ContainerKind.COUNTER, Scope.GLOBAL, leak_amount=1
                )
            }
        )
        c = counters.resolve("c", GLOBAL_KEY, 0.0)
        with pytest.raises(AttributeError):
            c.insert("x")

    def test_insert_and_query_normalize(self):
        store, _ = make_store(kind=ContainerKind.SET, max_value_len=8)
        inst = store.resolve("obj", dialog_scope(1), 0.0)
        inst.insert("abcdefgh-LONG-TAIL")
        # stored value is capped, and a query with the same long value
        # is capped before lookup, so it still hits
        assert inst.contains("abcdefgh-LONG-TAIL")
        assert inst.contains("abcdefgh")
        (stored,) = inst.items
        assert len(stored.encode()) <= 8


class TestStore:
    def test_scope_isolation(self):
        store, _ = make_store()
        store.resolve("obj", dialog_scope(1), 0.0).insert("a")
        assert not store.resolve("obj", dialog_scope(2), 0.0).contains("a")
        assert store.live_counts() == {"obj": 2}

    def test_scope_mismatch_rejected(self):
        store, _ = make_store(scope=Scope.DIALOG)
        with pytest.raises(ValueError):
            store.resolve("obj", GLOBAL_KEY, 0.0)

    def test_expiry_is_strict(self):
        store, _ = make_store(lifetime=10.0)
        key = dialog_scope(1)
        store.resolve("obj", key, 0.0).insert("a")
        # exactly at the lifetime boundary the instance survives
        assert store.resolve("obj", key, 10.0).contains("a")
        # touching refreshed the clock; jump past it from the last touch
        assert not store.resolve("obj", key, 20.5).contains("a")

    def test_resolve_discards_stale_instance(self):
        store, _ = make_store(lifetime=5.0)
        key = dialog_scope(1)
        store.resolve("obj", key, 0.0).insert("a")
        stale = store.peek("obj", key)
        fresh = store.resolve("obj", key, 100.0)
        assert fresh is not stale
        assert fresh.last_touched == 100.0 and not fresh.items

    def test_read_without_create_makes_nothing(self):
        store, _ = make_store(lifetime=5.0)
        key = dialog_scope(1)
        assert store.resolve("obj", key, 0.0, create=False) is None
        assert store.live_total() == 0
        store.resolve("obj", key, 0.0).insert("a")
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

    def test_expire_evicts_at_most_the_floor_without_growth(self, monkeypatch):
        monkeypatch.setattr(state, "SWEEP_FLOOR", 2)
        store, _ = make_store(lifetime=10.0)
        for n in range(5):
            store.resolve("obj", dialog_scope(n), float(n))
        store.resolve("obj", dialog_scope(9), 5.0)
        assert store.expire(5.0) == 0  # nothing idle yet; the table now counts 6
        store.resolve("obj", dialog_scope(9), 50.0)  # a touch, no growth
        assert [store.expire(55.0) for _ in range(4)] == [2, 2, 1, 0]
        assert store.live_total() == 1
        assert store.peek("obj", dialog_scope(9)) is not None

    def test_expire_limit_follows_the_growth_since_the_last_sweep(self, monkeypatch):
        monkeypatch.setattr(state, "SWEEP_FLOOR", 2)
        store, _ = make_store(lifetime=10.0)
        for n in range(8):
            store.resolve("obj", dialog_scope(n), float(n))
        assert store.expire(8.0) == 0
        for n in range(8, 11):
            store.resolve("obj", dialog_scope(n), 50.0)
        # 3 entries since the last sweep: up to 6 expired ones go
        assert store.expire(55.0) == 6
        # no growth since: back to the floor
        assert store.expire(55.0) == 2
        assert store.live_total() == 3

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
        store.resolve("c", GLOBAL_KEY, 0.0).increment(0.0)
        assert store.expire(1e9) == 0
        assert store.resolve("c", GLOBAL_KEY, 1e9).value(1e9) == 0


# Two names share the short lifetime, so they share a table.
LIFETIMES = {"short": 3.0, "short2": 3.0, "long": 10.0, "glob": None}
SCOPES = {"short": Scope.DIALOG, "short2": Scope.DIALOG, "long": Scope.TRANSACTION,
          "glob": Scope.GLOBAL}


def ordered_store() -> StateStore:
    return StateStore({
        name: ContainerDescriptor(name, ContainerKind.SET, SCOPES[name], lifetime=life)
        for name, life in LIFETIMES.items()
    })


def scope_key(scope: Scope, n: int) -> tuple:
    return {Scope.DIALOG: dialog_scope(n), Scope.TRANSACTION: (f"b{n}", "INVITE"),
            Scope.GLOBAL: GLOBAL_KEY}[scope]


SLOTS = sorted({(name, scope_key(SCOPES[name], n)) for name in LIFETIMES for n in range(4)})


def idle(now: float, seen: float, lifetime: float | None) -> bool:
    return lifetime is not None and now - seen > lifetime


# clock steps, in halves so that an entry lands exactly on its lifetime
STEPS = (0.0, 0.0, 0.5, 1.0, 1.5, 3.0, 4.5)


class TestOrderedExpiry:
    """The ordered tables against a full-scan reference: slot -> (instance,
    last touch), lazy expiry on resolve, a sweep that scans every slot."""

    def test_store_matches_full_scan(self):
        rng = random.Random(7)
        swept = 0
        for _ in range(300):
            store, ref, now = ordered_store(), {}, 0.0
            for _ in range(rng.randrange(10, 80)):
                now += rng.choice(STEPS)
                roll = rng.random()
                if roll < 0.2:
                    dead = [s for s, (_, seen) in ref.items() if idle(now, seen, LIFETIMES[s[0]])]
                    for s in dead:
                        del ref[s]
                    assert store.expire(now) == len(dead)
                    swept += len(dead)
                    for name, key in SLOTS:
                        inst = store.peek(name, key)
                        assert (inst is not None) == ((name, key) in ref)
                        assert inst is None or inst is ref[name, key][0]
                    assert store.live_total() == len(ref)
                    continue
                name, key = slot = rng.choice(SLOTS)
                create = roll < 0.7
                old = ref.pop(slot, None)
                if old is not None and idle(now, old[1], LIFETIMES[name]):
                    old = None
                stale = store.peek(name, key)
                got = store.resolve(name, key, now, create=create)
                if old is not None:
                    assert got is old[0]
                    ref[slot] = (got, max(old[1], now))
                elif create:
                    assert got is not None and got is not stale
                    assert got.last_touched == now and not got.items
                    ref[slot] = (got, now)
                else:
                    assert got is None
                if got is not None:
                    assert got.last_touched == ref[slot][1]
        assert swept > 500

    def test_tracker_matches_full_scan(self):
        rng = random.Random(8)
        swept = 0
        for _ in range(300):
            tracker, ref, now = TransactionTracker(lifetime=3.0), {}, 0.0
            for _ in range(rng.randrange(10, 80)):
                now += rng.choice(STEPS)
                if rng.random() < 0.2:
                    dead = [k for k, seen in ref.items() if now - seen > 3.0]
                    for k in dead:
                        del ref[k]
                    assert tracker.sweep(now) == len(dead)
                    assert tracker.records == ref
                    swept += len(dead)
                else:
                    key = (f"b{rng.randrange(6)}", "INVITE")
                    tracker.update(key, now)
                    ref[key] = now
        assert swept > 500

    def test_backward_clock_never_serves_an_expired_instance(self):
        rng = random.Random(9)
        late = 0
        for _ in range(300):
            store, now = ordered_store(), 20.0
            for _ in range(rng.randrange(10, 80)):
                now = max(0.0, now + rng.choice(STEPS + (-1.0, -3.0, -4.5)))
                if rng.random() < 0.2:
                    before = {s: store.peek(*s) for s in SLOTS if store.peek(*s) is not None}
                    store.expire(now)
                    for (name, key), inst in before.items():
                        expired = idle(now, inst.last_touched, LIFETIMES[name])
                        if store.peek(name, key) is None:
                            assert expired  # never early
                        else:
                            late += expired
                    continue
                name, key = rng.choice(SLOTS)
                prior = store.peek(name, key)
                prior_seen = None if prior is None else prior.last_touched
                got = store.resolve(name, key, now, create=rng.random() < 0.7)
                if got is not None and got is prior:
                    assert not idle(now, prior_seen, LIFETIMES[name])
        assert late > 0  # the clock did put entries out of order
