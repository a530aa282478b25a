from __future__ import annotations

import gc
import random
import time
import tracemalloc
import weakref

import pytest

from sipwall.cli import builtin_ruleset
from sipwall.engine import Engine
from sipwall.gen import (
    build_request,
    build_response,
    gen_bye_attack,
    gen_clean_calls,
    gen_invite_flood,
)
from sipwall.rules import compile_ruleset, parse_ruleset
from sipwall import state
from sipwall.state import GLOBAL_KEY, SWEEP_FLOOR, Scope


def make_engine(text: str, **kwargs) -> Engine:
    return Engine(compile_ruleset(parse_ruleset(text)), **kwargs)


def invite(n: int = 0, branch: str | None = None) -> bytes:
    return build_request(
        "INVITE",
        "sip:bob@gw.example",
        via=f"SIP/2.0/UDP 10.0.0.5:5060;branch={branch or f'z9hG4bKtest{n:04d}'}",
        from_=f"<sip:alice{n}@client.example>;tag=tag{n:04d}",
        to="<sip:bob@gw.example>",
        call_id=f"call-{n:04d}@client.example",
        cseq="1 INVITE",
    )


def request(method: str, cseq: str, branch: str, call_id: str = "c1@x") -> bytes:
    return build_request(
        method,
        "sip:bob@gw.example",
        via=f"SIP/2.0/UDP 10.0.0.5:5060;branch={branch}",
        from_="<sip:alice@client.example>;tag=f1",
        to="<sip:bob@gw.example>;tag=t1",
        call_id=call_id,
        cseq=cseq,
    )


class TestVerdicts:
    def test_empty_ruleset_forwards(self):
        engine = make_engine("")
        verdict = engine.process_message(invite())
        assert verdict.decision == "forward"
        assert verdict.matched_rules == ()
        assert verdict.dropping_rule is None
        assert verdict.processing_time > 0

    def test_drop_rule(self):
        engine = make_engine('secsip "FIELDS:sip.method" "^INVITE$" drop')
        verdict = engine.process_message(invite())
        assert verdict.decision == "drop"
        assert verdict.dropping_rule == 1
        assert verdict.matched_rules == (1,)

    def test_forward_action_is_annotation_only(self):
        # a matching forward rule must not stop later rules from dropping
        engine = make_engine(
            'secsip "FIELDS:sip.method" "^INVITE$" forward\n'
            'secsip "FIELDS:sip.method" "^INVITE$" drop\n'
        )
        verdict = engine.process_message(invite())
        assert verdict.decision == "drop"
        assert verdict.matched_rules == (1, 2)
        assert verdict.dropping_rule == 2

    def test_first_drop_short_circuits(self):
        # both rules are disruptive, so they keep source order; the
        # second one's hold must never execute once the first drops
        engine = make_engine(
            'secsip "FIELDS:sip.method" "^INVITE$" drop\n'
            'secsip "FIELDS:sip.method" "^INVITE$" hold:late=set[FIELDS:sip.from] drop\n'
        )
        assert engine.program.schedule == (1, 2)
        verdict = engine.process_message(invite())
        assert verdict.dropping_rule == 1
        assert verdict.matched_rules == (1,)
        assert engine.store.live_total() == 0

    def test_side_effects_before_drop_persist(self):
        # the counter rule is non-disruptive so it schedules first;
        # its increment lands even though the same message is dropped
        engine = make_engine(
            'secsip "FIELDS:sip.method" "^INVITE$" drop\n'
            'secsip "FIELDS:sip.method" "^INVITE$" declare:seen=counter[0;60]\n'
        )
        program = engine.program
        assert program.schedule == (2, 1)
        verdict = engine.process_message(invite())
        assert verdict.decision == "drop"
        inst = engine.store.peek("seen", GLOBAL_KEY)
        assert inst is not None and inst.value(0.0) == 1

    def test_matched_excludes_non_matching_rules(self):
        program = compile_ruleset(parse_ruleset(builtin_ruleset("bye_attack")))
        engine = Engine(program)
        for rec in gen_clean_calls(calls=2, seed=3):
            verdict = engine.process_message(
                rec.payload, direction=rec.direction, src=rec.src,
                dst=rec.dst, arrival_time=rec.ts,
            )
            assert verdict.decision == "forward"
            if b"BYE" == rec.payload.split(b" ", 1)[0]:
                # genuine BYE: the hold rule is gated to non-BYE and the
                # drop rule's negated membership test fails, so neither matches
                assert verdict.matched_rules == ()


class TestRecompile:
    RULES = 'secsip "FIELDS:sip.uri" "^sip:evil" drop\nsecsip "FIELDS:sip.user_agent" "^bad" drop\n'

    @pytest.mark.parametrize("again", ["subset", "reversed"])
    def test_compiling_the_rules_again_keeps_verdicts(self, again):
        # compiling shares nothing mutable with the parsed rules, so a later
        # compile of the same Rule objects cannot re-point a program's fields
        rules = parse_ruleset(self.RULES)
        program = compile_ruleset(rules)
        built_before = Engine(program)
        compile_ruleset(rules[1:] if again == "subset" else rules[::-1])
        evil_uri = invite().replace(b"INVITE sip:bob@", b"INVITE sip:evil@")
        bad_agent = invite().replace(b"User-Agent: sipwall-gen/0.1", b"User-Agent: bad")
        for engine in (built_before, Engine(program)):
            assert engine.process_message(evil_uri).decision == "drop"
            assert engine.process_message(bad_agent).decision == "drop"
            assert engine.process_message(invite()).decision == "forward"


class TestFailureHandling:
    def test_malformed_message_drops(self):
        engine = make_engine("")
        verdict = engine.process_message(b"not sip at all\r\n\r\n")
        assert verdict.decision == "drop"
        assert verdict.malformed and not verdict.internal_error
        assert engine.stats.malformed == 1
        assert engine.stats.dropped == 0  # counted separately

    def test_internal_error_drops(self, monkeypatch):
        engine = make_engine("")
        def boom(raw):
            raise RuntimeError("induced")
        monkeypatch.setattr(engine.program.parser, "parse_message", boom)
        verdict = engine.process_message(invite())
        assert verdict.decision == "drop"
        assert verdict.internal_error and not verdict.malformed
        assert engine.stats.internal_errors == 1
        assert engine.stats.dropped == 1

    def test_evaluation_error_drops(self, monkeypatch):
        engine = make_engine('secsip "FIELDS:sip.method" "^INVITE$" drop')
        monkeypatch.setattr(
            engine, "_evaluate", lambda ctx: (_ for _ in ()).throw(ValueError("x"))
        )
        verdict = engine.process_message(invite())
        assert verdict.decision == "drop"
        assert verdict.internal_error


class TestClauseSemantics:
    def test_absent_field_is_false_even_negated(self):
        # absence wins before negation: neither polarity matches
        plain = make_engine('secsip "FIELDS:sip.contact" "." drop')
        negated = make_engine('secsip "FIELDS:sip.contact" "!." drop')
        msg = invite()  # gen omits Contact unless asked
        assert plain.process_message(msg).decision == "forward"
        assert negated.process_message(msg).decision == "forward"

    @pytest.mark.parametrize("test", ["@in addrs", "!@in addrs"])
    def test_absent_scope_key_is_false(self, test):
        # dialog-scoped read with no Call-ID: the clause is false in
        # both polarities, same as an absent field
        engine = make_engine(
            "secsipaction hold:addrs=set[FIELDS:sip.from]\n"
            f'secsip "FIELDS:sip.from" "{test}" drop\n'
        )
        msg = (
            b"OPTIONS sip:x@y SIP/2.0\r\n"
            b"Via: SIP/2.0/UDP 10.0.0.5;branch=z9hG4bKopt1\r\n"
            b"From: <sip:a@b>;tag=1\r\nTo: <sip:x@y>\r\n"
            b"CSeq: 1 OPTIONS\r\nContent-Length: 0\r\n\r\n"
        )
        assert engine.process_message(msg).decision == "forward"

    def test_net_src_addr_clause(self):
        engine = make_engine('secsip "FIELDS:net.src_addr" "^10\\." drop')
        msg = invite()
        v1 = engine.process_message(msg, src=("10.0.0.5", 5060))
        v2 = engine.process_message(msg, src=("192.0.2.9", 5060))
        v3 = engine.process_message(msg)  # no source metadata: clause false
        assert v1.decision == "drop"
        assert v2.decision == "forward"
        assert v3.decision == "forward"

    def test_evaluate_clause(self):
        engine = make_engine(
            'secsip "FIELDS:sip.method" "^INVITE$" && "FIELDS:sip.contact" "!." drop'
        )
        ctx = engine.context_for(engine.program.parser.parse_message(invite()))
        method, contact = engine.program.rules[0].clauses
        assert engine.evaluate_clause(method, ctx) is True
        assert engine.evaluate_clause(contact, ctx) is False  # absent, even negated

    def test_bare_target_means_present_and_nonempty(self):
        engine = make_engine("secsip FIELDS:sip.contact drop")
        empty_only = make_engine('secsip "FIELDS:sip.contact" "!" drop')
        head = (
            b"OPTIONS sip:x@y SIP/2.0\r\nVia: SIP/2.0/UDP 10.0.0.5;branch=z9hG4bKo1\r\n"
            b"From: <sip:a@b>;tag=1\r\nTo: <sip:x@y>\r\nCall-ID: o@x\r\nCSeq: 1 OPTIONS\r\n"
        )
        for contact, bare, negated in (
            (b"", "forward", "forward"),  # absent
            (b"Contact: \r\n", "forward", "drop"),  # present but empty
            (b"Contact: <sip:a@10.0.0.1>\r\n", "drop", "forward"),
        ):
            msg = head + contact + b"\r\n"
            assert engine.process_message(msg).decision == bare, contact
            assert empty_only.process_message(msg).decision == negated, contact

    def test_hold_from_net_src_addr(self):
        engine = make_engine(
            'secsip "FIELDS:sip.method" "^INVITE$" hold:srcs=set[FIELDS:net.src_addr]@global\n'
            'secsip "FIELDS:net.src_addr" "@in srcs" drop\n'
        )
        decisions = [
            engine.process_message(invite(n), src=("10.0.0.1", 5060)).decision for n in range(3)
        ]
        # the declaring hold runs before its reader, so even the first INVITE drops
        assert decisions == ["drop", "drop", "drop"]
        assert engine.store.peek("srcs", GLOBAL_KEY).contains("10.0.0.1")
        # without source metadata there is nothing to hold or test
        assert engine.process_message(invite(9)).decision == "forward"

    def test_compact_contact_is_no_evasion(self):
        engine = make_engine('SecSip "FIELDS:sip.contact" "evil" drop')
        head = (
            b"OPTIONS sip:x@y SIP/2.0\r\nVia: SIP/2.0/UDP 10.0.0.5;branch=z9hG4bKo1\r\n"
            b"From: <sip:a@b>;tag=1\r\nTo: <sip:x@y>\r\nCall-ID: o@x\r\nCSeq: 1 OPTIONS\r\n"
        )
        for contact in (b"Contact: <sip:evil@host>", b"m: <sip:evil@host>", b"M :<sip:evil@host>"):
            assert engine.process_message(head + contact + b"\r\n\r\n").decision == "drop", contact

    def test_in_read_creates_no_state(self):
        # forged BYEs on unknown dialogs: all dropped, and nothing is kept
        engine = make_engine(builtin_ruleset("bye_attack"))
        for n in range(1000):
            bye = build_request(
                "BYE", "sip:bob@gw.example",
                via=f"SIP/2.0/UDP 203.0.113.66;branch=z9hG4bKbye{n}",
                from_="<sip:alice@client.example>;tag=x", to="<sip:bob@gw.example>;tag=y",
                call_id=f"unknown-{n}@attack.example", cseq="2 BYE",
            )
            assert engine.process_message(bye, arrival_time=n * 0.001).decision == "drop"
        assert engine.store.live_total() == 0

    def test_hold_skips_absent_source(self):
        engine = make_engine(
            'secsip "FIELDS:sip.method" "^INVITE$" hold:contacts=set[FIELDS:sip.contact]'
        )
        engine.process_message(invite(), arrival_time=0.0)  # no Contact header
        assert engine.store.live_total() == 0


# one global counter per transaction class, each bumped only in its phase
PHASE_RULES = (
    'secsip phase:invite "FIELDS:sip.cseq.method" "." declare:inv=counter[0;60]\n'
    'secsip phase:non-invite "FIELDS:sip.cseq.method" "." declare:non=counter[0;60]\n'
)


def class_counts(engine: Engine) -> tuple[int, int]:
    """(INVITE-class, non-INVITE-class) messages seen under PHASE_RULES."""
    out = []
    for name in ("inv", "non"):
        inst = engine.store.peek(name, GLOBAL_KEY)
        out.append(0 if inst is None else int(inst.value(0.0)))
    return tuple(out)


class TestPhaseGating:

    def test_invite_class_messages(self):
        engine = make_engine(PHASE_RULES)
        engine.process_message(request("INVITE", "1 INVITE", "z9hG4bKa"))
        engine.process_message(request("ACK", "1 ACK", "z9hG4bKb"))
        assert class_counts(engine) == (2, 0)

    def test_non_invite_class_messages(self):
        engine = make_engine(PHASE_RULES)
        engine.process_message(request("REGISTER", "1 REGISTER", "z9hG4bKc"))
        engine.process_message(request("BYE", "2 BYE", "z9hG4bKd"))
        assert class_counts(engine) == (0, 2)

    def test_no_transaction_key_skips_phased_rules(self):
        engine = make_engine(PHASE_RULES)
        msg = (
            b"INVITE sip:x@y SIP/2.0\r\n"
            b"Via: SIP/2.0/UDP 10.0.0.5\r\n"  # no branch
            b"From: <sip:a@b>;tag=1\r\nTo: <sip:x@y>\r\n"
            b"Call-ID: k@x\r\nCSeq: 1 INVITE\r\nContent-Length: 0\r\n\r\n"
        )
        assert engine.process_message(msg).decision == "forward"
        assert class_counts(engine) == (0, 0)


class TestTransactions:
    def test_invite_walk(self):
        engine = make_engine(PHASE_RULES)
        branch = "z9hG4bKwalk1"
        engine.process_message(request("INVITE", "1 INVITE", branch), arrival_time=0.0)
        head = dict(
            via=f"SIP/2.0/UDP 10.0.0.5:5060;branch={branch}",
            from_="<sip:alice@client.example>;tag=f1",
            to="<sip:bob@gw.example>;tag=t1",
            call_id="c1@x", cseq="1 INVITE",
        )
        r180 = build_response(180, "Ringing", **head)
        engine.process_message(r180, direction="out", arrival_time=0.2)
        engine.process_message(build_response(200, "OK", **head), direction="out", arrival_time=0.4)
        engine.process_message(r180, direction="out", arrival_time=0.5)  # late 1xx
        # every message of the walk is INVITE class and lands on one record
        assert class_counts(engine) == (4, 0)
        assert engine.transactions.records == {(branch, "INVITE"): 0.5}

    def test_ack_is_invite_class(self):
        engine = make_engine(PHASE_RULES)
        engine.process_message(request("ACK", "1 ACK", "z9hG4bKack1"), arrival_time=3.0)
        assert class_counts(engine) == (1, 0)
        assert engine.transactions.records == {("z9hG4bKack1", "ACK"): 3.0}

    def test_unmatched_response_creates_record(self):
        engine = make_engine(PHASE_RULES)
        r200 = build_response(
            200, "OK",
            via="SIP/2.0/UDP 10.0.0.5:5060;branch=z9hG4bKlone",
            from_="<sip:a@b>;tag=1", to="<sip:x@y>;tag=2",
            call_id="lone@x", cseq="7 REGISTER",
        )
        engine.process_message(r200, direction="out", arrival_time=1.0)
        assert class_counts(engine) == (0, 1)
        assert engine.transactions.records == {("z9hG4bKlone", "REGISTER"): 1.0}

    def test_non_invite_walk(self):
        engine = make_engine(PHASE_RULES)
        branch = "z9hG4bKreg1"
        engine.process_message(request("REGISTER", "1 REGISTER", branch), arrival_time=0.0)
        r200 = build_response(
            200, "OK",
            via=f"SIP/2.0/UDP 10.0.0.5:5060;branch={branch}",
            from_="<sip:alice@client.example>;tag=f1",
            to="<sip:bob@gw.example>;tag=t1",
            call_id="c1@x", cseq="1 REGISTER",
        )
        engine.process_message(r200, direction="out", arrival_time=0.3)
        assert class_counts(engine) == (0, 2)
        assert engine.transactions.records == {(branch, "REGISTER"): 0.3}

    def test_transaction_sweep(self):
        program = compile_ruleset(parse_ruleset(""), scope_lifetimes={Scope.TRANSACTION: 1.0})
        engine = Engine(program, sweep_period=4)
        for n in range(4):
            engine.process_message(invite(n), arrival_time=float(n) * 0.1)
        assert engine.transactions.live() == 4
        # 4 more messages well past the lifetime; periodic sweep fires
        for n in range(4, 8):
            engine.process_message(invite(n), arrival_time=10.0 + n * 0.1)
        assert engine.transactions.live() == 4
        # the sweep keeps a key seen within the lifetime, however old its first sighting
        engine.process_message(invite(4), arrival_time=10.9)
        assert engine.transactions.sweep(11.8) == 3
        assert list(engine.transactions.records) == [("z9hG4bKtest0004", "INVITE")]

    def test_tracker_takes_the_program_transaction_lifetime(self):
        program = compile_ruleset(parse_ruleset(""), scope_lifetimes={Scope.TRANSACTION: 1.0})
        engine = Engine(program)
        engine.process_message(invite(0), arrival_time=0.0)
        assert engine.transactions.sweep(2.0) == 1  # idle 2 s against a 1 s lifetime
        assert engine.transactions.live() == 0

    def test_no_transaction_lifetime_never_sweeps(self):
        program = compile_ruleset(parse_ruleset(""), scope_lifetimes={Scope.TRANSACTION: None})
        engine = Engine(program, sweep_period=1)
        engine.process_message(invite(0), arrival_time=0.0)
        engine.process_message(invite(1), arrival_time=1e9)
        engine.end_of_trace()
        assert engine.transactions.live() == 2


class TestSweepBound:
    def test_a_backlog_is_swept_in_bounded_steps(self):
        # a flood, then an idle gap longer than every lifetime: the whole
        # flood has expired at once, and no one message may pay for it
        program = compile_ruleset(parse_ruleset(builtin_ruleset("invite_flood")))
        engine = Engine(program, sweep_period=256)
        # 256 new entries per table per sweep: the limit is the floor
        limit = max(SWEEP_FLOOR, 2 * 256)
        assert limit == 1024
        flood = gen_invite_flood(count=47 * limit, rate=2000.0, seed=11)
        after = gen_invite_flood(count=47 * 256, rate=2000.0, seed=12, start=flood[-1].ts + 3600.0)
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for r in flood:
                engine.process_message(r.payload, src=r.src, arrival_time=r.ts)
            backlog = engine.transactions.live()
            assert backlog == len(flood) and engine.store.live_total() == len(flood) + 1
            lives = []
            for i, r in enumerate(after):
                v = engine.process_message(r.payload, src=r.src, arrival_time=r.ts)
                if i == 255:  # the first sweep after the gap
                    assert v.processing_time < 0.005
                if i % 256 == 255:
                    lives.append((engine.store.live_total(), engine.transactions.live()))
        finally:
            if was_enabled:
                gc.enable()
        # each sweep evicts `limit` expired entries per table while 256 fresh
        # ones arrive, so the backlog is gone after backlog / limit sweeps
        assert len(lives) == backlog // limit == 47
        for k, (live, tx) in enumerate(lives, 1):
            assert tx == backlog - k * limit + k * 256
            assert live == tx + 1  # one dialog instance per INVITE, one global counter
        engine.end_of_trace()
        assert (engine.store.live_total(), engine.transactions.live()) == lives[-1]

    def test_sweeps_keep_up_with_many_holds_per_dialog(self):
        # six dialog objects share one table, so each flood INVITE adds six
        # instances: 1,536 per 256-message sweep, more than the floor
        holds = 6
        text = "".join(
            f"secsipaction hold:h{i}=set[FIELDS:sip.from]\n" for i in range(holds)
        )
        program = compile_ruleset(parse_ruleset(text), scope_lifetimes={Scope.DIALOG: 1.0})
        engine = Engine(program, sweep_period=256)
        rate = 2000.0
        flood = gen_invite_flood(count=24_000, rate=rate, seed=13)  # 12 lifetimes
        peak = 0
        for i, r in enumerate(flood):
            engine.process_message(r.payload, src=r.src, arrival_time=r.ts)
            if i % 256 == 255:
                peak = max(peak, engine.store.live_total())
        # one lifetime of live instances and the sweep period's arrivals;
        # a cap that lagged the arrivals would add 512 per sweep, past this
        # bound within a few lifetimes
        assert peak <= holds * (rate * 1.0 + 2 * 256)
        assert peak >= holds * rate * 1.0

    def test_end_of_trace_drains_past_the_limit(self, monkeypatch):
        monkeypatch.setattr(state, "SWEEP_FLOOR", 2)
        engine = make_engine("secsipaction hold:peers=set[FIELDS:sip.from]\n", sweep_period=10**6)
        for n in range(7):
            engine.process_message(invite(n), arrival_time=float(n))
        # a sweep that finds nothing idle sets each table's size to grow from
        assert engine.store.expire(6.0) == 0 and engine.transactions.sweep(6.0) == 0
        engine.process_message(invite(7), arrival_time=1e6)
        # one entry since then: twice that is the floor
        assert engine.store.expire(1e6) == 2 and engine.transactions.sweep(1e6) == 2
        engine.end_of_trace()
        assert engine.store.live_total() == engine.transactions.live() == 1


class TestScopes:
    def test_dialog_isolation(self):
        engine = make_engine(
            "secsipaction hold:peers=set[FIELDS:sip.from]\n"
            'secsip "FIELDS:sip.from" "!@in peers" drop\n'
        )
        # same From value in two different dialogs: each dialog sees
        # only its own membership, so neither message drops
        a = invite(1)
        b = invite(2)
        assert engine.process_message(a).decision == "forward"
        assert engine.process_message(b).decision == "forward"
        assert engine.store.live_total() == 2

    def test_dialog_store_eviction(self):
        program = compile_ruleset(
            parse_ruleset("secsipaction hold:peers=set[FIELDS:sip.from]\n"),
            scope_lifetimes={Scope.DIALOG: 1.0},
        )
        engine = Engine(program, sweep_period=4)
        for n in range(4):
            engine.process_message(invite(n), arrival_time=float(n) * 0.01)
        assert engine.store.live_total() == 4
        for n in range(4, 8):
            engine.process_message(invite(n), arrival_time=100.0 + n * 0.01)
        assert engine.store.live_total() == 4
        engine.end_of_trace()

    def test_end_of_trace_expires_at_trace_clock(self):
        program = compile_ruleset(
            parse_ruleset("secsipaction hold:peers=set[FIELDS:sip.from]\n"),
            scope_lifetimes={Scope.DIALOG: 5.0},
        )
        engine = Engine(program)
        engine.process_message(invite(0), arrival_time=0.0)
        engine.process_message(invite(1), arrival_time=100.0)
        engine.end_of_trace()
        # the first dialog aged out at trace time 100, the second is fresh
        assert engine.store.live_total() == 1


class TestSnapshots:
    def test_zero_state(self):
        snap = make_engine("").snapshot()
        assert snap["processed"] == 0
        assert snap["forwarded"] == 0
        assert snap["dropped"] == 0
        assert snap["malformed"] == 0
        assert snap["internal_errors"] == 0
        assert snap["drops_by_rule"] == {}
        assert snap["live_instances_total"] == 0
        assert snap["live_transactions"] == 0

    def test_counts_add_up(self):
        program = compile_ruleset(parse_ruleset(builtin_ruleset("bye_attack")))
        engine = Engine(program)
        for rec in gen_bye_attack(calls=5, seed=11):
            engine.process_message(
                rec.payload, direction=rec.direction, src=rec.src,
                dst=rec.dst, arrival_time=rec.ts,
            )
        snap = engine.snapshot()
        assert snap["processed"] == 30  # 6 messages per call
        assert snap["forwarded"] == 25
        assert snap["dropped"] == 5
        assert snap["drops_by_rule"] == {2: 5}

    def test_sweep_is_charged_to_its_message(self, monkeypatch):
        engine = make_engine("", sweep_period=2)
        expire = engine.store.expire

        def slow_expire(now):
            time.sleep(0.02)
            return expire(now)

        monkeypatch.setattr(engine.store, "expire", slow_expire)
        engine.process_message(invite(0))
        swept = engine.process_message(invite(1))  # the second message sweeps
        assert swept.processing_time >= 0.02
        assert engine.process_message(invite(2)).processing_time < 0.02  # no sweep

    def test_dropped_engine_freed_without_gc(self):
        # compiled rules must not hold their engine: a cycle would keep a
        # dropped engine and all its state alive until the cyclic collector runs
        engine = Engine(compile_ruleset(parse_ruleset(builtin_ruleset("collections"))))
        ref = weakref.ref(engine)
        gc.disable()
        try:
            del engine
            assert ref() is None
        finally:
            gc.enable()

    def test_latency_kept_only_in_verdicts(self):
        # a long-running proxy must not grow memory per message for latency
        engine = make_engine("")
        # growth from the second to the third 2,000-message window: the first
        # and second fill allocator pools, which level off, while a leak
        # grows in every window
        msg = invite()  # one transaction key, so the tracker stays at one record
        for _ in range(2000):
            assert engine.process_message(msg).processing_time > 0
        tracemalloc.start()
        try:
            for _ in range(2000):
                engine.process_message(msg)
            gc.collect()
            before = tracemalloc.take_snapshot()
            for _ in range(2000):
                engine.process_message(msg)
            gc.collect()
            grown = tracemalloc.take_snapshot().compare_to(before, "filename")
        finally:
            tracemalloc.stop()
        assert sum(max(0, d.size_diff) for d in grown if "sipwall" in str(d.traceback)) < 2000


class TestMemory:
    def test_bytes_kept_per_flood_invite(self):
        # with the sweep off every flood INVITE keeps its dialog instance and
        # its transaction record; 20k of them bound what one costs
        engine = Engine(
            compile_ruleset(parse_ruleset(builtin_ruleset("invite_flood"))), sweep_period=10**9
        )
        records = gen_invite_flood(count=20_000, rate=100.0, seed=3)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for r in records:
                engine.process_message(r.payload, src=r.src, arrival_time=r.ts)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert engine.store.live_total() == 20_001 and engine.transactions.live() == 20_000
        assert kept / len(records) <= 850

    def test_repeated_values_add_nothing_to_a_collection(self):
        # one dialog whose From and Via branch never change: once the first
        # message has stored them, the repeats keep no further bytes
        engine = Engine(
            compile_ruleset(parse_ruleset(builtin_ruleset("collections"))), sweep_period=10**9
        )
        from_ = f"<sip:{'a' * 900}@client.example>;tag=f1"
        msgs = [
            build_request(
                "INFO", "sip:bob@gw.example",
                via="SIP/2.0/UDP 10.0.0.5:5060;branch=z9hG4bKrepeat",
                from_=from_, to="<sip:bob@gw.example>;tag=t1",
                call_id="repeat@client.example", cseq=f"{n + 2} INFO",
            )
            for n in range(20_000)
        ]
        for n, raw in enumerate(msgs[:10_000]):
            engine.process_message(raw, arrival_time=n * 0.001)
        gc.collect()
        tracemalloc.start()  # counts only what the second 10,000 allocate
        try:
            for n, raw in enumerate(msgs[10_000:], 10_000):
                engine.process_message(raw, arrival_time=n * 0.001)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert engine.store.live_total() == 2
        assert kept < 64 * 1024


class TestDeterminism:
    def test_same_trace_same_verdicts(self):
        text = builtin_ruleset("invite_flood")
        records = gen_invite_flood(count=60, rate=5.0, seed=9)
        runs = []
        for _ in range(2):
            engine = Engine(compile_ruleset(parse_ruleset(text)))
            runs.append(
                [
                    engine.process_message(
                        r.payload, direction=r.direction, src=r.src,
                        dst=r.dst, arrival_time=r.ts,
                    ).decision
                    for r in records
                ]
            )
        assert runs[0] == runs[1]

    def test_flood_decisions_match_reference(self):
        # simulate the leaky counter by hand over a jittered timeline
        rng = random.Random(1234)
        times = []
        t = 0.0
        for _ in range(120):
            times.append(round(t, 6))
            t += rng.uniform(0.05, 4.0)

        engine = Engine(compile_ruleset(parse_ruleset(builtin_ruleset("invite_flood"))))
        got = []
        for n, ts in enumerate(times):
            verdict = engine.process_message(invite(n), arrival_time=ts)
            got.append(verdict.decision)

        expected = []
        value = 0
        next_epoch: float | None = None
        for ts in times:
            if next_epoch is None:
                next_epoch = ts + 60.0
            while next_epoch <= ts:
                value = max(0, value - 10)
                next_epoch += 60.0
            value += 1
            expected.append("drop" if value > 15 else "forward")
        assert got == expected
