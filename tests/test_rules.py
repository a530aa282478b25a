from __future__ import annotations

import random

import pytest

from sipwall.cli import builtin_ruleset
from sipwall.parser import FieldPath
from sipwall.rules import (
    ActionKind,
    RuleError,
    ClauseKind,
    compile_ruleset,
    format_rule,
    format_ruleset,
    parse_ruleset,
    schedule_rules,
)
from sipwall.state import ContainerKind, Scope

BYE_RULES = builtin_ruleset("bye_attack")
FLOOD_RULES = builtin_ruleset("invite_flood")
EXAMPLE_RULES = builtin_ruleset("example")
COLLECTION_RULES = builtin_ruleset("collections")


def reversed_lines(text: str) -> str:
    lines = [l for l in text.splitlines() if l.strip() and not l.strip().startswith("#")]
    return "\n".join(reversed(lines))


class TestParsing:
    def test_builtin_rulesets_parse(self):
        for text in (BYE_RULES, FLOOD_RULES, EXAMPLE_RULES, COLLECTION_RULES):
            assert parse_ruleset(text)

    def test_bye_rules_structure(self):
        hold, drop = parse_ruleset(BYE_RULES)
        assert hold.rule_id == 1 and drop.rule_id == 2
        assert not hold.disruptive and drop.disruptive
        assert hold.declares == {"from_list"}
        (clause,) = hold.clauses
        assert clause.kind is ClauseKind.REGEX and clause.negated
        assert clause.target == FieldPath.parse("FIELDS:sip.method")
        assert drop.reads == {"from_list"}
        first, second = drop.clauses
        assert not first.negated
        assert second.kind is ClauseKind.IN and second.negated
        assert second.object_name == "from_list"

    def test_directive_synonyms_and_case(self):
        for directive in ("secsip", "SecSipRule", "SECSIPACTION"):
            (rule,) = parse_ruleset(f'{directive} "FIELDS:sip.method" "^BYE$" drop')
            assert rule.disruptive

    def test_bare_targets_accepted(self):
        (rule,) = parse_ruleset('secsip FIELDS:sip.method "^INVITE$" drop')
        assert isinstance(rule.clauses[0].target, FieldPath)
        rules = parse_ruleset(
            'secsip "FIELDS:sip.method" "^INVITE$" declare:rate=counter[10;60]\n'
            'secsip rate "@gt 15" drop'
        )
        assert rules[1].clauses[0].target == "rate"

    def test_object_names_lowercased(self):
        rules = parse_ruleset(
            "SecSip hold:FROM_LIST=set[MESSAGE_HEADERS:sip.from]\n"
            'SecSip "FIELDS:sip.method" "^BYE$" && "FIELDS:sip.from" "!@in from_list" drop'
        )
        assert rules[0].declares == {"from_list"}
        compile_ruleset(rules)  # the mixed-case reference resolves

    def test_phase_token(self):
        (rule,) = parse_ruleset('secsip phase:invite "FIELDS:sip.method" "." drop')
        assert rule.phase == "invite"
        (rule,) = parse_ruleset('secsip phase:non-invite "FIELDS:sip.method" "." drop')
        assert rule.phase == "non-invite"
        with pytest.raises(RuleError):
            parse_ruleset('secsip phase:banana "FIELDS:sip.method" "." drop')

    def test_comments_and_blanks_skipped(self):
        rules = parse_ruleset("# top\n\n  # indented comment\nsecsip \"FIELDS:sip.method\" \".\" drop\n")
        assert len(rules) == 1
        assert rules[0].lineno == 4

    def test_operator_parsing(self):
        (rule,) = parse_ruleset('secsip "FIELDS:sip.content_length" "@gt 914" drop')
        clause = rule.clauses[0]
        assert clause.kind is ClauseKind.GT and clause.operand == 914

    def test_normalize_clause(self):
        (rule,) = parse_ruleset('secsip "FIELDS:sip.uri" "@normalize 64" forward')
        assert rule.clauses[0].kind is ClauseKind.NORMALIZE
        parser = compile_ruleset([rule]).parser
        raw = b"INVITE sip:" + b"u" * 100 + b"@gw.example SIP/2.0\r\nCall-ID: n@x\r\n\r\n"
        uri = parser.parse_message(raw).nodes[parser.field_id("FIELDS:sip.uri")].value
        assert uri == "sip:" + "u" * 60  # capped at 64 bytes by the parser

    def test_scope_suffixes(self):
        rules = parse_ruleset(
            "secsip hold:seen=set[FIELDS:sip.from]@global\n"
            'secsip "FIELDS:sip.method" "^INVITE$" declare:per_call=counter[1;60]@dialog'
        )
        program = compile_ruleset(rules)
        assert program.declared_objects["seen"].scope is Scope.GLOBAL
        assert program.declared_objects["per_call"].scope is Scope.DIALOG

    @pytest.mark.parametrize(
        "line,fragment",
        [
            ('secsip "FIELDS:sip.method" "^BYE$"', "no action"),
            ("secsip drop", "must declare"),
            ('secsip "FIELDS:sip.method" "^BYE$" && drop', "dangling &&"),
            ('secsip "FIELDS:sip.method" "(a\\1" drop', "backreference"),
            ('secsip "FIELDS:sip.method" "(unclosed" drop', "bad regex"),
            ('secsip "FIELDS:sip.method" "@frobnicate 3" drop', "unknown operator"),
            ('secsip "FIELDS:sip.method" "@gt pear" drop', "integer"),
            ('secsip "FIELDS:sip.method" "@gt" drop', "argument"),
            ('secsip "FIELDS:sip.nope" "." drop', "unknown field"),
            ('secsip "FIELDS:sip.method" "^BYE$" hold:x=heap[FIELDS:sip.from]', "malformed action"),
            ('secsip "FIELDS:sip.method" "^BYE$" declare:x=counter[1;0]', "interval"),
            ('secsip "FIELDS:sip.method" "unterminated drop', "unterminated"),
            ('frobnicate "FIELDS:sip.method" "." drop', "directive"),
            ('secsip rate "^INVITE$" drop', "field target"),
            ('secsip "FIELDS:sip.uri" "!@normalize 10" forward', "negated"),
            ('secsip x "@gt 1" declare:x=counter[1;60]', "declares and reads"),
        ],
    )
    def test_rejects(self, line, fragment):
        with pytest.raises(RuleError) as err:
            parse_ruleset(line)
        assert fragment in str(err.value)

    def test_error_carries_line_number(self):
        with pytest.raises(RuleError) as err:
            parse_ruleset('secsip "FIELDS:sip.method" "." drop\nsecsip nonsense')
        assert err.value.lineno == 2


class TestCompile:
    def test_duplicate_declaration(self):
        rules = parse_ruleset(
            "secsip hold:seen=set[FIELDS:sip.from]\nsecsip hold:seen=set[FIELDS:sip.to]"
        )
        with pytest.raises(RuleError) as err:
            compile_ruleset(rules)
        assert "more than once" in str(err.value)

    def test_dangling_read(self):
        rules = parse_ruleset('secsip ghost "@gt 1" drop')
        with pytest.raises(RuleError) as err:
            compile_ruleset(rules)
        assert "never declared" in str(err.value)

    def test_dotted_name_needs_parent(self):
        rules = parse_ruleset(
            'secsip "FIELDS:sip.method" "^INVITE$" declare:tr.count=counter[10;60]'
        )
        with pytest.raises(RuleError) as err:
            compile_ruleset(rules)
        assert "parent object" in str(err.value)

    def test_type_mismatches(self):
        rules = parse_ruleset(
            "secsip hold:seen=set[FIELDS:sip.from]\nsecsip seen \"@gt 1\" drop"
        )
        with pytest.raises(RuleError) as err:
            compile_ruleset(rules)
        assert "needs a counter" in str(err.value)

        rules = parse_ruleset(
            'secsip "FIELDS:sip.method" "^INVITE$" declare:rate=counter[10;60]\n'
            'secsip "FIELDS:sip.from" "@in rate" drop'
        )
        with pytest.raises(RuleError) as err:
            compile_ruleset(rules)
        assert "needs a collection" in str(err.value)

    def test_descriptor_defaults(self):
        program = compile_ruleset(parse_ruleset(BYE_RULES))
        desc = program.declared_objects["from_list"]
        assert desc.kind is ContainerKind.SET
        assert desc.scope is Scope.DIALOG
        assert desc.lifetime == 1800.0
        assert desc.max_value_len == 1024

        program = compile_ruleset(parse_ruleset(EXAMPLE_RULES))
        rate = program.declared_objects["rate"]
        assert rate.scope is Scope.GLOBAL
        assert rate.lifetime is None
        assert rate.leak_amount == 10 and rate.leak_interval == 60.0

    def test_compile_leaves_rules_untouched(self):
        rules = parse_ruleset(BYE_RULES + '\nsecsip "FIELDS:sip.user_agent" "@normalize 8" forward')

        def state_of(rules):
            return [[dict(vars(part)) for part in (rule, *rule.clauses, *rule.actions)]
                    for rule in rules]

        parsed = state_of(rules)
        compile_ruleset(rules)
        compile_ruleset(rules[::-1])
        assert state_of(rules) == parsed

    def test_field_outside_the_catalog_names_its_line(self):
        (rule,) = parse_ruleset('secsip "FIELDS:sip.uri" "^sip:" drop')
        rule.lineno = 7
        rule.clauses[0].target = FieldPath("FIELDS", ("sip", "nope"))
        with pytest.raises(RuleError, match="line 7: unknown field FIELDS:sip.nope"):
            compile_ruleset([rule])

    def test_normalize_cap_reaches_hold_descriptor(self):
        rules = parse_ruleset(
            'secsip "FIELDS:sip.from" "@normalize 48" forward\n'
            "secsip hold:seen=set[FIELDS:sip.from]"
        )
        program = compile_ruleset(rules)
        assert program.declared_objects["seen"].max_value_len == 48

    def test_lifetime_overrides(self):
        program = compile_ruleset(
            parse_ruleset(BYE_RULES), scope_lifetimes={Scope.DIALOG: 9.0}
        )
        assert program.declared_objects["from_list"].lifetime == 9.0

    def test_always_on_fields_registered(self):
        program = compile_ruleset(parse_ruleset(EXAMPLE_RULES))
        for path in (
            "FIELDS:sip.call_id",
            "FIELDS:sip.from.tag",
            "FIELDS:sip.to.tag",
            "FIELDS:sip.via.branch",
            "FIELDS:sip.cseq.method",
        ):
            assert program.parser.field_id(path) is not None


class TestSchedule:
    def test_declarer_before_reader(self):
        program = compile_ruleset(parse_ruleset(EXAMPLE_RULES))
        assert program.schedule == (1, 2)

    def test_reversed_example_still_declarer_first(self):
        rules = parse_ruleset(reversed_lines(EXAMPLE_RULES))
        program = compile_ruleset(rules)
        declarer = next(r.rule_id for r in rules if r.declares)
        reader = next(r.rule_id for r in rules if not r.declares)
        order = list(program.schedule)
        assert order.index(declarer) < order.index(reader)

    def test_flood_chain_order(self):
        for text in (FLOOD_RULES, reversed_lines(FLOOD_RULES)):
            rules = parse_ruleset(text)
            program = compile_ruleset(rules)
            pos = {rid: i for i, rid in enumerate(program.schedule)}
            by_obj = {next(iter(r.declares)): r.rule_id for r in rules if r.declares}
            drop_rule = next(r.rule_id for r in rules if r.disruptive)
            assert pos[by_obj["tr"]] < pos[by_obj["tr.count"]] < pos[drop_rule]

    def test_independent_rules_keep_source_order(self):
        rules = parse_ruleset(
            'secsip "FIELDS:sip.method" "^A$" drop\nsecsip "FIELDS:sip.method" "^B$" drop'
        )
        assert schedule_rules(rules) == (1, 2)

    def test_non_disruptive_first_among_unconstrained(self):
        rules = parse_ruleset(
            'secsip "FIELDS:sip.method" "^A$" drop\n'
            "secsip hold:seen=set[FIELDS:sip.from]"
        )
        assert schedule_rules(rules) == (2, 1)

    def test_cycle_detected(self):
        rules = parse_ruleset(
            'secsip a "@gt 1" declare:b=counter[1;60]\n'
            'secsip b "@gt 1" declare:a=counter[1;60]'
        )
        with pytest.raises(RuleError) as err:
            compile_ruleset(rules)
        assert "cycle" in str(err.value)
        assert "R1" in str(err.value) and "R2" in str(err.value)

    def test_permutations_schedule_all_rules(self):
        rng = random.Random(7)
        base = parse_ruleset(FLOOD_RULES)
        lines = [l for l in FLOOD_RULES.splitlines() if l.strip() and not l.startswith("#")]
        for _ in range(6):
            rng.shuffle(lines)
            program = compile_ruleset(parse_ruleset("\n".join(lines)))
            assert sorted(program.schedule) == [1, 2, 3]
            assert len(program.rules) == len(base)


class TestFormatting:
    def test_roundtrip_builtins(self):
        for text in (BYE_RULES, FLOOD_RULES, EXAMPLE_RULES, COLLECTION_RULES):
            for rule in parse_ruleset(text):
                printed = format_rule(rule)
                (reparsed,) = parse_ruleset(printed)
                assert reparsed == rule

    def test_roundtrip_synthetic(self):
        text = "\n".join(
            [
                'secsip phase:invite "FIELDS:sip.method" "^INVITE$" declare:rate=counter[0;5]@transaction',
                'secsip rate "@ge 3" && "FIELDS:sip.uri" "@normalize 99" drop',
                'secsip "FIELDS:sip.from" "!@in seen" forward',
                "secsip hold:seen=bag[FIELDS:sip.from.addr]@global",
                'secsip "BODY:raw" "a{2,3}\\"b" drop',
            ]
        )
        rules = parse_ruleset(text)
        reparsed = parse_ruleset(format_ruleset(rules))
        assert reparsed == rules

    def test_roundtrip_bare_target(self):
        # a bare target prints as an empty test and keeps its meaning
        rules = parse_ruleset(
            'secsip FIELDS:sip.contact drop\n'
            'secsip "FIELDS:sip.to.tag" "!" && "FIELDS:sip.from" forward\n'
        )
        reparsed = parse_ruleset(format_ruleset(rules))
        assert reparsed == rules
        for clause in (c for r in reparsed for c in r.clauses):
            assert clause.pattern == ""
            assert clause.regex.search("") is None and clause.regex.search("x")

    def test_format_stable(self):
        rules = parse_ruleset(BYE_RULES)
        once = format_ruleset(rules)
        assert format_ruleset(parse_ruleset(once)) == once
