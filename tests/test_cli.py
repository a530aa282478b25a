from __future__ import annotations

import pytest

from sipwall.bench import CSV_HEADER, synthetic_ruleset
from sipwall.cli import builtin_ruleset, main


class TestCheck:
    def test_builtin_schedule(self, capsys):
        assert main(["check", "--rules", "builtin:invite_flood"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[-1] == "schedule ok (3 rules)"
        assert out[0].startswith("R1: secsip hold:tr=set[FIELDS:sip.via.branch]")
        assert "[declares: tr]" in out[0]
        assert "[declares: tr.count]" in out[1]
        assert "[reads: tr.count]" in out[2]

    def test_schedule_order_not_source_order(self, capsys, tmp_path):
        path = tmp_path / "rev.rules"
        path.write_text(
            'secsip rate "@ge 80" drop\n'
            'secsip "FIELDS:sip.method" "^INVITE" declare:rate=counter[10;60]\n'
        )
        assert main(["check", "--rules", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("R2:")  # declarer first
        assert out[1].startswith("R1:")

    def test_blocks_after_schedule(self, capsys, tmp_path):
        path = tmp_path / "synthetic.rules"
        path.write_text(synthetic_ruleset(256))
        assert main(["check", "--rules", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        blocks = [line for line in out if line.startswith("block ")]
        assert blocks == ["block R1-R255 on FIELDS:sip.user_agent: prefilter"]
        assert out[-2:] == blocks + ["schedule ok (256 rules)"]

    def test_block_without_prefilter_names_first_bare_member(self, capsys, tmp_path):
        path = tmp_path / "mixed.rules"
        path.write_text(
            'secsip "FIELDS:sip.method" "^INVITE$" forward\n'
            'secsip "FIELDS:sip.method" "BYE" forward\n'
            'secsip "FIELDS:sip.method" "^ACK" forward\n'
            'secsip "FIELDS:sip.method" "." forward\n'
        )
        assert main(["check", "--rules", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "block R1-R4 on FIELDS:sip.method: no prefilter, R2 has no anchored prefix" in out

    def test_no_blocks_in_bye_attack(self, capsys):
        assert main(["check", "--rules", "builtin:bye_attack"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert not [line for line in out if line.startswith("block ")]

    def test_compile_error_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.rules"
        path.write_text('secsip ghost "@gt 1" drop\n')
        assert main(["check", "--rules", str(path)]) == 2
        err = capsys.readouterr().err
        assert "rule error" in err and "line 1" in err

    def test_missing_builtin_exits_2(self, capsys):
        assert main(["check", "--rules", "builtin:nothere"]) == 2
        assert "error" in capsys.readouterr().err

    def test_builtin_names(self):
        for name in ("bye_attack", "invite_flood", "example", "collections"):
            assert builtin_ruleset(name).strip()


class TestRunReplay:
    def test_attack_trace_end_to_end(self, capsys, tmp_path):
        trace = tmp_path / "attack.trace"
        assert main(
            ["gen-trace", "--kind", "bye-attack", "--seed", "42",
             "--out", str(trace), "--calls", "10"]
        ) == 0
        assert f"wrote 60 records" in capsys.readouterr().out

        stats = tmp_path / "stats.csv"
        code = main(
            ["run", "--rules", "builtin:bye_attack", "--mode", "replay",
             "--trace", str(trace), "--stats", str(stats)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "messages=60 forwarded=50 dropped=10 malformed=0" in out
        assert "latency_us p50=" in out

        lines = stats.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        row = lines[1].split(",")
        assert len(row) == 10
        assert row[2] == "2"  # rule count
        assert row[3] == "60"  # messages

    def test_replay_needs_trace(self, capsys):
        code = main(["run", "--rules", "builtin:example", "--mode", "replay"])
        assert code == 2
        assert "--trace" in capsys.readouterr().err

    def test_missing_trace_file_exits_2(self, capsys):
        code = main(
            ["run", "--rules", "builtin:example", "--mode", "replay",
             "--trace", "/nonexistent/file.trace"]
        )
        assert code == 2

    def test_pacing_argument_forms(self, capsys, tmp_path):
        trace = tmp_path / "t.trace"
        main(["gen-trace", "--kind", "clean-calls", "--out", str(trace), "--calls", "2"])
        capsys.readouterr()
        code = main(
            ["run", "--rules", "builtin:example", "--mode", "replay",
             "--trace", str(trace), "--pacing", "fixed:500"]
        )
        assert code == 0
        assert "messages=12" in capsys.readouterr().out

    def test_bad_pacing_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--rules", "builtin:example", "--mode", "replay",
                  "--trace", "x", "--pacing", "sometimes"])


    def test_transaction_lifetime_reaches_the_tracker(self, capsys, tmp_path):
        trace = tmp_path / "t.trace"
        main(["gen-trace", "--kind", "clean-calls", "--out", str(trace), "--calls", "10"])
        live = {}
        for extra in ([], ["--transaction-lifetime", "1"]):
            capsys.readouterr()
            assert main(["run", "--rules", "builtin:bye_attack", "--mode", "replay",
                         "--trace", str(trace), *extra]) == 0
            live[bool(extra)] = capsys.readouterr().out.splitlines()[-1]
        # the end-of-trace sweep forgets the transactions idle over 1 s
        assert live[False] == "live: instances=20 transactions=30"
        assert live[True] == "live: instances=20 transactions=3"

    @pytest.mark.parametrize("flag, value", [
        ("--sweep-period", "0"), ("--sweep-period", "-3"), ("--sweep-period", "1.5"),
        ("--dialog-lifetime", "-5"), ("--dialog-lifetime", "0"),
        ("--transaction-lifetime", "0"), ("--transaction-lifetime", "nan"),
    ])
    def test_out_of_range_option_is_a_usage_error(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--rules", "builtin:bye_attack", "--mode", "replay",
                  "--trace", "x", flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

class TestGenTrace:
    def test_deterministic_output(self, capsys, tmp_path):
        a = tmp_path / "a.trace"
        b = tmp_path / "b.trace"
        main(["gen-trace", "--kind", "invite-flood", "--seed", "7",
              "--out", str(a), "--count", "20", "--rate", "5"])
        main(["gen-trace", "--kind", "invite-flood", "--seed", "7",
              "--out", str(b), "--count", "20", "--rate", "5"])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestBench:
    def test_scenario2_csv_schema(self, capsys, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            ["bench", "--scenario", "2", "--max-rules", "4",
             "--duration", "0.2", "--rate", "50", "--out", str(out)]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 4  # header + rule counts 1, 2, 4
        assert [row.split(",")[2] for row in lines[1:]] == ["1", "2", "4"]
        assert out.read_text().splitlines() == lines

    def test_scenario1_single_point(self, capsys):
        code = main(
            ["bench", "--scenario", "1", "--rate-start", "40",
             "--rate-stop", "40", "--rate-step", "10", "--duration", "0.2"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("40.000,")
