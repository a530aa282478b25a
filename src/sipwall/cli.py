"""Command line interface.

    sipwall run --rules F --mode replay --trace T [--pacing fixed:200]
    sipwall run --rules F --mode proxy --listen 0.0.0.0:5060 --upstream 10.0.0.2:5060
    sipwall check --rules F
    sipwall bench --scenario 1 --out stats.csv
    sipwall gen-trace --kind bye-attack --seed 42 --out attack.trace

``--rules builtin:NAME`` loads one of the shipped rulesets instead of a
file on disk.
"""

from __future__ import annotations

import argparse
import sys
from importlib.resources import files

from . import bench
from .engine import DEFAULT_SWEEP_PERIOD, Engine, rule_blocks
from .gen import GENERATORS
from .proxy import ProxyConfig, proxy_run
from .rules import RuleError, RuleProgram, compile_ruleset, format_rule, parse_ruleset
from .state import Scope
from .trace import TraceFormatError, read_trace, replay, write_trace

__all__ = ["main", "builtin_ruleset"]


def builtin_ruleset(name: str) -> str:
    """Text of a ruleset shipped inside the package."""
    resource = files("sipwall") / "rulesets" / f"{name}.rules"
    if not resource.is_file():
        raise FileNotFoundError(f"no builtin ruleset {name!r}")
    return resource.read_text(encoding="utf-8")


def _load_program(args: argparse.Namespace) -> RuleProgram:
    spec = args.rules
    if spec.startswith("builtin:"):
        text = builtin_ruleset(spec[len("builtin:"):])
    else:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    lifetimes = {}
    if getattr(args, "dialog_lifetime", None) is not None:
        lifetimes[Scope.DIALOG] = args.dialog_lifetime
    if getattr(args, "transaction_lifetime", None) is not None:
        lifetimes[Scope.TRANSACTION] = args.transaction_lifetime
    return compile_ruleset(parse_ruleset(text), scope_lifetimes=lifetimes or None)


def _endpoint(text: str) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep or not port.isdigit():
        raise argparse.ArgumentTypeError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


def _pacing(text: str) -> tuple[str, float | None]:
    if text in ("fast", "timed"):
        return text, None
    if text.startswith("fixed:"):
        try:
            rate = float(text[len("fixed:"):])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad fixed rate in {text!r}") from None
        if rate <= 0:
            raise argparse.ArgumentTypeError("fixed rate must be positive")
        return "fixed", rate
    raise argparse.ArgumentTypeError(
        f"pacing must be fast, timed, or fixed:RATE, got {text!r}"
    )


def _positive_seconds(text: str) -> float:
    try:
        seconds = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected seconds, got {text!r}") from None
    if not seconds > 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"a lifetime must be above 0 s, got {text!r}")
    return seconds


def _sweep_period(text: str) -> int:
    try:
        period = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a message count, got {text!r}") from None
    if period < 1:
        raise argparse.ArgumentTypeError(f"the sweep period must be at least 1, got {text!r}")
    return period


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="sipwall")
    sub = top.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="inspect traffic from a trace or live socket")
    run.add_argument("--rules", required=True, help="rule file (or builtin:NAME)")
    run.add_argument("--mode", required=True, choices=("replay", "proxy"))
    run.add_argument("--trace", help="trace file (replay mode)")
    run.add_argument(
        "--format", choices=("ndtrace", "pcap"), default=None,
        help="trace format; default guesses from the extension",
    )
    run.add_argument("--pacing", type=_pacing, default=("fast", None))
    run.add_argument("--port", type=int, default=5060, help="SIP port for pcap filtering")
    run.add_argument("--listen", type=_endpoint, help="listen endpoint (proxy mode)")
    run.add_argument("--upstream", type=_endpoint, help="relay endpoint (proxy mode)")
    run.add_argument("--stats", help="write a stats CSV row to this path")
    run.add_argument("--dialog-lifetime", type=_positive_seconds, default=None)
    run.add_argument("--transaction-lifetime", type=_positive_seconds, default=None)
    run.add_argument("--sweep-period", type=_sweep_period, default=DEFAULT_SWEEP_PERIOD)

    check = sub.add_parser(
        "check", help="compile a rule file and print the schedule and its rule blocks"
    )
    check.add_argument("--rules", required=True)

    bn = sub.add_parser("bench", help="run a benchmark scenario")
    bn.add_argument("--scenario", required=True, type=int, choices=(1, 2))
    bn.add_argument("--out", help="write the stats CSV here as well")
    bn.add_argument("--duration", type=float, default=None, help="seconds per point")
    bn.add_argument("--seed", type=int, default=1)
    bn.add_argument("--rate-start", type=int, default=10)
    bn.add_argument("--rate-stop", type=int, default=500)
    bn.add_argument("--rate-step", type=int, default=50)
    bn.add_argument("--rate", type=float, default=60.0, help="fixed rate (scenario 2)")
    bn.add_argument("--max-rules", type=int, default=256)

    gen = sub.add_parser("gen-trace", help="write a synthetic trace")
    gen.add_argument("--kind", required=True, choices=sorted(GENERATORS))
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--out", required=True)
    gen.add_argument("--calls", type=int, default=10)
    gen.add_argument("--count", type=int, default=40)
    gen.add_argument("--rate", type=float, default=1.0)
    gen.add_argument("--start", type=float, default=0.0)
    return top


def _cmd_check(args: argparse.Namespace) -> int:
    program = _load_program(args)
    for rid in program.schedule:
        rule = program.rule(rid)
        declares = ",".join(sorted(rule.declares)) or "-"
        reads = ",".join(sorted(rule.reads)) or "-"
        print(f"R{rid}: {format_rule(rule)} [declares: {declares}] [reads: {reads}]")
    for block in rule_blocks(program):
        bare = [rid for rid, prefix in zip(block.rule_ids, block.prefixes) if prefix is None]
        how = f"no prefilter, R{bare[0]} has no anchored prefix" if bare else "prefilter"
        print(f"block R{block.rule_ids[0]}-R{block.rule_ids[-1]} on {block.field}: {how}")
    print(f"schedule ok ({len(program.rules)} rules)")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    program = _load_program(args)
    engine = Engine(program, sweep_period=args.sweep_period)
    if args.mode == "replay":
        if not args.trace:
            print("run --mode replay needs --trace", file=sys.stderr)
            return 2
        fmt = args.format
        if fmt is None:
            fmt = "pcap" if args.trace.endswith((".pcap", ".cap")) else "ndtrace"
        pacing, rate = args.pacing
        records = read_trace(args.trace, fmt, port=args.port)
        report = replay(records, engine, pacing=pacing, rate=rate)
        point = bench.point_from_report(report, rules=len(program.rules))
        snap = engine.snapshot()
        print(
            f"messages={report.messages} forwarded={report.forwarded} "
            f"dropped={report.dropped} malformed={report.malformed}"
        )
        print(
            f"latency_us p50={point.p50_us:.1f} p90={point.p90_us:.1f} "
            f"p99={point.p99_us:.1f} achieved_rate={report.achieved_rate:.1f}/s"
        )
        print(
            f"live: instances={snap['live_instances_total']} "
            f"transactions={snap['live_transactions']}"
        )
        if args.stats:
            bench.write_csv([point], args.stats)
        return 0

    if not args.listen or not args.upstream:
        print("run --mode proxy needs --listen and --upstream", file=sys.stderr)
        return 2
    config = ProxyConfig(listen=args.listen, upstream=args.upstream)
    print(
        f"inspecting on {config.listen[0]}:{config.listen[1]}, "
        f"relaying to {config.upstream[0]}:{config.upstream[1]} (ctrl-c stops)"
    )
    try:
        report = proxy_run(config, engine)
    except KeyboardInterrupt:
        report = None
    if report is not None:
        print(
            f"received={report.received} relayed={report.relayed} "
            f"dropped={report.dropped} malformed={report.malformed} "
            f"relay_failures={report.relay_failures}"
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.scenario == 1:
        duration = 10.0 if args.duration is None else args.duration
        points = bench.run_scenario1(
            rate_start=args.rate_start,
            rate_stop=args.rate_stop,
            rate_step=args.rate_step,
            duration=duration,
            seed=args.seed,
            progress=sys.stderr,
        )
    else:
        duration = 4.0 if args.duration is None else args.duration
        points = bench.run_scenario2(
            rate=args.rate,
            max_rules=args.max_rules,
            duration=duration,
            seed=args.seed,
            progress=sys.stderr,
        )
    csv = bench.format_csv(points)
    sys.stdout.write(csv)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(csv)
    return 0


def _cmd_gen_trace(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "invite-flood":
        records = GENERATORS[kind](
            count=args.count, rate=args.rate, seed=args.seed, start=args.start
        )
    else:
        records = GENERATORS[kind](calls=args.calls, seed=args.seed, start=args.start)
    count = write_trace(records, args.out)
    print(f"wrote {count} records to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_gen_trace(args)
    except RuleError as exc:
        print(f"rule error: {exc}", file=sys.stderr)
        return 2
    except (TraceFormatError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
