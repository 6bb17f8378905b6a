"""Command-line harness: fixtures, forwards, checks, counting, benching.

Every subcommand reads a JSON config (defaulting to the built-in desk
config), runs, and emits a single JSON report. The exit code is 0 exactly
when every enabled check in the report passed and 1 when one failed. It
is 2 for a usage error: argparse rejects a bad flag or value with a usage
message, and an unknown or empty `--checks` selection writes a report
with no checks and an `error` field before any check runs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .accounting import count_all
from .bench import MIN_REPS, bench_shift
from .checks import (
    CheckResult,
    SelectionError,
    count_checks,
    run_gradient_suite,
    run_invariants,
    select_checks,
)
from .config import NeckConfig, desk_config, load_config, paper_width
from .csn import csn_params, rcnet_forward
from .fixtures import extend_stem, synth_backbone
from .fpn import fpn_forward, fpn_params
from .pyramid import load_pyramid, pyramid_digest, save_pyramid
from .revfp import revfp_forward, revfp_params

SCHEMA = "rcnet-report/1"


def repetitions(text: str) -> int:
    n = int(text)
    if n < MIN_REPS:
        raise argparse.ArgumentTypeError(f"need at least {MIN_REPS} repetitions, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rcnet",
        description="Verification harness for the reverse-pyramid + cross-scale-shift neck.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", metavar="PATH", help="JSON config (default: built-in desk config)")
        sp.add_argument("--out", metavar="PATH", help="report destination (default: stdout)")
        sp.add_argument("--seed", type=int, metavar="U64", help="override the config seed")
        sp.add_argument(
            "--paper-width", action="store_true",
            help="restore full channel widths (d=256, undivided backbone stages)",
        )
        sp.add_argument("--checks", metavar="LIST", help="comma-separated subset of checks")
        sp.add_argument(
            "--reps", type=repetitions, default=MIN_REPS, metavar="N",
            help=f"benchmark repetitions (at least {MIN_REPS})",
        )

    gen = sub.add_parser("gen-fixtures", help="write a synthetic backbone pyramid as FPZ1")
    gen.add_argument("--fixtures", metavar="PATH", default="fixtures.fpz", help="FPZ1 destination")
    common(gen)

    fwd = sub.add_parser("forward", help="run one neck forward and report digests")
    fwd.add_argument("model", choices=["fpn", "revfp", "rcnet"])
    fwd.add_argument("--fixtures", metavar="PATH", help="load backbone from FPZ1 instead of generating")
    common(fwd)

    for name, help_text in [
        ("grad-check", "finite-difference suite over all ops and the full graph"),
        ("invariants", "structural invariant checks"),
        ("count", "parameter and MAC accounting for fpn, revfp, and csn"),
        ("bench-shift", "time the scale shift against the dense circulant conv"),
    ]:
        common(sub.add_parser(name, help=help_text))
    return parser


def _load_cfg(args) -> NeckConfig:
    cfg = load_config(args.config) if args.config else desk_config()
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    if args.paper_width:
        cfg = paper_width(cfg)
    return cfg


def _selected(args) -> list[str] | None:
    if args.checks is None:
        return None
    return [s.strip() for s in args.checks.split(",") if s.strip()]


def _emit(report: dict, args) -> None:
    text = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _report(command: str, cfg: NeckConfig, checks: list[CheckResult], **extra) -> dict:
    doc = {
        "schema": SCHEMA,
        "command": command,
        "config": cfg.to_dict(),
        "checks": {c.name: c.to_dict() for c in checks},
    }
    doc.update(extra)
    return doc


def _exit_code(report: dict) -> int:
    return 0 if all(c["pass"] for c in report["checks"].values()) else 1


def cmd_gen_fixtures(args) -> int:
    cfg = _load_cfg(args)
    t0 = time.perf_counter_ns()
    pyr = synth_backbone(cfg)
    save_pyramid(args.fixtures, pyr, seed=cfg.seed, config=cfg.to_dict())
    back = load_pyramid(args.fixtures)
    elapsed = time.perf_counter_ns() - t0
    check = CheckResult(
        "fixtures_roundtrip", pyr.equal_bitwise(back), "bitwise equal", "bitwise"
    )
    report = _report(
        "gen-fixtures", cfg, [check],
        digests={"backbone": pyramid_digest(pyr)},
        fixtures_path=args.fixtures,
        timings_ns={"total": elapsed},
    )
    _emit(report, args)
    return _exit_code(report)


def cmd_forward(args) -> int:
    """One neck forward; `inputs` times the backbone and the stem, `init` the params."""
    cfg = _load_cfg(args)
    t0 = time.perf_counter_ns()
    C = load_pyramid(args.fixtures) if args.fixtures else synth_backbone(cfg)
    t1 = time.perf_counter_ns()
    if args.model == "fpn":
        stores = [fpn_params(cfg)]
    elif args.model == "revfp":
        stores = [revfp_params(cfg)]
    else:
        stores = [revfp_params(cfg), csn_params(cfg)]
    t2 = time.perf_counter_ns()
    full = extend_stem(C, stores[0], cfg) if cfg.has_stem else C
    t3 = time.perf_counter_ns()
    if args.model == "fpn":
        out = fpn_forward(full, stores[0], cfg)
    elif args.model == "revfp":
        out = revfp_forward(full, stores[0], cfg)
    else:
        out = rcnet_forward(full, cfg, *stores)
    t4 = time.perf_counter_ns()
    report = _report(
        "forward", cfg, [],
        model=args.model,
        digests={"input": pyramid_digest(C), "output": pyramid_digest(out)},
        timings_ns={"init": t2 - t1, "inputs": (t1 - t0) + (t3 - t2), "forward": t4 - t3},
    )
    _emit(report, args)
    return _exit_code(report)


def cmd_grad_check(args) -> int:
    cfg = _load_cfg(args)
    t0 = time.perf_counter_ns()
    checks = run_gradient_suite(cfg.seed, _selected(args))
    report = _report(
        "grad-check", cfg, checks, timings_ns={"total": time.perf_counter_ns() - t0}
    )
    _emit(report, args)
    return _exit_code(report)


def cmd_invariants(args) -> int:
    cfg = _load_cfg(args)
    t0 = time.perf_counter_ns()
    checks = run_invariants(cfg, _selected(args))
    report = _report(
        "invariants", cfg, checks, timings_ns={"total": time.perf_counter_ns() - t0}
    )
    _emit(report, args)
    return _exit_code(report)


def cmd_count(args) -> int:
    cfg = _load_cfg(args)
    names = select_checks(_selected(args), ["count_totals_consistent", "shift_zero_cost"])
    t0 = time.perf_counter_ns()
    counts = count_all(cfg)
    report = _report(
        "count", cfg, [c for name, c in count_checks(counts).items() if name in names],
        counts=counts.to_dict(),
        timings_ns={"total": time.perf_counter_ns() - t0},
    )
    _emit(report, args)
    return _exit_code(report)


def cmd_bench_shift(args) -> int:
    cfg = _load_cfg(args)
    names = select_checks(_selected(args), ["shift_dense_equal", "shift_cheaper"])
    result = bench_shift(cfg, reps=args.reps)
    checks = [
        CheckResult("shift_dense_equal", result.max_abs_diff <= 1e-12, result.max_abs_diff, 1e-12),
        CheckResult("shift_cheaper", result.ratio > 1.0, result.ratio, "> 1"),
    ]
    report = _report(
        "bench-shift", cfg, [c for c in checks if c.name in names],
        bench=result.to_dict(),
        timings_ns={"shift_median": result.shift_ns, "dense_median": result.dense_ns},
    )
    _emit(report, args)
    return _exit_code(report)


COMMANDS = {
    "gen-fixtures": cmd_gen_fixtures,
    "forward": cmd_forward,
    "grad-check": cmd_grad_check,
    "invariants": cmd_invariants,
    "count": cmd_count,
    "bench-shift": cmd_bench_shift,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except SelectionError as err:
        report = _report(args.command, _load_cfg(args), [], error=str(err))
        _emit(report, args)
        return 2


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
