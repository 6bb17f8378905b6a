"""Command-line harness: fixtures, forwards, checks, counting, benching.

Every subcommand reads a JSON config (defaulting to the built-in desk
config), runs, and emits a single JSON report. The exit code is 0 exactly
when every enabled check in the report passed and 1 when one failed. It
is 2 for a usage error. A bad flag or value, a config file that cannot
be read or holds no valid config, an `--out` or `--fixtures` path that
cannot be opened, and a seed outside the unsigned 64-bit range end with
a usage message and no report. So does a `--fixtures` file that opens
but holds no valid FPZ1 container, or a container `forward` cannot run:
`forward` holds it to the stem's input contract,
`cfg.input_shapes(cfg.stage_levels())`, before it builds any parameter.
The message is `--fixtures: ` and the loader's, such as `--fixtures:
b.fpz level 3: input (1, 16, 64, 64), config (1, 512, 64, 64)` for a
container written at another width. `--out` is checked after the config
loads and before any work runs, but opened only to write a finished
report: a run that ends in a usage error creates no file there and
leaves an existing one untouched.
An unknown or empty `--checks` selection writes a report with no checks
and an `error` field before any check runs.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from contextlib import nullcontext

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
from .pyramid import (
    ContainerError,
    FeaturePyramid,
    PyramidError,
    load_pyramid,
    pyramid_digest,
    require_shapes,
    save_pyramid,
)
from .revfp import revfp_forward, revfp_params

SCHEMA = "rcnet-report/1"

#: model -> (param makers, forward over the stemmed pyramid and their
#: stores); the stem is extended with the first store
MODELS = {
    "fpn": ([fpn_params], lambda C, stores, cfg: fpn_forward(C, stores[0], cfg)),
    "revfp": ([revfp_params], lambda C, stores, cfg: revfp_forward(C, stores[0], cfg)),
    "rcnet": ([revfp_params, csn_params], lambda C, stores, cfg: rcnet_forward(C, cfg, *stores)),
}


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

    def command(name, help_text, selects=True):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH", help="JSON config (default: built-in desk config)")
        sp.add_argument("--out", metavar="PATH", help="report destination (default: stdout)")
        sp.add_argument("--seed", type=int, metavar="U64", help="override the config seed")
        sp.add_argument(
            "--paper-width", action="store_true",
            help="restore full channel widths (d=256, undivided backbone stages)",
        )
        if selects:
            sp.add_argument("--checks", metavar="LIST", help="comma-separated subset of checks")
        return sp

    gen = command("gen-fixtures", "write a synthetic backbone pyramid as FPZ1", selects=False)
    gen.add_argument("--fixtures", metavar="PATH", default="fixtures.fpz", help="FPZ1 destination")

    fwd = command("forward", "run one neck forward and report digests", selects=False)
    fwd.add_argument("model", choices=list(MODELS))
    fwd.add_argument("--fixtures", metavar="PATH", help="load backbone from FPZ1 instead of generating")

    command("grad-check", "finite-difference suite over all ops and the full graph")
    command("invariants", "structural invariant checks")
    command("count", "parameter and MAC accounting for fpn, revfp, and csn")
    bench = command("bench-shift", "time the scale shift against the dense circulant conv")
    bench.add_argument(
        "--reps", type=repetitions, default=MIN_REPS, metavar="N",
        help=f"benchmark repetitions (at least {MIN_REPS})",
    )
    return parser


def _load_cfg(args) -> NeckConfig:
    cfg = load_config(args.config) if args.config else desk_config()
    if args.seed is not None:
        cfg = cfg.replace(seed=args.seed)
    if args.paper_width:
        cfg = paper_width(cfg)
    return cfg


def _check_out(path: str) -> None:
    """Raise the OSError that opening `path` to write would; create or truncate nothing."""
    try:
        os.close(os.open(path, os.O_WRONLY))
    except FileNotFoundError:
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            raise
        if not os.access(parent, os.W_OK | os.X_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path) from None


def _selected(args) -> list[str] | None:
    if args.checks is None:
        return None
    return [s.strip() for s in args.checks.split(",") if s.strip()]


def cmd_gen_fixtures(args, cfg: NeckConfig):
    pyr = synth_backbone(cfg)
    save_pyramid(args.fixtures, pyr, seed=cfg.seed, config=cfg.to_dict())
    ok = pyr.equal_bitwise(load_pyramid(args.fixtures))
    check = CheckResult("fixtures_roundtrip", ok, "bitwise equal" if ok else "mismatch", "bitwise")
    return [check], {"digests": {"backbone": pyramid_digest(pyr)}, "fixtures_path": args.fixtures}


def _load_stages(path: str, cfg: NeckConfig) -> FeaturePyramid:
    """The FPZ1 container at `path`; `PyramidError` unless it holds the
    config's backbone stages at the shapes `synth_backbone` draws."""
    C = load_pyramid(path)
    require_shapes(C, cfg.input_shapes(cfg.stage_levels()), path)
    return C


def cmd_forward(args, cfg: NeckConfig):
    """One neck forward; `inputs` times the backbone and the stem, `init` the params."""
    makers, forward = MODELS[args.model]
    t0 = time.perf_counter_ns()
    C = _load_stages(args.fixtures, cfg) if args.fixtures else synth_backbone(cfg)
    t1 = time.perf_counter_ns()
    stores = [make(cfg) for make in makers]
    t2 = time.perf_counter_ns()
    full = extend_stem(C, stores[0], cfg)
    t3 = time.perf_counter_ns()
    out = forward(full, stores, cfg)
    t4 = time.perf_counter_ns()
    return [], {
        "model": args.model,
        "digests": {"input": pyramid_digest(C), "output": pyramid_digest(out)},
        "timings_ns": {"init": t2 - t1, "inputs": (t1 - t0) + (t3 - t2), "forward": t4 - t3},
    }


def cmd_grad_check(args, cfg: NeckConfig):
    return run_gradient_suite(cfg.seed, _selected(args)), {}


def cmd_invariants(args, cfg: NeckConfig):
    return run_invariants(cfg, _selected(args)), {}


def cmd_count(args, cfg: NeckConfig):
    names = select_checks(_selected(args), ["count_totals_consistent", "shift_zero_cost"])
    counts = count_all(cfg)
    checks = [c for name, c in count_checks(counts).items() if name in names]
    return checks, {"counts": counts.to_dict()}


def cmd_bench_shift(args, cfg: NeckConfig):
    names = select_checks(_selected(args), ["shift_dense_equal", "shift_cheaper"])
    result = bench_shift(cfg, reps=args.reps)
    checks = [
        CheckResult("shift_dense_equal", result.max_abs_diff <= 1e-12, result.max_abs_diff, 1e-12),
        CheckResult("shift_cheaper", result.ratio > 1.0, result.ratio, "> 1"),
    ]
    return [c for c in checks if c.name in names], {
        "bench": result.to_dict(),
        "timings_ns": {"shift_median": result.shift_ns, "dense_median": result.dense_ns},
    }


#: each command returns (checks, extras): the report's checks and the keys
#: that follow them, in order
COMMANDS = {
    "gen-fixtures": cmd_gen_fixtures,
    "forward": cmd_forward,
    "grad-check": cmd_grad_check,
    "invariants": cmd_invariants,
    "count": cmd_count,
    "bench-shift": cmd_bench_shift,
}


def main(argv=None) -> int:
    """Run one subcommand and write its `rcnet-report/1` document; return the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load_cfg(args)
    except (OSError, ValueError) as err:
        parser.error(str(err))
    if args.out:
        try:
            _check_out(args.out)
        except OSError as err:
            parser.error(f"--out: cannot open {args.out}: {err.strerror}")
    t0 = time.perf_counter_ns()
    try:
        checks, extras = COMMANDS[args.command](args, cfg)
    except SelectionError as err:
        checks, extras, code = [], {"error": str(err)}, 2
    except (ContainerError, PyramidError) as err:
        if getattr(args, "fixtures", None) is None:
            raise
        parser.error(f"--fixtures: {err}")
    except OSError as err:
        if err.filename is None or err.filename != getattr(args, "fixtures", None):
            raise
        parser.error(f"--fixtures: cannot open {err.filename}: {err.strerror}")
    else:
        extras.setdefault("timings_ns", {"total": time.perf_counter_ns() - t0})
        code = 0 if all(c.passed for c in checks) else 1
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "config": cfg.to_dict(),
        "checks": {c.name: c.to_dict() for c in checks},
        **extras,
    }
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as out:
        out.write(json.dumps(report, indent=2) + "\n")
    return code


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
