"""Run one benchmark workload and print its result as the last line of stdout.

    python3 benchmark/run.py --workload paper-train --seed 7 --seconds 20 --trace 0

--trace 0 is the timed run: it prints the end-to-end metrics. --trace 1 is
the separate traced run: it prints the per-layer metrics and fails (exit
1, no result) if the traced accounting or outputs disagree with the
program's own. Lines before the last are a report: the environment, the
sample counts, p90 where there are enough samples, the fail ratio, the
warm-up times and, for a traced run, the per-scope table.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from rcbench import WORKLOAD_NAMES, env  # noqa: E402  (pins the environment before numpy loads)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7, help="sets NeckConfig.seed (default 7)")
    parser.add_argument("--seconds", type=float, default=20.0, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _print_line(doc: dict):
    print(json.dumps(doc), flush=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workdir = env.pin()
    except FileNotFoundError as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 2

    from rcbench.measure import timed_run, traced_run
    from rcbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    _print_line({"environment": env.describe(), "workload": wl.name, "why": wl.why,
                 "seed": args.seed, "seconds": args.seconds, "trace": args.trace})
    if args.trace:
        traced = traced_run(wl, args.seed, args.seconds, workdir)
        if traced.problems:
            for problem in traced.problems:
                print(f"benchmark: trace check failed: {problem}", file=sys.stderr)
            return 1
        run, metrics = traced.run, traced.metrics
        _print_line({"scope_table": traced.table})
    else:
        run = timed_run(wl, args.seed, args.seconds, workdir)
        metrics = run.end_to_end()
    _print_line({"report": run.report()})
    _print_line({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
