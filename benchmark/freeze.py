"""Freeze the output summaries the benchmark's gate compares passes against.

    python3 benchmark/freeze.py --workload desk-infer --seeds 0-31

Runs one pass per seed and writes `benchmark/frozen/<workload>.json`,
keeping the summaries of seeds not named. Refreezing is for a change
that alters what the program computes on purpose; say so where it lands.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from rcbench import WORKLOAD_NAMES, env  # noqa: E402  (pins the environment before numpy loads)


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seeds", required=True, type=seed_range, help="e.g. 7 or 0-31")
    args = parser.parse_args(argv)
    workdir = env.pin()

    from rcbench import gate
    from rcbench.measure import NULL
    from rcbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    path = gate.FROZEN_DIR / f"{wl.name}.json"
    doc = {"workload": wl.name, "tolerance": gate.TOL, "seeds": gate.load_frozen(wl.name)}
    skipped = []
    for seed in args.seeds:
        state = wl.setup(wl.config(seed), NULL, workdir)
        outputs = wl.outputs(state, wl.run(state, NULL))
        found = gate.problems(outputs)
        if found:
            print(f"seed {seed}: not freezing a failing pass: {found}", file=sys.stderr, flush=True)
            skipped.append(seed)
            continue
        doc["seeds"][str(seed)] = gate.summarize(outputs, seed)
        print(f"froze {wl.name} seed {seed}", flush=True)
    doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 1 if skipped else 0


if __name__ == "__main__":
    sys.exit(main())
