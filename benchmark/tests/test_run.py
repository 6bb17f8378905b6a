"""The command line: seeds, the result line, and the contract in BENCHMARK.json."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import run as bench_run
from rcbench import WORKLOAD_NAMES
from rcbench.measure import NULL
from rcbench.metrics import END_TO_END, PER_LAYER
from rcbench.workloads import WORKLOADS

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_seed_reaches_the_generated_inputs(tmp_path):
    args = bench_run.parse_args(["--workload", "desk-infer", "--seed", "3"])
    wl = WORKLOADS[args.workload]
    assert wl.config(args.seed).seed == 3
    a, b, c = (wl.setup(wl.config(s), NULL, tmp_path) for s in (3, 3, 4))
    assert np.array_equal(a["Cr"][3].data, b["Cr"][3].data)
    assert not np.array_equal(a["Cr"][3].data, c["Cr"][3].data)
    assert bench_run.parse_args(["--workload", "verify"]).seed == 7


def test_spec_names_match_the_harness():
    assert tuple(WORKLOADS) == WORKLOAD_NAMES
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOAD_NAMES)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == PER_LAYER


def test_result_is_the_last_stdout_line():
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "desk-infer", "--seed", "3", "--seconds", "0"],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    assert json.loads(lines[0])["seed"] == 3
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "paper-train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
