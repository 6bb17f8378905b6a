"""The output gate: every failing pass is counted, none is dropped."""

from dataclasses import replace

import numpy as np
import pytest
from rcbench import gate
from rcbench.measure import timed_run
from rcbench.workloads import WORKLOADS, Workload

UNFROZEN_SEED = 10**9


def toy_workload(results):
    """A workload whose pass k returns (or raises) results[k]."""
    calls = iter(results)

    def run(state, tracer):
        value = next(calls)
        if isinstance(value, Exception):
            raise value
        return value

    return Workload(
        "toy", "test double", lambda seed: seed, lambda cfg, tracer, workdir: {},
        run, lambda state, raw: {"x": np.asarray(raw, dtype=np.float64)},
        setup_reps=1, warmup=1,
    )


def test_raising_pass_counts_in_fail_ratio(tmp_path):
    wl = toy_workload([[1.0, 2.0], ValueError("boom")])
    run = timed_run(wl, UNFROZEN_SEED, 0.0, tmp_path)
    assert (run.attempted, run.failed) == (2, 1)
    assert run.report()["fail_ratio"] == 0.5
    assert run.errors == ["ValueError: boom"]
    assert len(run.warmup_ms) == 1 and run.pass_ms == []


def test_pass_differing_from_first_fails(tmp_path):
    run = timed_run(toy_workload([[1.0], [1.0 + 1e-15]]), UNFROZEN_SEED, 0.0, tmp_path)
    assert (run.attempted, run.failed) == (2, 1)
    assert "differ from the first pass" in run.errors[0]
    assert len(run.pass_ms) == 1  # it completed, so its time stands
    assert run.reference.startswith("self-consistency only")


def test_non_finite_output_fails(tmp_path):
    run = timed_run(toy_workload([[np.nan], [np.nan]]), UNFROZEN_SEED, 0.0, tmp_path)
    assert run.failed == 2


def test_failed_check_report_fails():
    found = gate.problems({"grad/add": {"pass": False, "measured": 0.5, "tolerance": 1e-4}})
    assert found and "check failed" in found[0]


def test_tolerance_catches_changed_computation():
    want = {"P3": [1000.0, 2.5, -0.25]}
    assert gate.mismatches({"P3": [1000.0 + 1e-8, 2.5, -0.25]}, want) == []
    assert gate.mismatches({"P3": [1000.0 + 1e-6, 2.5, -0.25]}, want)
    assert gate.mismatches({"P3": [1000.0, 2.5, -0.25 + 1e-9]}, want)
    assert gate.mismatches({"P4": [1000.0, 2.5, -0.25]}, want)


@pytest.fixture(scope="module")
def desk():
    wl = WORKLOADS["desk-infer"]
    return replace(wl, setup_reps=1, warmup=1)


def test_desk_infer_passes_against_its_frozen_summary(desk, tmp_path):
    assert "7" in gate.load_frozen("desk-infer")
    run = timed_run(desk, 7, 0.0, tmp_path)
    assert run.reference == "frozen summary for seed 7"
    assert (run.attempted, run.failed) == (2, 0)


def test_injected_wrong_output_is_a_failed_pass(desk, tmp_path):
    def wrong(state, raw):
        out = desk.outputs(state, raw)
        out["rcnet.P5"] = out["rcnet.P5"] * (1.0 + 1e-8)
        return out

    run = timed_run(replace(desk, outputs=wrong), 7, 0.0, tmp_path)
    assert (run.attempted, run.failed) == (2, 2)
    assert "rcnet.P5" in run.errors[0]
