"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all
even when green). Oracles here are independent of the code paths they
judge: loop-based re-evaluation, closed-form counting, and perturbation
probes.
"""

import json
import time

import numpy as np

from rcnet.accounting import count_all
from rcnet.bench import bench_shift, shift_weighted_sum
from rcnet.checks import (
    check_aggregate_identity_init,
    check_boundary_rules,
    check_context_identity_init,
    check_csn_init_roundtrip,
    check_csn_nonadjacent_reach,
    check_fgu_mean_weight,
    check_fpn_unidirectional,
    check_fusion_convexity,
    check_revfp_bidirectional,
    check_revfp_locality,
    gradient_end_to_end_check,
    gradient_op_checks,
)
from rcnet.cli import main
from rcnet.config import SHIFT_OFFSETS, desk_config, paper_width
from rcnet.csn import scale_shift
from rcnet.fixtures import synth_backbone
from rcnet.pyramid import load_pyramid, save_pyramid
from rcnet.rng import SplitMix64
from rcnet.tensor import Tensor

from test_counting import closed_form_csn, closed_form_fpn, closed_form_revfp


def _criterion(number, name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {state} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_01_shift_sum_circulant_oracle():
    """Scalar-weight shift-sum equals brute-force kernel-5 circulant
    convolution on 50 random stacks; finishes inside 5 seconds."""
    start = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        s = SplitMix64(1000 + trial)
        stack = s.standard_normal((1, 16, 5, 8, 8))
        weights = s.standard_normal((5,))
        got = shift_weighted_sum(Tensor(stack), weights).data
        want = np.zeros_like(stack)
        for sc in range(5):
            for j in range(5):
                want[:, :, sc] += weights[j] * stack[:, :, (sc + j - 2) % 5]
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    _criterion(
        1, "shift-sum-circulant-oracle", worst <= 1e-12 and elapsed < 5.0,
        f"max_abs_diff={worst:.2e} elapsed={elapsed:.2f}s",
    )


def test_02_wraparound_block_routing():
    """For levels 3..7 the level-6 slice is assembled from levels
    4, 5, 6 (untouched originals), 7, and 3 with circulant wrap."""
    d, blk = 16, 4
    levels = list(range(3, 8))
    S = Tensor(SplitMix64(77).standard_normal((1, d, 5, 4, 4)))
    out = scale_shift(S, blk).data
    s6 = levels.index(6)
    ok = np.array_equal(out[:, :d, s6], S.data[:, :, s6])  # own features stay
    sources = {-2: 4, -1: 5, 1: 7, 2: 3}
    for b, off in enumerate(SHIFT_OFFSETS):
        got = out[:, d + b * blk : d + (b + 1) * blk, s6]
        want = S.data[:, b * blk : (b + 1) * blk, levels.index(sources[off])]
        ok = ok and np.array_equal(got, want)
    _criterion(2, "wraparound-block-routing", ok, "slice 6 <- {4, 5, 6, 7, 3}")


def test_03_fgu_mean_weight():
    """Mean spatial weight equals 1 within 1e-12 over 100 random inputs
    per pyramid level."""
    result = check_fgu_mean_weight(desk_config(), trials=100)
    _criterion(3, "fgu-mean-weight", result.passed, f"max|mean-1|={result.measured:.2e}")


def test_04_convex_fusion_envelope():
    result = check_fusion_convexity(desk_config())
    _criterion(4, "convex-fusion-envelope", result.passed, f"max_excursion={result.measured:.2e}")


def test_05_boundary_rules():
    result = check_boundary_rules(desk_config())
    _criterion(5, "boundary-rules", result.passed, str(result.measured))


def test_06_information_flow_contrast():
    cfg = desk_config()
    fpn = check_fpn_unidirectional(cfg)
    rev = check_revfp_bidirectional(cfg)
    loc = check_revfp_locality(cfg)
    reach = check_csn_nonadjacent_reach(cfg)
    ok = fpn.passed and rev.passed and loc.passed and reach.passed
    _criterion(
        6, "information-flow-contrast", ok,
        f"fpn[{fpn.measured}] revfp[{rev.measured}] csn_reach={reach.measured:.2e}",
    )


def test_07_gradient_suite():
    start = time.perf_counter()
    results = gradient_op_checks(seed=7) + [gradient_end_to_end_check(seed=7)]
    elapsed = time.perf_counter() - start
    bad = [r for r in results if not r.passed]
    _criterion(
        7, "gradient-suite", not bad and elapsed < 60.0,
        f"{len(results)} checks, elapsed={elapsed:.1f}s"
        + (f", failed={[r.name for r in bad]}" if bad else ""),
    )


def test_08_zero_cost_shift():
    cfg = desk_config()
    row = count_all(cfg).rows["csn/scale_shift"]
    wide = paper_width(cfg)  # d=256; reference level sits at 32x32
    bench = bench_shift(wide, reps=10)
    ok = (row.params, row.macs) == (0, 0) and bench.max_abs_diff <= 1e-12 and bench.ratio > 1.0
    _criterion(
        8, "zero-cost-shift", ok,
        f"row=({row.params},{row.macs}) equal<=1e-12:{bench.max_abs_diff:.1e} "
        f"ratio={bench.ratio:.1f}x",
    )


def test_09_identity_at_init():
    cfg = desk_config()
    agg = check_aggregate_identity_init(cfg)
    ctx = check_context_identity_init(cfg)
    rt = check_csn_init_roundtrip(cfg)
    ok = agg.passed and ctx.passed and rt.passed
    _criterion(
        9, "identity-at-init", ok,
        f"aggregate={agg.measured:.1e} context={ctx.measured:.1e} roundtrip={rt.measured:.1e}",
    )


def test_10_shift_ratio_sweep(tmp_path):
    """`invariants` exits 0 for every shift ratio in the sweep range."""
    codes = {}
    for r in (1, 2, 4, 8):
        cfg = desk_config(r=r)
        path = tmp_path / f"desk_r{r}.json"
        path.write_text(json.dumps(cfg.to_dict()))
        out = tmp_path / f"report_r{r}.json"
        codes[r] = main(["invariants", "--config", str(path), "--out", str(out)])
    ok = all(code == 0 for code in codes.values())
    _criterion(10, "shift-ratio-sweep", ok, f"exit codes {codes}")


def test_11_determinism(tmp_path):
    cfg = desk_config()
    digests = []
    for name in ("one", "two"):
        out = tmp_path / f"{name}.json"
        code = main(["forward", "rcnet", "--seed", "7", "--out", str(out)])
        assert code == 0
        with open(out, "r", encoding="utf-8") as fh:
            digests.append(json.load(fh)["digests"]["output"])
    pyr = synth_backbone(cfg)
    path = tmp_path / "roundtrip.fpz"
    save_pyramid(str(path), pyr)
    bitwise = load_pyramid(str(path)).equal_bitwise(pyr)
    ok = digests[0] == digests[1] and bitwise
    _criterion(
        11, "determinism", ok, f"digest={digests[0][:16]} fpz_roundtrip={bitwise}"
    )


def test_12_parameter_accounting_paper_width():
    """Traced totals at full width match the closed-form enumeration and the
    hand-frozen parameter counts."""
    cfg = paper_width(desk_config())
    report = count_all(cfg)
    frozen_params = {"fpn": 7_997_440, "revfp": 11_106_064, "csn": 411_648}
    oracles = {
        "fpn": closed_form_fpn(cfg),
        "revfp": closed_form_revfp(cfg),
        "csn": closed_form_csn(cfg),
    }
    ok = True
    detail = []
    for module, (params, macs) in oracles.items():
        traced = report.total(module)
        ok = ok and traced == (params, macs) and params == frozen_params[module]
        detail.append(f"{module}={traced[0]}p/{traced[1]}m")
    _criterion(12, "parameter-accounting", ok, " ".join(detail))
