"""The dense circulant reference path and benchmark hygiene."""

import numpy as np
import pytest

from rcnet.bench import (
    bench_shift,
    dense_circulant_conv,
    routing_kernel,
    scalar_kernel,
    shift_weighted_sum,
)
from rcnet.csn import scale_shift
from rcnet.rng import SplitMix64
from rcnet.tensor import Tensor


def brute_force_circulant(stack, weights):
    """Loop oracle for the five-tap weighted sum with circulant padding."""
    n = stack.shape[2]
    out = np.zeros_like(stack)
    for s in range(n):
        for j in range(5):
            out[:, :, s] += weights[j] * stack[:, :, (s + j - 2) % n]
    return out


def test_shift_sum_matches_brute_force():
    stack = SplitMix64(1).standard_normal((1, 16, 5, 8, 8))
    weights = SplitMix64(2).standard_normal((5,))
    got = shift_weighted_sum(Tensor(stack), weights).data
    assert np.max(np.abs(got - brute_force_circulant(stack, weights))) <= 1e-12


def test_dense_scalar_kernel_matches_brute_force():
    stack = SplitMix64(3).standard_normal((2, 8, 5, 4, 4))
    weights = SplitMix64(4).standard_normal((5,))
    got = dense_circulant_conv(stack, scalar_kernel(8, weights))
    assert np.max(np.abs(got - brute_force_circulant(stack, weights))) <= 1e-12


def test_routing_kernel_reproduces_scale_shift():
    stack = SplitMix64(5).standard_normal((1, 16, 5, 6, 6))
    via_shift = scale_shift(Tensor(stack), 2).data
    via_dense = dense_circulant_conv(stack, routing_kernel(16, 2))
    assert np.array_equal(via_shift, via_dense)


def test_bench_requires_ten_reps(mini_cfg):
    with pytest.raises(ValueError, match="10"):
        bench_shift(mini_cfg, reps=5)


def test_bench_equality_and_fields(mini_cfg):
    result = bench_shift(mini_cfg, reps=10)
    assert result.max_abs_diff <= 1e-12
    assert result.shift_ns > 0 and result.dense_ns > 0
    assert set(result.to_dict()) == {"shift_ns", "dense_ns", "ratio", "max_abs_diff", "reps"}


def test_median_stable_between_rep_counts(mini_cfg):
    """Benchmark hygiene: medians from 10 and 100 repetitions agree within 50%."""
    a = bench_shift(mini_cfg, reps=10)
    b = bench_shift(mini_cfg, reps=100)
    hi, lo = max(a.shift_ns, b.shift_ns), min(a.shift_ns, b.shift_ns)
    assert hi - lo <= 0.5 * hi, f"medians {a.shift_ns} vs {b.shift_ns}"
