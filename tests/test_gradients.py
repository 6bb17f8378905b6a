"""Finite-difference verification of every differentiable op.

Small tensors are checked coordinate-exhaustively; the composed-graph case
checks that chained vjps accumulate correctly through shared inputs.
"""

import re

import numpy as np
import pytest

from rcnet import gradcheck as gradcheck_mod
from rcnet import tensor as tensor_mod
from rcnet.checks import gradient_end_to_end_check, gradient_op_checks
from rcnet.gradcheck import TOL, check_gradients
from rcnet.rng import SplitMix64
from rcnet.tensor import (
    Tensor,
    add,
    bilinear_upsample_x2,
    channel_norm,
    concat,
    conv2d,
    maxpool2d,
    mul,
    relu,
    sigmoid,
    softmax,
    tsum,
)

OP_RESULTS = gradient_op_checks(seed=7)


@pytest.mark.parametrize("result", OP_RESULTS, ids=[r.name for r in OP_RESULTS])
def test_primitive_op_gradient(result):
    assert result.passed, f"{result.name}: max rel err {result.measured:.3e} > {result.tolerance}"


def test_all_primitives_covered():
    names = {r.name.removeprefix("grad/") for r in OP_RESULTS}
    expected = {
        "add", "sub", "mul", "div", "scale", "add_scalar", "exp", "sqrt",
        "sigmoid", "relu", "sum", "mean", "concat", "narrow", "roll",
        "reshape", "transpose", "broadcast_to", "pad2d", "conv2d",
        "conv2d_stride2", "bilinear_upsample_x2", "maxpool2d",
        "global_avg_pool", "softmax", "channel_norm",
    }
    assert expected <= names


def test_composed_graph_matches_finite_differences():
    """A multi-path graph reusing one input through conv, pooling, attention,
    and normalization; grads must match central differences at 1e-4."""
    s = SplitMix64(99)
    x = Tensor(s.standard_normal((1, 2, 8, 8)), requires_grad=True, name="x")
    w = Tensor(0.5 * s.standard_normal((2, 4, 3, 3)), requires_grad=True, name="w")
    b = Tensor(s.standard_normal((2,)), requires_grad=True, name="b")
    gamma = Tensor(np.abs(s.standard_normal((2,))) + 0.5, requires_grad=True, name="gamma")
    beta = Tensor(s.standard_normal((2,)), requires_grad=True, name="beta")
    proj = Tensor(s.standard_normal((1, 2, 8, 8)))

    def build_loss():
        up = bilinear_upsample_x2(maxpool2d(x))  # 8x8 again, via 4x4
        both = concat([x, up], 1)
        y = relu(conv2d(both, w, b, stride=1, padding=1))
        att = softmax(y, (2, 3))
        z = channel_norm(mul(y, add(att, sigmoid(y))), gamma, beta)
        return tsum(mul(z, proj))

    results = check_gradients(build_loss, [x, w, b, gamma, beta], max_coords=512, seed=0)
    for r in results:
        assert r.max_rel_err <= TOL, f"{r.name}: {r.max_rel_err:.3e}"


def test_a_straddled_kink_passes_at_the_first_step_that_clears_it():
    # relu's kink lies just under 1e-6 below x. The 1e-5 stencil reads 0.55.
    # The 1e-6 stencil still straddles it: its central difference is within
    # TOL (7.5e-5) but its one-sided differences are 1.5e-4 apart, so that
    # step is refused. The 1e-7 stencil clears the kink.
    x = Tensor(np.array([0.99985e-6]), requires_grad=True, name="x")
    (result,) = check_gradients(lambda: tsum(relu(x)), [x], max_coords=6, seed=0)
    assert result.max_rel_err <= TOL and result.remeasured == 1
    assert result.max_rel_err < 1e-8


def test_a_wrong_gradient_fails_at_every_step(monkeypatch):
    # the same kink with a relu whose vjp is 1e-3 too large
    real = tensor_mod._make

    def skewed(op, data, vjps, *args, **kwargs):
        if op == "relu":
            vjps = [(t, lambda g, vjp=vjp: vjp(g) * (1 + 1e-3)) for t, vjp in vjps]
        return real(op, data, vjps, *args, **kwargs)

    monkeypatch.setattr(tensor_mod, "_make", skewed)
    x = Tensor(np.array([0.99985e-6]), requires_grad=True, name="x")
    (result,) = check_gradients(lambda: tsum(relu(x)), [x], max_coords=6, seed=0)
    assert result.max_rel_err > TOL and result.remeasured == 1


def test_op_checks_need_no_smaller_step(monkeypatch):
    # no op coordinate fails at the first step, so every op result is the
    # one the first step alone gives
    monkeypatch.setattr(gradcheck_mod, "FINER_STEPS", ())
    first_step_only = gradient_op_checks(seed=7)
    assert [(r.name, r.measured) for r in first_step_only] == [
        (r.name, r.measured) for r in OP_RESULTS
    ]


def _at_a_smaller_step(result) -> int:
    return int(re.search(r"; (\d+) coords at a smaller step", result.measured).group(1))


@pytest.mark.parametrize("seed", [1, 21])
def test_end_to_end_check_passes_across_a_kink(seed):
    # at these seeds a 1e-5 stencil straddles a relu or max-pool switch
    result = gradient_end_to_end_check(seed)
    assert result.passed, result.measured
    assert _at_a_smaller_step(result) > 0


def test_end_to_end_check_at_seed_7_needs_no_smaller_step():
    result = gradient_end_to_end_check(7)
    assert result.passed and _at_a_smaller_step(result) == 0, result.measured


@pytest.mark.parametrize("seed", [1, 7])
def test_end_to_end_check_fails_a_wrong_conv_weight_gradient(seed, monkeypatch):
    # one conv's weight vjp 1e-3 too large: no step can pass it
    real = tensor_mod._make

    def skew(vjp):
        return lambda g: vjp(g) * (1 + 1e-3)

    def skewed(op, data, vjps, *args, **kwargs):
        if op == "conv2d":
            vjps = [(t, skew(vjp) if t.name == "lateral/4/weight" else vjp) for t, vjp in vjps]
        return real(op, data, vjps, *args, **kwargs)

    monkeypatch.setattr(tensor_mod, "_make", skewed)
    result = gradient_end_to_end_check(seed)
    assert not result.passed and "worst at lateral/4/weight" in result.measured, result.measured
    assert _at_a_smaller_step(result) > 0
