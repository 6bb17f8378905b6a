"""Forward semantics of the tensor core against independent oracles."""

import tracemalloc

import numpy as np
import pytest

from rcnet.gradcheck import check_gradients
from rcnet.rng import SplitMix64
from rcnet.tensor import (
    NonFiniteError,
    Tape,
    TapeError,
    Tensor,
    add,
    add_scalar,
    backward,
    bilinear_upsample_x2,
    channel_norm,
    concat,
    conv2d,
    div,
    exp,
    global_avg_pool,
    maxpool2d,
    mul,
    relu,
    reshape,
    scale,
    sigmoid,
    softmax,
    sqrt,
    sub,
    tmean,
    tsum,
)


def rand(shape, seed=0):
    return SplitMix64(seed).standard_normal(shape)


# ---------------------------------------------------------------------------
# oracles


def conv2d_loops(x, w, b, stride=1, padding=0):
    """Direct six-nested-loop cross-correlation."""
    n, cin, h, wid = x.shape
    cout, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp = (h + 2 * padding - kh) // stride + 1
    wp = (wid + 2 * padding - kw) // stride + 1
    out = np.zeros((n, cout, hp, wp))
    for bi in range(n):
        for co in range(cout):
            for oy in range(hp):
                for ox in range(wp):
                    acc = 0.0
                    for ci in range(cin):
                        for ky in range(kh):
                            for kx in range(kw):
                                acc += (
                                    xp[bi, ci, oy * stride + ky, ox * stride + kx]
                                    * w[co, ci, ky, kx]
                                )
                    out[bi, co, oy, ox] = acc + b[co]
    return out


def conv2d_taps(x, w, b, padding):
    """Stride-1 cross-correlation as one einsum per kernel tap over the padded input."""
    _, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp, wp = xp.shape[2] - kh + 1, xp.shape[3] - kw + 1
    out = b[None, :, None, None] + np.zeros((x.shape[0], w.shape[0], hp, wp))
    for i in range(kh):
        for j in range(kw):
            out += np.einsum("oc,nchw->nohw", w[:, :, i, j], xp[:, :, i : i + hp, j : j + wp])
    return out


def channel_norm_composite(x, gamma, beta, eps=1e-5):
    """The taped-op composition channel_norm must reproduce bitwise."""
    c = x.shape[1]
    axes = (0, 2, 3)
    mu = tmean(x, axes, keepdims=True)
    d = sub(x, mu)
    var = tmean(mul(d, d), axes, keepdims=True)
    xh = div(d, sqrt(add_scalar(var, eps)))
    return add(mul(xh, reshape(gamma, (1, c, 1, 1))), reshape(beta, (1, c, 1, 1)))


def maxpool_loops(x, k, stride):
    n, c, h, w = x.shape
    hp = (h - k) // stride + 1
    wp = (w - k) // stride + 1
    out = np.zeros((n, c, hp, wp))
    for bi in range(n):
        for ci in range(c):
            for oy in range(hp):
                for ox in range(wp):
                    out[bi, ci, oy, ox] = x[
                        bi, ci, oy * stride : oy * stride + k, ox * stride + 0 : ox * stride + k
                    ].max()
    return out


def upsample2_reference(x):
    """Per-output-pixel evaluation of the half-pixel interpolation formula."""
    h, w = x.shape[-2:]
    out = np.zeros(x.shape[:-2] + (2 * h, 2 * w))
    for oy in range(2 * h):
        for ox in range(2 * w):
            sy = (oy + 0.5) / 2 - 0.5
            sx = (ox + 0.5) / 2 - 0.5
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            ty, tx = sy - y0, sx - x0
            y0c, y1c = np.clip([y0, y0 + 1], 0, h - 1)
            x0c, x1c = np.clip([x0, x0 + 1], 0, w - 1)
            out[..., oy, ox] = (
                x[..., y0c, x0c] * (1 - ty) * (1 - tx)
                + x[..., y0c, x1c] * (1 - ty) * tx
                + x[..., y1c, x0c] * ty * (1 - tx)
                + x[..., y1c, x1c] * ty * tx
            )
    return out


# ---------------------------------------------------------------------------
# conv2d


class TestConv2d:
    def test_identity_kernel(self):
        x = Tensor(rand((1, 3, 5, 5)))
        w = Tensor(np.eye(3).reshape(3, 3, 1, 1))
        out = conv2d(x, w, Tensor(np.zeros(3)))
        assert np.array_equal(out.data, x.data)

    def test_ones_kernel_constant_input(self):
        x = Tensor(np.ones((1, 1, 5, 5)))
        w = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d(x, w, Tensor(np.zeros(1)), padding=1).data[0, 0]
        assert out[2, 2] == 9.0
        for corner in [(0, 0), (0, 4), (4, 0), (4, 4)]:
            assert out[corner] == 4.0

    def test_matches_nested_loop_oracle(self):
        x = rand((1, 2, 5, 5), seed=1)
        w = rand((3, 2, 3, 3), seed=2)
        b = rand((3,), seed=3)
        got = conv2d(Tensor(x), Tensor(w), Tensor(b)).data
        want = conv2d_loops(x, w, b)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("stride,padding", [(1, 1), (2, 1), (1, 0), (3, 2)])
    def test_matches_oracle_strided(self, stride, padding):
        x = rand((2, 3, 7, 7), seed=4)
        w = rand((2, 3, 3, 3), seed=5)
        b = rand((2,), seed=6)
        if (7 + 2 * padding - 3) % stride:
            pytest.skip("extent not divisible for this combination")
        got = conv2d(Tensor(x), Tensor(w), Tensor(b), stride, padding).data
        want = conv2d_loops(x, w, b, stride, padding)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_channel_mismatch_names_dimension(self):
        x = Tensor(np.zeros((1, 3, 5, 5)))
        w = Tensor(np.zeros((2, 4, 3, 3)))
        with pytest.raises(ValueError, match="channels"):
            conv2d(x, w, Tensor(np.zeros(2)))

    def test_non_integer_extent_rejected(self):
        x = Tensor(np.zeros((1, 1, 6, 6)))
        w = Tensor(np.zeros((1, 1, 3, 3)))
        with pytest.raises(ValueError, match="non-integer output extent"):
            conv2d(x, w, Tensor(np.zeros(1)), stride=2, padding=1)

    @pytest.mark.parametrize(
        "x_shape,w_shape,stride,padding",
        [
            ((2, 3, 4, 5), (2, 3, 1, 1), 1, 0),  # pointwise: no im2col
            ((1, 2, 5, 7), (3, 2, 3, 3), 2, 1),
            ((2, 2, 4, 6), (2, 2, 3, 5), 1, 1),
            ((1, 3, 5, 3), (2, 3, 1, 1), 2, 0),  # 1x1 strided takes the im2col path
            # Cout < Cin at stride 1: the channel-first path
            ((2, 4, 4, 5), (1, 4, 3, 3), 1, 0),
            ((2, 7, 5, 6), (3, 7, 3, 3), 1, 1),
            ((1, 7, 6, 5), (3, 7, 5, 5), 1, 2),
            ((2, 5, 3, 4), (1, 5, 3, 5), 1, 2),  # some taps read only padding
        ],
    )
    def test_gradients_match_finite_differences(self, x_shape, w_shape, stride, padding):
        x = Tensor(rand(x_shape, seed=31), requires_grad=True, name="x")
        w = Tensor(rand(w_shape, seed=32), requires_grad=True, name="w")
        b = Tensor(rand((w_shape[0],), seed=33), requires_grad=True, name="b")
        proj = Tensor(rand(conv2d(x, w, b, stride, padding).shape, seed=34))

        def build_loss():
            return tsum(mul(conv2d(x, w, b, stride, padding), proj))

        for result in check_gradients(build_loss, [x, w, b], max_coords=512):
            assert result.passed, result

    def test_taped_conv_keeps_no_im2col_buffer(self):
        n, c, h, w = 1, 8, 32, 32
        x = Tensor(rand((n, c, h, w), seed=35), requires_grad=True)
        wt = Tensor(rand((c, c, 3, 3), seed=36), requires_grad=True)
        b = Tensor(np.zeros(c), requires_grad=True)
        cols_bytes = n * c * 9 * h * w * 8
        tracemalloc.start()
        try:
            with Tape() as tape:
                before = tracemalloc.get_traced_memory()[0]
                out = conv2d(x, wt, b, padding=1)
                kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(tape) == 1 and out.requires_grad
        assert kept < cols_bytes, f"taped conv keeps {kept} bytes; its im2col is {cols_bytes}"

    @pytest.mark.parametrize(
        "x_shape,w_shape,padding",
        [
            ((1, 8, 6, 6), (1, 8, 3, 3), 1),
            ((2, 7, 5, 6), (3, 7, 3, 3), 0),
            ((2, 7, 7, 5), (3, 7, 5, 5), 2),
            ((1, 6, 4, 7), (2, 6, 3, 5), 1),
        ],
    )
    def test_channel_first_matches_per_tap_oracle(self, x_shape, w_shape, padding):
        x, w, b = rand(x_shape, seed=37), rand(w_shape, seed=38), rand((w_shape[0],), seed=39)
        got = conv2d(Tensor(x), Tensor(w), Tensor(b), padding=padding).data
        assert np.max(np.abs(got - conv2d_taps(x, w, b, padding))) <= 1e-12

    def test_narrow_conv_backward_stays_near_input_size(self):
        """An FGU-shaped conv (one output channel) holds no Cin*k*k buffer."""
        x = Tensor(rand((1, 128, 32, 32), seed=44), requires_grad=True)
        wt = Tensor(rand((1, 128, 3, 3), seed=45), requires_grad=True)
        b = Tensor(np.zeros(1), requires_grad=True)
        tracemalloc.start()
        try:
            with Tape() as tape:
                loss = tsum(conv2d(x, wt, b, padding=1))
            backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.grad is not None and wt.grad is not None
        assert peak < 2 * x.data.nbytes, f"peak {peak} bytes for a {x.data.nbytes}-byte input"

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            conv2d(
                Tensor(np.zeros((1, 1, 4, 4))),
                Tensor(np.zeros((1, 1, 2, 2))),
                Tensor(np.zeros(1)),
            )


# ---------------------------------------------------------------------------
# interpolation and pooling


class TestBilinearUpsample:
    def test_constant_preserved(self):
        out = bilinear_upsample_x2(Tensor(np.full((1, 2, 3, 3), 1.7)))
        assert np.array_equal(out.data, np.full((1, 2, 6, 6), 1.7))

    def test_frozen_2x2_case(self):
        # hand-evaluated half-pixel formula on [[1,2],[3,4]]
        out = bilinear_upsample_x2(Tensor([[[[1.0, 2.0], [3.0, 4.0]]]])).data[0, 0]
        want = np.array(
            [
                [1.0, 1.25, 1.75, 2.0],
                [1.5, 1.75, 2.25, 2.5],
                [2.5, 2.75, 3.25, 3.5],
                [3.0, 3.25, 3.75, 4.0],
            ]
        )
        assert np.array_equal(out, want)

    def test_single_pixel(self):
        out = bilinear_upsample_x2(Tensor(np.full((1, 1, 1, 1), 0.3)))
        assert np.array_equal(out.data, np.full((1, 1, 2, 2), 0.3))

    def test_matches_reference_formula(self):
        x = rand((1, 2, 4, 5), seed=7)
        got = bilinear_upsample_x2(Tensor(x)).data
        assert np.max(np.abs(got - upsample2_reference(x))) <= 1e-12

    @pytest.mark.parametrize("lead", [(2, 3), (1, 2, 3)], ids=["4d", "5d"])
    @pytest.mark.parametrize("h,w", [(1, 1), (2, 3), (3, 5), (5, 2), (1, 5)])
    def test_backward_is_the_adjoint(self, lead, h, w):
        # <up(x), g> == <x, up^T(g)>, with up(x) from the per-pixel formula
        x = Tensor(rand(lead + (h, w), seed=h * 10 + w), requires_grad=True)
        g = rand(lead + (2 * h, 2 * w), seed=99)
        with Tape() as tape:
            loss = tsum(mul(bilinear_upsample_x2(x), Tensor(g)))
        backward(tape, loss)
        lhs = float(np.sum(upsample2_reference(x.data) * g))
        rhs = float(np.sum(x.data * x.grad))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


class TestMaxPool:
    def test_tiny_case(self):
        out = maxpool2d(Tensor([[[[1.0, 2.0], [3.0, 4.0]]]]), 2, 2)
        assert out.data.reshape(()) == 4.0

    def test_constant_preserved(self):
        out = maxpool2d(Tensor(np.full((1, 2, 4, 4), -0.5)), 2, 2)
        assert np.array_equal(out.data, np.full((1, 2, 2, 2), -0.5))

    def test_matches_nested_loop_oracle(self):
        x = rand((1, 3, 8, 8), seed=8)
        got = maxpool2d(Tensor(x), 2, 2).data
        assert np.array_equal(got, maxpool_loops(x, 2, 2))

    def test_indivisible_extent_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            maxpool2d(Tensor(np.zeros((1, 1, 5, 5))), 2, 2)

    def test_tie_gradient_goes_to_first_in_row_major(self):
        x = Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
        with Tape() as tape:
            loss = tsum(maxpool2d(x, 2, 2))
        backward(tape, loss)
        assert np.array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])


class TestGlobalAvgPool:
    def test_constant(self):
        out = global_avg_pool(Tensor(np.full((1, 2, 3, 3), 0.25)))
        assert np.array_equal(out.data, np.full((1, 2, 1, 1), 0.25))

    def test_hand_mean(self):
        out = global_avg_pool(Tensor([[[[0.0, 2.0], [4.0, 6.0]]]]))
        assert out.data.reshape(()) == 3.0

    def test_matches_sum_oracle(self):
        x = rand((2, 4, 7, 5), seed=9)
        got = global_avg_pool(Tensor(x)).data
        want = x.sum(axis=(2, 3), keepdims=True) / 35.0
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_five_dim_stack(self):
        x = rand((2, 3, 4, 5, 6), seed=10)
        got = global_avg_pool(Tensor(x)).data
        assert got.shape == (2, 3, 4, 1, 1)
        assert np.max(np.abs(got - x.mean(axis=(3, 4), keepdims=True))) <= 1e-12


# ---------------------------------------------------------------------------
# softmax / elementwise / normalization


class TestSoftmax:
    def test_uniform_input(self):
        out = softmax(Tensor(np.zeros((2, 6))), (1,)).data
        assert np.array_equal(out, np.full((2, 6), 1.0 / 6.0))

    def test_shift_invariance(self):
        x = rand((2, 3, 4), seed=11)
        a = softmax(Tensor(x), (1, 2)).data
        b = softmax(Tensor(x + 123.456), (1, 2)).data
        assert np.max(np.abs(a - b)) <= 1e-12

    def test_matches_direct_oracle(self):
        x = rand((3, 5), seed=12)
        got = softmax(Tensor(x), (1,)).data
        e = np.exp(x)
        want = e / e.sum(axis=1, keepdims=True)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_simplex(self):
        x = rand((2, 3, 7, 5), seed=13)
        out = softmax(Tensor(x), (2, 3)).data
        assert np.all(out > 0)
        assert np.max(np.abs(out.sum(axis=(2, 3)) - 1.0)) <= 1e-12

    def test_empty_axis_set_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            softmax(Tensor(np.zeros((2, 2))), ())


class TestElementwise:
    def test_sigmoid_at_zero(self):
        assert sigmoid(Tensor([0.0])).data[0] == 0.5

    def test_relu(self):
        out = relu(Tensor([-1.0, 0.0, 2.0])).data
        assert np.array_equal(out, [0.0, 0.0, 2.0])

    def test_concat_shapes(self):
        a = Tensor(np.zeros((1, 2, 4, 4)))
        b = Tensor(np.zeros((1, 3, 4, 4)))
        assert concat([a, b], 1).shape == (1, 5, 4, 4)

    def test_concat_incompatible_rejected(self):
        a = Tensor(np.zeros((1, 2, 4, 4)))
        b = Tensor(np.zeros((1, 3, 5, 4)))
        with pytest.raises(ValueError, match="concat"):
            concat([a, b], 1)

    def test_broadcast_add(self):
        a = Tensor(rand((2, 3, 4), seed=14))
        b = Tensor(rand((1, 3, 1), seed=15))
        assert np.array_equal(add(a, b).data, a.data + b.data)

    def test_incompatible_broadcast_rejected(self):
        with pytest.raises(ValueError):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))

    def test_division_by_zero_surfaces(self):
        with pytest.raises(NonFiniteError):
            div(Tensor([1.0]), Tensor([0.0]))

    def test_exp_overflow_surfaces(self):
        with pytest.raises(NonFiniteError):
            exp(Tensor([1e4]))


class TestChannelNorm:
    def test_standardized_input_roundtrip(self):
        x = rand((4, 3, 8, 8), seed=16)
        x = (x - x.mean(axis=(0, 2, 3), keepdims=True)) / x.std(axis=(0, 2, 3), keepdims=True)
        out = channel_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)), 1e-5).data
        assert np.max(np.abs(out - x)) <= 1e-4  # eps shrinks the scale slightly

    def test_defining_property(self):
        x = rand((2, 4, 6, 5), seed=17)
        out = channel_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)), 1e-5).data
        assert np.max(np.abs(out.mean(axis=(0, 2, 3)))) <= 1e-10
        var = x.var(axis=(0, 2, 3))
        assert np.max(np.abs(out.var(axis=(0, 2, 3)) - var / (var + 1e-5))) <= 1e-6

    def test_matches_two_pass_oracle(self):
        x = rand((2, 3, 4, 4), seed=18)
        gamma, beta = rand((3,), seed=19), rand((3,), seed=20)
        got = channel_norm(Tensor(x), Tensor(gamma), Tensor(beta), 1e-5).data
        mu = x.mean(axis=(0, 2, 3), keepdims=True)
        var = ((x - mu) ** 2).mean(axis=(0, 2, 3), keepdims=True)
        want = gamma.reshape(1, 3, 1, 1) * (x - mu) / np.sqrt(var + 1e-5) + beta.reshape(
            1, 3, 1, 1
        )
        assert np.max(np.abs(got - want)) <= 1e-10

    def test_forward_bitwise_equals_composite(self):
        x = Tensor(rand((2, 5, 6, 7), seed=46) * 3.0 + 1.0)
        gamma, beta = Tensor(rand((5,), seed=47)), Tensor(rand((5,), seed=48))
        got = channel_norm(x, gamma, beta).data
        assert np.array_equal(got, channel_norm_composite(x, gamma, beta).data)

    def test_records_one_tape_node(self):
        x = Tensor(rand((2, 3, 4, 4), seed=49), requires_grad=True)
        with Tape() as tape:
            channel_norm(x, Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3)))
        assert len(tape) == 1

    def test_gradients_match_finite_differences(self):
        x = Tensor(rand((2, 3, 5, 4), seed=50), requires_grad=True, name="x")
        gamma = Tensor(np.abs(rand((3,), seed=51)) + 0.5, requires_grad=True, name="gamma")
        beta = Tensor(rand((3,), seed=52), requires_grad=True, name="beta")
        proj = Tensor(rand(x.shape, seed=53))

        def build_loss():
            return tsum(mul(channel_norm(x, gamma, beta), proj))

        for result in check_gradients(build_loss, [x, gamma, beta], max_coords=512):
            assert result.passed, result

    def test_single_value_rejected(self):
        with pytest.raises(ValueError, match="variance undefined"):
            channel_norm(Tensor(np.zeros((1, 3, 1, 1))), Tensor(np.ones(3)), Tensor(np.zeros(3)))

    def test_bad_eps_rejected(self):
        with pytest.raises(ValueError, match="eps"):
            channel_norm(
                Tensor(np.zeros((2, 3, 2, 2))), Tensor(np.ones(3)), Tensor(np.zeros(3)), 0.0
            )


# ---------------------------------------------------------------------------
# tape semantics


class TestTape:
    def test_sum_gradient_is_ones(self):
        x = Tensor(rand((3, 4), seed=21), requires_grad=True)
        with Tape() as tape:
            loss = tsum(x)
        backward(tape, loss)
        assert np.array_equal(x.grad, np.ones((3, 4)))

    def test_half_square_gradient_is_x(self):
        x = Tensor(rand((3, 4), seed=22), requires_grad=True)
        with Tape() as tape:
            loss = scale(tsum(mul(x, x)), 0.5)
        backward(tape, loss)
        assert np.max(np.abs(x.grad - x.data)) <= 1e-12

    def test_double_backward_rejected(self):
        x = Tensor(rand((2,), seed=23), requires_grad=True)
        with Tape() as tape:
            loss = tsum(x)
        backward(tape, loss)
        with pytest.raises(TapeError, match="reset"):
            backward(tape, loss)

    def test_reset_rearms(self):
        x = Tensor(rand((2,), seed=24), requires_grad=True)
        with Tape() as tape:
            loss = tsum(x)
        backward(tape, loss)
        tape.reset()
        backward(tape, loss)
        assert np.array_equal(x.grad, np.ones(2))

    @staticmethod
    def _graph():
        """A small graph with a shared leaf, a conv, an upsample and a reshape."""
        x = Tensor(rand((1, 2, 3, 3), seed=40), requires_grad=True)
        w = Tensor(rand((2, 2, 3, 3), seed=41), requires_grad=True)
        b = Tensor(rand((2,), seed=42), requires_grad=True)
        tape = Tape()
        with tape:
            y = conv2d(x, w, b, padding=1)
            u = bilinear_upsample_x2(relu(add(y, x)))
            loss = tsum(mul(reshape(u, (2, 36)), Tensor(rand((2, 36), seed=43))))
        return tape, loss, [x, w, b], [y, u, loss]

    def test_backward_keeps_grads_on_leaves_only(self):
        tape, loss, leaves, interior = self._graph()
        backward(tape, loss)
        assert all(leaf.grad is not None for leaf in leaves)
        assert all(out.grad is None for out, _, _ in tape._nodes)
        assert all(t.grad is None for t in interior)

    def test_reset_then_backward_repeats_bitwise(self):
        tape, loss, leaves, _ = self._graph()
        backward(tape, loss)
        first = [leaf.grad.copy() for leaf in leaves]
        tape.reset()
        assert all(leaf.grad is None for leaf in leaves)
        backward(tape, loss)
        for got, want in zip([leaf.grad for leaf in leaves], first):
            assert np.array_equal(got, want)

    def test_shared_vjp_result_is_copied_per_input(self):
        # add hands the same array to both inputs; each must get its own grad
        a = Tensor(rand((2, 3), seed=54), requires_grad=True)
        b = Tensor(rand((2, 3), seed=55), requires_grad=True)
        with Tape() as tape:
            loss = tsum(mul(add(a, b), Tensor(rand((2, 3), seed=56))))
        backward(tape, loss)
        assert a.grad is not b.grad and not np.shares_memory(a.grad, b.grad)
        assert a.grad.flags.writeable and b.grad.flags.writeable
        assert np.array_equal(a.grad, b.grad)

    def test_broadcast_grad_is_copied_into_owned_array(self):
        x = Tensor(rand((3, 4), seed=57), requires_grad=True)
        with Tape() as tape:
            loss = tsum(x)  # its vjp is a read-only broadcast view
        backward(tape, loss)
        assert x.grad.flags.owndata and x.grad.flags.writeable
        x.grad *= 2.0
        assert np.array_equal(x.grad, np.full((3, 4), 2.0))

    def test_non_scalar_loss_rejected(self):
        x = Tensor(rand((2,), seed=25), requires_grad=True)
        with Tape() as tape:
            out = mul(x, x)
        with pytest.raises(TapeError, match="scalar"):
            backward(tape, out)

    def test_detached_loss_rejected(self):
        x = Tensor(rand((2,), seed=26), requires_grad=True)
        with Tape() as tape:
            tsum(x)
        detached = tsum(x)  # built outside the tape
        with pytest.raises(TapeError, match="detached"):
            backward(tape, detached)

    def test_nested_tapes_rejected(self):
        with Tape():
            with pytest.raises(TapeError, match="nested"):
                with Tape():
                    pass

    def test_no_tape_means_no_graph(self):
        x = Tensor(rand((2,), seed=27), requires_grad=True)
        out = tsum(x)
        assert not out.requires_grad and out.grad is None

    def test_determinism_bitwise(self):
        x = rand((2, 3, 8, 8), seed=28)
        w = rand((4, 3, 3, 3), seed=29)
        b = rand((4,), seed=30)
        a = conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1).data
        bb = conv2d(Tensor(x), Tensor(w), Tensor(b), padding=1).data
        assert np.array_equal(a, bb)
