"""Forward semantics of the tensor core against independent oracles."""

import re
import threading
import tracemalloc
import types
import weakref

import numpy as np
import pytest

from rcnet import counting, tensor
from rcnet.csn import csn_params, rcnet_forward
from rcnet.fixtures import extend_stem, synth_backbone
from rcnet.gradcheck import check_gradients
from rcnet.revfp import revfp_params
from rcnet.rng import SplitMix64
from rcnet.tensor import (
    NonFiniteError,
    Tape,
    TapeError,
    Tensor,
    _GradCell,
    _Recipe,
    _accumulate,
    _make,
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
    narrow,
    pad2d,
    relu,
    reshape,
    scale,
    sigmoid,
    softmax,
    sqrt,
    sub,
    tmean,
    transpose,
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


def conv2d_taps(x, w, b, padding, stride=1):
    """Cross-correlation as one einsum per kernel tap over the padded input."""
    _, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp = (xp.shape[2] - kh) // stride + 1
    wp = (xp.shape[3] - kw) // stride + 1
    out = b[None, :, None, None] + np.zeros((x.shape[0], w.shape[0], hp, wp))
    for i in range(kh):
        for j in range(kw):
            window = xp[:, :, i : i + stride * hp : stride, j : j + stride * wp : stride]
            out += np.einsum("oc,nchw->nohw", w[:, :, i, j], window)
    return out


def conv2d_taps_vjp(x, w, g, padding, stride=1):
    """Input and weight gradients of `conv2d_taps` for output gradient g, per tap."""
    _, _, kh, kw = w.shape
    h, wid = x.shape[2:]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    hp, wp = g.shape[2:]
    gxp = np.zeros_like(xp)
    gw = np.zeros_like(w)
    for i in range(kh):
        for j in range(kw):
            sl = (slice(None), slice(None), slice(i, i + stride * hp, stride),
                  slice(j, j + stride * wp, stride))
            gxp[sl] += np.einsum("oc,nohw->nchw", w[:, :, i, j], g)
            gw[:, :, i, j] = np.einsum("nohw,nchw->oc", g, xp[sl])
    return gxp[:, :, padding : padding + h, padding : padding + wid], gw


def channel_norm_composite(x, gamma, beta, eps=1e-5):
    """The taped-op composition channel_norm must reproduce bitwise."""
    c = x.shape[1]
    axes = (0, 2, 3)
    mu = reshape(tmean(x, axes), (1, c, 1, 1))
    d = sub(x, mu)
    var = reshape(tmean(mul(d, d), axes), (1, c, 1, 1))
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


def maxpool_grad_loops(x, g, k, stride):
    """Route each window's gradient to its first maximum in row-major window order."""
    gx = np.zeros_like(x)
    n, c, hp, wp = g.shape
    for bi in range(n):
        for ci in range(c):
            for oy in range(hp):
                for ox in range(wp):
                    win = x[bi, ci, oy * stride : oy * stride + k, ox * stride : ox * stride + k]
                    dy, dx = divmod(int(np.argmax(win)), k)
                    gx[bi, ci, oy * stride + dy, ox * stride + dx] += g[bi, ci, oy, ox]
    return gx


def upsample2_gather(x):
    """The index-gather form of the x2 half-pixel upsample: rows, then columns.

    Each output is (1 - t) * x[lo] + t * x[hi], with lo and hi the clamped
    neighbours of the sampled coordinate and t its fractional part.
    """

    def indices(n):
        src = (np.arange(2 * n) + 0.5) / 2.0 - 0.5
        i0 = np.floor(src)
        lo = np.clip(i0, 0, n - 1).astype(np.intp)
        hi = np.clip(i0 + 1, 0, n - 1).astype(np.intp)
        return lo, hi, src - i0

    h, w = x.shape[-2:]
    rlo, rhi, rt = indices(h)
    clo, chi, ct = indices(w)
    rt = rt.reshape((1,) * (x.ndim - 2) + (2 * h, 1))
    ct = ct.reshape((1,) * (x.ndim - 2) + (1, 2 * w))
    rows = x[..., rlo, :] * (1.0 - rt) + x[..., rhi, :] * rt
    return rows[..., :, clo] * (1.0 - ct) + rows[..., :, chi] * ct


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

    @pytest.mark.parametrize(
        "wshape, padding", [((6, 4, 3, 3), 1), ((6, 4, 1, 1), 0)], ids=["im2col", "pointwise"]
    )
    def test_one_sample_weight_grad_is_half_a_duplicated_pair(self, wshape, padding):
        # at N = 1 the weight vjp returns its GEMM output; at N = 2 it sums
        # the per-sample GEMMs over the batch, and x + x is 2x exactly
        x1, g1 = rand((1, 4, 6, 6), seed=150), rand((1, 6, 6, 6), seed=151)
        grads = []
        for n in (1, 2):
            w = Tensor(rand(wshape, seed=152), requires_grad=True)
            with Tape() as tape:
                out = conv2d(Tensor(np.concatenate([x1] * n)), w, Tensor(np.zeros(6)), padding=padding)
                loss = tsum(mul(out, Tensor(np.concatenate([g1] * n))))
            backward(tape, loss)
            grads.append(w.grad)
        assert (2.0 * grads[0]).tobytes() == grads[1].tobytes()
        assert grads[0].flags.owndata and grads[0].flags.c_contiguous

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

    @pytest.mark.parametrize(
        "x_shape,w_shape,stride,padding",
        [
            ((5, 6, 7, 5), (9, 6, 1, 1), 1, 0),  # N=5 1x1: GEMMs on views of x
            ((1, 6, 9, 9), (6, 6, 3, 3), 2, 0),  # the stride-2 stem (input padded on one side)
            ((2, 5, 8, 6), (7, 5, 3, 3), 1, 1),  # 3x3 pad 1, Cout >= Cin: the im2col path
        ],
    )
    def test_im2col_path_matches_einsum_oracle(self, x_shape, w_shape, stride, padding):
        x = Tensor(rand(x_shape, seed=60), requires_grad=True)
        w = Tensor(rand(w_shape, seed=61), requires_grad=True)
        b = Tensor(rand((w_shape[0],), seed=62), requires_grad=True)
        with Tape() as tape:
            out = conv2d(x, w, b, stride, padding)
            g = rand(out.shape, seed=63)
            loss = tsum(mul(out, Tensor(g)))
        backward(tape, loss)
        want = conv2d_taps(x.data, w.data, b.data, padding, stride)
        want_gx, want_gw = conv2d_taps_vjp(x.data, w.data, g, padding, stride)
        assert np.max(np.abs(out.data - want)) <= 1e-12
        assert np.max(np.abs(x.grad - want_gx)) <= 1e-12
        assert np.max(np.abs(w.grad - want_gw)) <= 1e-12
        assert np.max(np.abs(b.grad - g.sum(axis=(0, 2, 3)))) <= 1e-12

    def test_pointwise_input_grad_is_an_owned_array(self):
        x = Tensor(rand((2, 4, 3, 5), seed=64), requires_grad=True)
        w = Tensor(rand((6, 4, 1, 1), seed=65))
        with Tape() as tape:
            loss = tsum(conv2d(x, w, Tensor(np.zeros(6))))
        backward(tape, loss)
        assert x.grad.flags.owndata and x.grad.flags.c_contiguous

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
    @pytest.mark.parametrize("h", [1, 2, 3, 5])
    @pytest.mark.parametrize("w", [1, 2, 3, 5])
    def test_bitwise_equals_index_gather_form(self, lead, h, w):
        x = rand(lead + (h, w), seed=100 + h * 10 + w) * 7.0
        x.flat[0] = -0.0
        got = bilinear_upsample_x2(Tensor(x)).data
        assert got.tobytes() == upsample2_gather(x).tobytes()

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
        out = maxpool2d(Tensor([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert out.data.reshape(()) == 4.0

    def test_constant_preserved(self):
        out = maxpool2d(Tensor(np.full((1, 2, 4, 4), -0.5)))
        assert np.array_equal(out.data, np.full((1, 2, 2, 2), -0.5))

    def test_matches_nested_loop_oracle(self):
        x = rand((1, 3, 8, 8), seed=8)
        got = maxpool2d(Tensor(x)).data
        assert np.array_equal(got, maxpool_loops(x, 2, 2))

    def test_indivisible_extent_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            maxpool2d(Tensor(np.zeros((1, 1, 5, 5))))

    def test_tie_gradient_goes_to_first_in_row_major(self):
        x = Tensor(np.zeros((1, 1, 2, 2)), requires_grad=True)
        with Tape() as tape:
            loss = tsum(maxpool2d(x))
        backward(tape, loss)
        assert np.array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    @staticmethod
    def pool_input(layout, shape, seed):
        """A C-contiguous array or a strided slice."""
        if layout == "contiguous":
            return rand(shape, seed=seed)
        n, c, h, w = shape
        return rand((n, c, h, w + 8), seed=seed)[..., 3 : 3 + w]

    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    def test_matches_loop_oracles_with_ties(self, layout):
        # integer-valued inputs: most windows hold several copies of their maximum
        x = Tensor(np.round(self.pool_input(layout, (2, 3, 8, 8), seed=70)), requires_grad=True)
        g = rand((2, 3, 4, 4), seed=71)
        with Tape() as tape:
            out = maxpool2d(x)
            loss = tsum(mul(out, Tensor(g)))
        backward(tape, loss)
        assert np.array_equal(out.data, maxpool_loops(x.data, 2, 2))
        assert np.array_equal(x.grad, maxpool_grad_loops(x.data, g, 2, 2))

    def test_signed_zero_tie_keeps_the_first(self):
        x = np.array([[[[-0.0, 0.0], [0.0, -0.0]]]])
        for data, sign in [(x, True), (-x, False)]:
            out = maxpool2d(Tensor(data)).data
            assert out.reshape(()) == 0.0 and bool(np.signbit(out).all()) is sign

    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    def test_forward_allocates_no_window_candidate_buffer(self, layout):
        x = Tensor(self.pool_input(layout, (1, 16, 64, 64), seed=74))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = maxpool2d(x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # a [..., 4] candidate array would be 4 times the output
        assert peak < 2 * out.data.nbytes, f"peak {peak} bytes for a {out.data.nbytes}-byte output"


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

    def test_relu_nan_surfaces(self):
        # a NaN input used to come out as 0.0
        with pytest.raises(NonFiniteError, match="relu"):
            relu(Tensor([np.nan, -1.0]))

    @pytest.mark.parametrize("start,length", [(2, -1), (0, -4), (-1, 2), (3, 2)])
    def test_narrow_out_of_range_rejected(self, start, length):
        # a negative length used to give an empty view
        want = re.escape(f"[{start}, {start + length}) out of range")
        with pytest.raises(ValueError, match=want):
            narrow(Tensor(np.zeros((3, 4))), 1, start, length)

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
        out = channel_norm(Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3))).data
        assert np.max(np.abs(out - x)) <= 1e-4  # eps shrinks the scale slightly

    def test_defining_property(self):
        x = rand((2, 4, 6, 5), seed=17)
        out = channel_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4))).data
        assert np.max(np.abs(out.mean(axis=(0, 2, 3)))) <= 1e-10
        var = x.var(axis=(0, 2, 3))
        assert np.max(np.abs(out.var(axis=(0, 2, 3)) - var / (var + 1e-5))) <= 1e-6

    def test_matches_two_pass_oracle(self):
        x = rand((2, 3, 4, 4), seed=18)
        gamma, beta = rand((3,), seed=19), rand((3,), seed=20)
        got = channel_norm(Tensor(x), Tensor(gamma), Tensor(beta)).data
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

    @pytest.mark.parametrize("x_grad,gamma_grad", [(True, True), (True, False), (False, True)])
    def test_gradients_match_composite(self, x_grad, gamma_grad):
        # the x vjp hands its per-channel sum of g * xh to the gamma vjp only
        # when both are differentiated; each combination must stay exact
        data = rand((2, 3, 5, 4), seed=75) * 2.0 + 0.5
        g = rand(data.shape, seed=76)
        grads = []
        for norm in (channel_norm, channel_norm_composite):
            x = Tensor(data, requires_grad=x_grad)
            gamma = Tensor(np.abs(rand((3,), seed=77)) + 0.5, requires_grad=gamma_grad)
            beta = Tensor(rand((3,), seed=78), requires_grad=True)
            with Tape() as tape:
                loss = tsum(mul(norm(x, gamma, beta), Tensor(g)))
            backward(tape, loss)
            grads.append([x.grad, gamma.grad, beta.grad])
        for got, want in zip(*grads):
            assert (got is None) == (want is None)
            if got is not None:
                assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_backward_forms_no_full_size_g_xh_product(self):
        x = Tensor(rand((2, 32, 32, 32), seed=79), requires_grad=True)
        gamma = Tensor(np.ones(32), requires_grad=True)
        beta = Tensor(np.zeros(32), requires_grad=True)
        with Tape() as tape:
            loss = tsum(mul(channel_norm(x, gamma, beta), Tensor(rand(x.shape, seed=80))))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # the output grad and x.grad are one input size each; a g * xh product
        # per vjp made it three
        assert peak < 2.5 * x.data.nbytes, f"peak {peak} bytes for a {x.data.nbytes}-byte input"

    def test_single_value_rejected(self):
        with pytest.raises(ValueError, match="variance undefined"):
            channel_norm(Tensor(np.zeros((1, 3, 1, 1))), Tensor(np.ones(3)), Tensor(np.zeros(3)))


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
        with pytest.raises(TapeError, match="swept once"):
            backward(tape, loss)

    def test_backward_empties_the_tape_and_frees_what_only_a_vjp_held(self):
        x = Tensor(rand((3, 4), seed=24), requires_grad=True)
        held = rand((3, 4), seed=58)
        with Tape() as tape:
            loss = tsum(mul(x, Tensor(held)))  # x's vjp reads `held`
        ref = weakref.ref(held)
        del held
        kept = ref() is not None
        assert kept and len(tape) == 2
        backward(tape, loss)
        assert len(tape) == 0
        assert ref() is None, "an array only a vjp read outlived the sweep"
        assert np.array_equal(x.grad, rand((3, 4), seed=58))

    def test_a_sweep_that_raised_leaves_the_tape_spent(self):
        x = Tensor(rand((2, 3), seed=59), requires_grad=True)

        def failing_vjp(g):
            raise ValueError("vjp failed")

        with Tape() as tape:
            loss = tsum(_make("failing", x.data * 2.0, [(x, failing_vjp)]))
        with pytest.raises(ValueError, match="vjp failed"):
            backward(tape, loss)
        assert len(tape) == 0
        with pytest.raises(TapeError, match="swept once"):
            backward(tape, loss)

    @pytest.mark.parametrize(
        "value,name,op,match",
        [
            # d sqrt(x)/dx = 0.5/sqrt(x) is inf at x = 0
            ([0.0, 4.0], "x", sqrt, "leaf 'x'"),
            # d(1/b)/db = -1/b^2 overflows although 1/b = 1e200 is finite
            ([1e-200], None, lambda b: div(Tensor([1.0]), b), r"a leaf of shape \(1,\)"),
        ],
        ids=["sqrt-named", "div-unnamed"],
    )
    def test_non_finite_leaf_grad_raises(self, value, name, op, match):
        leaf = Tensor(value, requires_grad=True, name=name)
        with Tape() as tape:
            loss = tsum(op(leaf))
        with np.errstate(divide="ignore", over="ignore"), pytest.raises(NonFiniteError, match=match):
            backward(tape, loss)

    @staticmethod
    def _graph(leaves=None):
        """A small graph with a shared leaf, a conv, an upsample and a reshape."""
        x, w, b = leaves or (
            Tensor(rand((1, 2, 3, 3), seed=40), requires_grad=True),
            Tensor(rand((2, 2, 3, 3), seed=41), requires_grad=True),
            Tensor(rand((2,), seed=42), requires_grad=True),
        )
        tape = Tape()
        with tape:
            y = conv2d(x, w, b, padding=1)
            u = bilinear_upsample_x2(relu(add(y, x)))
            loss = tsum(mul(reshape(u, (2, 36)), Tensor(rand((2, 36), seed=43))))
        return tape, loss, [x, w, b], [y, u, loss]

    def test_backward_keeps_grads_on_leaves_only(self):
        tape, loss, leaves, interior = self._graph()
        nodes = list(tape._nodes)  # the sweep takes them off the tape
        assert len(nodes) == 7
        backward(tape, loss)
        assert all(leaf.grad is not None for leaf in leaves)
        assert all(out.grad is None for out, _ in nodes)
        assert all(t.grad is None for t in interior)

    def test_two_tapes_over_one_graph_give_bitwise_equal_grads(self):
        tape, loss, leaves, _ = self._graph()
        backward(tape, loss)
        first = [leaf.grad for leaf in leaves]
        for leaf in leaves:
            leaf.grad = None
        tape, loss, _, _ = self._graph(leaves)
        backward(tape, loss)
        for leaf, want in zip(leaves, first):
            assert np.array_equal(leaf.grad, want)

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

    def test_a_spent_tape_cannot_record_again(self):
        # its nodes would go where no sweep reaches: a second backward raises
        x = Tensor(rand((2,), seed=31), requires_grad=True)
        with Tape() as tape:
            loss = tsum(x)
        backward(tape, loss)
        with pytest.raises(TapeError, match="swept this tape"):
            with tape:
                pass
        assert len(tape) == 0
        with Tape() as fresh:  # the failed entry left no tape recording
            tsum(x)
        assert len(fresh) == 1

    def test_backward_inside_the_recording_block_ends_its_recording(self):
        x = Tensor(rand((2,), seed=32), requires_grad=True)
        with Tape() as tape:
            loss = tsum(x)
            backward(tape, loss)
            with pytest.raises(TapeError, match="swept this tape"):
                scale(x, 2.0)
            scale(Tensor(rand((2,), seed=33)), 2.0)  # no input requires grad: not recorded
        assert len(tape) == 0
        assert np.array_equal(x.grad, np.ones(2))

    def test_a_loss_that_is_not_a_tensor_is_rejected(self):
        x = Tensor(rand((2,), seed=34), requires_grad=True)
        with Tape() as tape:
            loss = tsum(x)
        with pytest.raises(TapeError, match="loss must be a Tensor, got float"):
            backward(tape, 3.0)
        backward(tape, loss)  # the rejected call did not spend the tape
        assert np.array_equal(x.grad, np.ones(2))

    def test_a_tape_that_is_not_a_tape_is_rejected(self):
        x = Tensor(rand((2,), seed=35), requires_grad=True)
        with Tape() as tape:
            loss = tsum(x)
        with pytest.raises(TapeError, match="backward needs a Tape, got str"):
            backward("x", loss)
        backward(tape, loss)
        assert np.array_equal(x.grad, np.ones(2))

    def test_a_kept_array_changed_before_backward_changes_the_grads(self):
        # the contract: arrays a tape keeps must not change until backward.
        # Nothing detects a change; this pins what one does today. At the
        # forward's values a's grad is 2 w^2 a = [8, 16, 24]; the vjps read
        # the changed w, and m's recipe rebuilds m = w * a from it too
        w = Tensor(np.full(3, 2.0))
        a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
        with Tape() as tape:
            m = mul(w, a)
            loss = tsum(mul(m, m))
        w.data[:] = 5.0
        backward(tape, loss)
        assert np.array_equal(a.grad, [50.0, 100.0, 150.0])

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


    def test_requires_grad_toggled_after_recording_changes_no_grad(self):
        # the flags are read when an op is recorded: a's vjp was kept and
        # b's was not, whatever they are set to when the sweep runs
        a = Tensor(rand((3, 4), seed=81), requires_grad=True)
        b = Tensor(rand((3, 4), seed=82))
        with Tape() as tape:
            loss = tsum(mul(a, b))
        a.requires_grad, b.requires_grad = False, True
        backward(tape, loss)
        assert np.array_equal(a.grad, b.data)
        assert b.grad is None

    def test_a_grad_turned_on_for_a_rebuilt_input_reader_changes_nothing(self):
        # b's vjp would read a * a, which has a recipe; b needed no grad when
        # the op was recorded, so the node kept no vjp for it
        a = Tensor(rand((3, 4), seed=83), requires_grad=True)
        b = Tensor(rand((3, 4), seed=84))
        with Tape() as tape:
            loss = tsum(mul(mul(a, a), b))
        b.requires_grad = True
        backward(tape, loss)
        assert b.grad is None
        ab = b.data * a.data
        assert a.grad.tobytes() == (ab + ab).tobytes()

    @pytest.mark.parametrize("cout", [3, 1], ids=["im2col", "channel-first"])
    def test_a_conv_a_swept_tape_refuses_counts_nothing(self, cout):
        x = Tensor(rand((1, 2, 4, 4), seed=78), requires_grad=True, name="x")
        w = Tensor(rand((cout, 2, 3, 3), seed=79), name="w")
        b = Tensor(np.zeros(cout), name="b")
        report = counting.CountReport()
        with Tape() as tape:
            backward(tape, tsum(x))
            with counting.collect(report, "root"), counting.scope("conv"):
                with pytest.raises(TapeError, match="swept this tape"):
                    conv2d(x, w, b, padding=1)
        assert report.to_dict()["rows"] == {
            "root": {"params": 0, "macs": 0}, "root/conv": {"params": 0, "macs": 0},
        }

    def test_two_threads_record_apart(self):
        # each thread records its own tape and collection while the other's
        # are open; neither sees the other's nodes or rows
        both_open, both_recorded = threading.Barrier(2), threading.Barrier(2)
        seen, errors = {}, []

        def record(k):
            try:
                report = counting.CountReport()
                x = Tensor(rand((2, 2), seed=90 + k), requires_grad=True)
                with Tape() as tape, counting.collect(report, f"thread{k}"):
                    both_open.wait(timeout=10)
                    y = x
                    for _ in range(k + 2):
                        with counting.scope(f"op{k}"):
                            y = scale(y, 2.0)
                    both_recorded.wait(timeout=10)
                seen[k] = (len(tape), sorted(report.rows))
            except Exception as exc:  # surfaced in the main thread below
                both_open.abort()
                both_recorded.abort()
                errors.append(exc)

        threads = [threading.Thread(target=record, args=(k,)) for k in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert not errors, errors
        assert seen[0] == (2, ["thread0", "thread0/op0"])
        assert seen[1] == (3, ["thread1", "thread1/op1"])


class TestCopyOnWrite:
    """Interior grads share memory read-only; a later grad never writes into a shared one."""

    def test_narrow_into_a_read_only_grad_copies_it_first(self):
        # t's first grad is the read-only broadcast that tsum(b) hands
        # through add; narrow then adds its slice into it
        x = Tensor(rand((2, 3), seed=60), requires_grad=True)
        u = Tensor(rand((2, 3), seed=61), requires_grad=True)
        with Tape() as tape:
            t = scale(x, 2.0)
            a = narrow(t, 1, 0, 2)
            b = add(t, u)
            loss = add(tsum(a), tsum(b))
        backward(tape, loss)
        assert np.array_equal(x.grad, [[4.0, 4.0, 2.0], [4.0, 4.0, 2.0]])
        assert np.array_equal(u.grad, np.ones((2, 3)))
        for leaf in (x, u):
            flags = leaf.grad.flags
            assert flags.owndata and flags.c_contiguous and flags.writeable

    @pytest.mark.parametrize("interior", [False, True], ids=["leaf", "interior"])
    @pytest.mark.parametrize("head", ["mul", "tsum"], ids=["owned-grad", "broadcast-grad"])
    def test_add_of_a_tensor_to_itself(self, interior, head):
        # add hands one array twice to one cell: in place into an owned
        # grad, out of place into tsum's read-only broadcast
        x = Tensor(rand((3, 4), seed=62), requires_grad=True)
        p = rand((3, 4), seed=63)
        with Tape() as tape:
            y = scale(x, 1.0) if interior else x
            z = add(y, y)
            loss = tsum(mul(z, Tensor(p))) if head == "mul" else tsum(z)
        backward(tape, loss)
        want = p + p if head == "mul" else np.full((3, 4), 2.0)
        assert np.array_equal(x.grad, want)

    def test_broadcast_grad_then_a_second_grad(self):
        # y's first grad is tsum's read-only broadcast; mul's grad is then
        # added out of place, the same sum as in place
        x = Tensor(rand((3, 4), seed=64), requires_grad=True)
        p = rand((3, 4), seed=65)
        with Tape() as tape:
            y = scale(x, 1.0)
            loss = add(tsum(mul(y, Tensor(p))), tsum(y))
        backward(tape, loss)
        assert np.array_equal(x.grad, np.ones((3, 4)) + p)
        assert x.grad.flags.owndata and x.grad.flags.writeable

    def test_a_shared_grad_never_changes_when_the_other_cell_accumulates(self):
        # add hands g to y and z; y then gets mul's grad. Written in place,
        # z's grad (and so w's) would read p + q
        x = Tensor(rand((3, 4), seed=66), requires_grad=True)
        w = Tensor(rand((3, 4), seed=67), requires_grad=True)
        p, q = rand((3, 4), seed=68), rand((3, 4), seed=69)
        with Tape() as tape:
            y, z = scale(x, 1.0), scale(w, 1.0)
            m = mul(y, Tensor(q))
            s = add(y, z)
            loss = add(tsum(m), tsum(mul(s, Tensor(p))))
        backward(tape, loss)
        assert np.array_equal(w.grad, p)
        assert np.array_equal(x.grad, p + q)

    def test_cells_that_share_a_grad_hold_it_read_only(self):
        a, b = _GradCell((3,), None), _GradCell((3,), None)
        g = np.ones(3)
        handed = []
        _accumulate(a, g, True, handed)
        _accumulate(b, g, True, handed)
        assert np.shares_memory(a.grad, b.grad)
        assert not a.grad.flags.writeable and not b.grad.flags.writeable
        _accumulate(a, np.full(3, 2.0), True, [])
        _accumulate(b, ((slice(0, 1),), np.ones(1)), True, [])
        assert np.array_equal(a.grad, [3.0, 3.0, 3.0])
        assert np.array_equal(b.grad, [2.0, 1.0, 1.0])
        assert np.array_equal(g, [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("leaf_first", [True, False], ids=["leaf-first", "leaf-second"])
    def test_memory_a_leaf_holds_is_never_marked_read_only(self, leaf_first):
        leaf, cell = _GradCell((3,), None), _GradCell((3,), None)
        g = np.ones(3)
        handed = []
        for c in (leaf, cell) if leaf_first else (cell, leaf):
            _accumulate(c, g, c is cell, handed)
        assert leaf.grad.flags.writeable and leaf.grad.flags.owndata
        assert not np.shares_memory(leaf.grad, cell.grad)
        leaf.grad += 1.0
        assert np.array_equal(cell.grad, [1.0, 1.0, 1.0])


def _tensors_held(obj, seen=None) -> list:
    """Every Tensor reachable from `obj` through containers and closures."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, Tensor):
        return [obj]
    if isinstance(obj, _Recipe):
        inner = [obj.build, obj.rebuilt]
    elif isinstance(obj, types.FunctionType):
        inner = [c.cell_contents for c in obj.__closure__ or () if c.cell_contents is not None]
        inner += list(obj.__defaults__ or ())
    elif isinstance(obj, (list, tuple)):
        inner = list(obj)
    elif isinstance(obj, dict):
        inner = list(obj.values())
    else:
        return []
    return [t for o in inner for t in _tensors_held(o, seen)]


class TestTapeRetention:
    """The tape keeps grad cells and the arrays its vjps read, nothing else."""

    def test_tape_holds_no_tensor(self, mini_cfg):
        rp, cp = revfp_params(mini_cfg), csn_params(mini_cfg)
        C = extend_stem(synth_backbone(mini_cfg), rp, mini_cfg)
        with Tape() as tape:
            out = rcnet_forward(C, mini_cfg, rp, cp)
        assert len(tape) > 100
        assert _tensors_held(tape._nodes) == []
        del out

    def test_sweep_frees_each_node_after_its_vjps(self):
        # the first-recorded op is a 3x3 im2col conv, whose weight vjp runs
        # last and rebuilds its im2col buffer: the sweep's largest temporary.
        # Every later node holds arrays only it reads. A sweep that keeps its
        # nodes to the end holds all of them next to that buffer.
        n, c, h, w = 1, 8, 32, 32
        x = Tensor(rand((n, c, h, w), seed=94), requires_grad=True)
        wt = Tensor(rand((c, c, 3, 3), seed=95), requires_grad=True)
        b = Tensor(np.zeros(c), requires_grad=True)
        cols_bytes = n * c * 9 * h * w * 8
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                y = conv2d(x, wt, b, padding=1)
                for k in range(10):
                    y = mul(y, Tensor(rand(y.shape, seed=96 + k)))
                loss = tsum(y)
            del y
            tape_bytes = tracemalloc.get_traced_memory()[0] - before
            tracemalloc.reset_peak()
            backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert x.grad is not None and wt.grad is not None
        assert tape_bytes > cols_bytes
        assert peak < tape_bytes + cols_bytes, (
            f"sweep peak {peak} bytes; the tape held {tape_bytes} and the im2col is {cols_bytes}"
        )

    def test_a_product_with_a_constant_keeps_no_other_operand(self):
        # the constant's vjp would read y; it needs no grad, so the node keeps
        # only x's vjp, which reads the constant, and y is freed with its name
        x = Tensor(rand((1, 3, 6, 6), seed=97), requires_grad=True)
        w = Tensor(rand((4, 3, 3, 3), seed=98), requires_grad=True)
        b = Tensor(np.zeros(4), requires_grad=True)
        with Tape() as tape:
            y = conv2d(x, w, b, padding=1)  # a conv output has no recipe
            held = weakref.ref(y.data)
            loss = tsum(mul(y, Tensor(rand(y.shape, seed=99))))
        del y
        assert held() is None, "the constant's unused vjp kept the conv output"
        backward(tape, loss)
        assert x.grad is not None and w.grad is not None and b.grad is not None

    def test_shape_only_chain_keeps_no_activations(self):
        x = Tensor(rand((1, 8, 128, 128), seed=83), requires_grad=True)  # 1 MiB
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with Tape() as tape:
                y = add(x, x)
                y = reshape(y, (1, 8, 64, 256))
                y = concat([y, y], 1)
                y = narrow(y, 1, 4, 8)
                y = bilinear_upsample_x2(y)
                loss = tsum(add(y, y))
            del y
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # every vjp in the chain reads shapes only; a tape that keeps each
        # output (about 10 inputs' worth here) fails this
        assert held < x.data.nbytes, f"tape holds {held} bytes for a {x.data.nbytes}-byte input"
        backward(tape, loss)
        assert np.array_equal(x.grad, np.full(x.shape, 16.0))

    @pytest.mark.parametrize(
        "build",
        [
            lambda x: narrow(x, 1, 1, 2),
            lambda x: concat([x, Tensor(rand((2, 3, 4, 6), seed=84))], 1),
            lambda x: reshape(x, (2, 4, 4, 2, 3)),
            lambda x: transpose(x, (0, 3, 1, 2)),
            lambda x: pad2d(x, 1, 2, 0, 1),
            lambda x: conv2d(x, Tensor(rand((5, 4, 3, 3), seed=85)), Tensor(np.zeros(5)), padding=1),
            lambda x: conv2d(x, Tensor(rand((2, 4, 3, 3), seed=86)), Tensor(np.zeros(2)), padding=1),
            global_avg_pool,
        ],
        ids=["narrow", "concat", "reshape", "transpose", "pad2d", "conv3x3", "conv3x3_narrow",
             "global_avg_pool"],
    )
    def test_leaf_grads_own_c_contiguous_data(self, build):
        # interior grads may be views of a consumer's grad; a leaf's may not
        x = Tensor(rand((2, 4, 4, 6), seed=87), requires_grad=True)
        with Tape() as tape:
            out = build(x)
            loss = tsum(mul(out, Tensor(rand(out.shape, seed=88))))
        backward(tape, loss)
        flags = x.grad.flags
        assert flags.owndata and flags.c_contiguous and flags.writeable

    def test_conv_weight_grads_own_c_contiguous_data(self):
        # the channel-first weight vjp returns a transposed view
        x = Tensor(rand((1, 4, 5, 5), seed=89))
        for cout in (2, 6):
            w = Tensor(rand((cout, 4, 3, 3), seed=90), requires_grad=True)
            with Tape() as tape:
                loss = tsum(conv2d(x, w, Tensor(np.zeros(cout)), padding=1))
            backward(tape, loss)
            assert w.grad.flags.owndata and w.grad.flags.c_contiguous

    def test_whole_and_four_narrow_blocks_accumulate_bitwise(self):
        x = Tensor(rand((2, 8, 3, 4), seed=91), requires_grad=True)
        p = rand(x.shape, seed=92)
        qs = [rand((2, 2, 3, 4), seed=93 + b) for b in range(4)]
        with Tape() as tape:
            loss = tsum(mul(x, Tensor(p)))
            for b, q in enumerate(qs):
                loss = add(loss, tsum(mul(narrow(x, 1, 2 * b, 2), Tensor(q))))
        backward(tape, loss)
        want = p.copy()
        for b, q in enumerate(qs):
            want[:, 2 * b : 2 * b + 2] += q
        assert np.array_equal(x.grad, want)
        assert x.grad.flags.owndata and x.grad.flags.c_contiguous


# ---------------------------------------------------------------------------
# recipes: outputs rebuilt in backward from what the tape keeps


def _rebuilt_bitwise(t: Tensor) -> bool:
    """Whether `t`'s recipe rebuilds its data byte for byte, shape and layout too."""
    rebuilt = t._recipe.build()
    return (
        rebuilt.shape == t.shape
        and rebuilt.dtype == t.data.dtype
        and rebuilt.strides == t.data.strides
        and rebuilt.tobytes() == t.data.tobytes()
    )


def _leaf(shape, seed, grad=True) -> Tensor:
    return Tensor(rand(shape, seed=seed), requires_grad=grad)


class TestRecipes:
    """Under a tape, mul, add, relu, channel_norm and upsample outputs carry a recipe that rebuilds them bitwise."""

    @pytest.mark.parametrize(
        "sa, sb",
        [
            ((2, 3, 4, 5), (2, 3, 4, 5)),
            ((2, 3, 4, 5), (1, 3, 1, 1)),
            ((1, 3, 1, 1), (2, 3, 4, 5)),
            ((2, 1, 1, 1), (2, 3, 4, 5)),
            ((2, 3, 4, 5), (3, 4, 5)),
            ((1,), (2, 3, 4, 5)),
        ],
        ids=["same", "broadcast-b", "broadcast-a", "gate-a", "fewer-axes-b", "scalar-a"],
    )
    def test_mul(self, sa, sb):
        a, b = _leaf(sa, 101), _leaf(sb, 102)
        with Tape():
            y = mul(a, b)
            z = mul(y, _leaf(sb, 103, grad=False))  # y is read through its recipe
        assert _rebuilt_bitwise(y) and _rebuilt_bitwise(z)

    def test_add_of_two_recipes(self):
        # the revfp blend: w * current + (1 - w) * other
        w = _leaf((2, 1, 1, 1), 104)
        current, other = _leaf((2, 4, 6, 6), 105), _leaf((2, 4, 6, 6), 106)
        with Tape():
            x = add(mul(w, current), mul(sub(Tensor(1.0), w), other))
        assert _rebuilt_bitwise(x)

    def test_relu_keeps_the_zero_tie_rule(self):
        # products of signed zeros give -0.0 and 0.0; relu turns both into
        # 0.0, and the rebuild must too, sign bit included
        a = Tensor(np.array([-1.0, 1.0, -0.0, 0.0, 2.0, -3.0, -2.0, 0.5]), requires_grad=True)
        b = Tensor(np.array([0.0, -0.0, 1.0, -1.0, -0.0, 0.0, 1.5, 2.0]))
        with Tape():
            p = mul(a, b)
            y = relu(p)
        assert np.signbit(p.data).any()  # the tie is really there
        assert _rebuilt_bitwise(y)
        assert not np.signbit(y._recipe.build()).any()

    def test_channel_norm_and_the_chains_on_it(self):
        x = Tensor(rand((2, 5, 6, 7), seed=107) * 3.0 + 1.0, requires_grad=True)
        gamma, beta = _leaf((5,), 108), _leaf((5,), 109)
        w = _leaf((2, 1, 1, 1), 110)
        with Tape():
            y = channel_norm(x, gamma, beta)
            r = relu(y)
            blend = add(mul(w, y), mul(sub(Tensor(1.0), w), r))
        for t in (y, r, blend):
            assert _rebuilt_bitwise(t)

    def test_no_recipe_without_a_tape(self):
        x = _leaf((2, 3, 4, 4), 111)
        ones, zeros = Tensor(np.ones(3), requires_grad=True), Tensor(np.zeros(3), requires_grad=True)
        outs = [mul(x, x), relu(x), channel_norm(x, ones, zeros)]
        outs.append(add(outs[0], outs[2]))
        outs.append(relu(outs[0]))
        assert all(t._recipe is None for t in outs)

    def test_no_recipe_when_no_input_requires_grad(self):
        x = _leaf((2, 3, 4, 4), 112, grad=False)
        ones, zeros = Tensor(np.ones(3)), Tensor(np.zeros(3))
        with Tape() as tape:
            outs = [mul(x, x), relu(x), channel_norm(x, ones, zeros)]
            outs.append(add(outs[0], outs[2]))
        assert len(tape) == 0
        assert all(t._recipe is None for t in outs)

    def test_add_and_relu_need_recipes_on_their_inputs(self):
        # their rebuild would otherwise keep data no vjp keeps
        x, u = _leaf((2, 3), 113), _leaf((2, 3), 114)
        with Tape():
            m = mul(x, u)
            outs = [add(x, u), add(m, u), add(u, m), relu(x), relu(add(x, u))]
        assert all(t._recipe is None for t in outs)
        assert m._recipe is not None

    def test_backward_drops_every_recipe(self):
        x, u = _leaf((2, 3), 115), _leaf((2, 3), 116)
        with Tape() as tape:
            m = mul(x, u)
            loss = tsum(m)
            after = relu(m)  # recorded after the loss
        assert m._recipe is not None and after._recipe is not None
        backward(tape, loss)
        assert m._recipe is None and after._recipe is None

    @pytest.mark.parametrize(
        "consumer, weight_shape",
        [
            ("conv", (5, 4, 3, 3)),  # the im2col kernel
            ("conv", (2, 4, 3, 3)),  # the channel-first kernel
            ("conv", (4, 4, 1, 1)),  # pointwise
            ("maxpool", None),
            ("mul", (1, 4, 1, 1)),
        ],
        ids=["conv-im2col", "conv-channel-first", "conv-pointwise", "maxpool", "mul"],
    )
    def test_vjps_read_a_rebuilt_input_bitwise_and_do_not_keep_it(self, consumer, weight_shape):
        # every leaf grad equals the one through a reshape, whose output
        # has no recipe and so is kept; through the recipe the tape lets
        # the norm's output go
        def run(rebuilt: bool):
            leaves = [
                Tensor(rand((2, 4, 6, 6), seed=117), requires_grad=True),
                Tensor(rand((4,), seed=118), requires_grad=True),
                Tensor(rand((4,), seed=119), requires_grad=True),
            ]
            if weight_shape is not None:
                leaves.append(Tensor(rand(weight_shape, seed=120), requires_grad=True))
            with Tape() as tape:
                y = channel_norm(*leaves[:3])
                if not rebuilt:
                    y = reshape(y, y.shape)  # a view of the output, with no recipe
                held = weakref.ref(y.data.base if y.data.base is not None else y.data)
                if consumer == "conv":
                    out = conv2d(y, leaves[3], Tensor(np.zeros(weight_shape[0])),
                                 padding=weight_shape[2] // 2)
                elif consumer == "maxpool":
                    out = maxpool2d(y)
                else:
                    out = mul(y, leaves[3])
                loss = tsum(mul(out, Tensor(rand(out.shape, seed=121))))
            del y
            assert (held() is None) == rebuilt
            backward(tape, loss)
            return [t.grad for t in leaves]

        for got, want in zip(run(True), run(False)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(2, 3, 4, 5), (1, 2, 3, 1, 1), (2, 1, 3)], ids=["4d", "5d", "3d"])
    def test_upsample(self, shape):
        x = _leaf(shape, 130)
        with Tape():
            y = bilinear_upsample_x2(x)  # from the kept array
            z = bilinear_upsample_x2(mul(y, y))  # through a recipe
            u = bilinear_upsample_x2(z)  # a chain of upsamples, as the csn gather's
            v = bilinear_upsample_x2(narrow(x, x.ndim - 2, 0, 1))  # from a strided view
        for t in (y, z, u, v):
            assert _rebuilt_bitwise(t)

    @pytest.mark.parametrize("read", [False, True], ids=["unread", "read"])
    def test_upsample_keeps_its_input_only_once_a_vjp_reads_it(self, read):
        # the output tensor alone holds the recipe until a kept vjp reads it
        x = _leaf((1, 2, 4, 4), 131)
        p = _leaf((1, 4, 8, 8), 132, grad=read)
        with Tape() as tape:
            c = concat([x, x], 1)  # no vjp reads c
            held = weakref.ref(c.data)
            u = bilinear_upsample_x2(c)
            loss = tsum(mul(u, p))  # if p requires grad, its vjp reads u
        want = u.data.copy()
        del c, u
        assert (held() is not None) == read
        backward(tape, loss)
        assert held() is None
        if read:  # d loss / d p is u, rebuilt from c
            assert p.grad.tobytes() == want.tobytes()

    def test_a_recipe_runs_once_and_its_rebuild_dies_with_the_sweep(self, monkeypatch):
        # y is read by two vjps and by two recipes (relu's and the add's
        # mul); each recipe runs at most once, and no rebuild outlives the
        # sweep, including one read by a node that reaches no loss
        runs, built = [], []
        real = tensor._with_recipe

        def counted(out, build):
            k = len(runs)
            runs.append(0)

            def run():
                runs[k] += 1
                arr = build()
                built.append(weakref.ref(arr))
                return arr

            return real(out, run)

        monkeypatch.setattr(tensor, "_with_recipe", counted)
        x, gamma, beta = _leaf((2, 3, 4, 4), 133), _leaf((3,), 134), _leaf((3,), 135)
        w, v = _leaf((2, 1, 1, 1), 136), _leaf((2, 3, 4, 4), 137)
        with Tape() as tape:
            y = channel_norm(x, gamma, beta)
            side = mul(y, v)  # its node reaches no loss
            blend = add(mul(w, y), mul(sub(Tensor(1.0), w), relu(y)))
            loss = tsum(mul(blend, v))
        del side
        backward(tape, loss)
        assert runs and max(runs) == 1
        assert built and all(ref() is None for ref in built)

    @pytest.mark.parametrize("graph", ["blend", "relu", "relu-shared", "add-shared"])
    def test_add_and_relu_rebuilds_with_shared_readers(self, graph):
        # an add or relu rebuild reads a rebuild that other reads may share;
        # were it written, those readers would see the sum or the relu. Leaf
        # grads match the graph that keeps every intermediate (a reshape
        # view has no recipe)
        def run(rebuilt: bool):
            def keep(t):
                return t if rebuilt else reshape(t, t.shape)

            x, gamma, beta = _leaf((2, 3, 4, 4), 140), _leaf((3,), 141), _leaf((3,), 142)
            w, q = _leaf((2, 1, 1, 1), 143), _leaf((2, 3, 4, 4), 144)
            with Tape() as tape:
                y = keep(channel_norm(x, gamma, beta))
                if graph == "blend":  # the add's recipe reads both products' rebuilds
                    z = add(keep(mul(w, y)), keep(mul(sub(Tensor(1.0), w), y)))
                elif graph == "relu":  # the relu's recipe is y's one reader
                    z = relu(y)
                elif graph == "relu-shared":  # relu's and the mul's recipes read y
                    z = mul(y, keep(relu(y)))
                else:  # the add's recipe, q's vjp and q * m's recipe read m
                    m = keep(mul(w, y))
                    z = add(m, keep(mul(q, m)))
                loss = tsum(mul(keep(z), q))  # q's vjp reads z
            backward(tape, loss)
            return [t.grad for t in (x, gamma, beta, w, q)]

        for got, want in zip(run(True), run(False)):
            assert (got is None) == (want is None)
            assert got is None or got.tobytes() == want.tobytes()
