"""Byte-equality oracles for the kernels that run in long flat passes.

The upsample and its adjoint, relu and the channel_norm forward each run
over the whole array in a few long passes and overwrite the elements
where a pass crosses a row edge. Each case here compares one of them
with the per-row form it replaced (channel_norm with the composite of
taped ops it stands for) and requires equal bytes: the same IEEE
operations in the same order give the same bits. The 2x2 max pool, a
fold of np.maximum over its four strided window views, is held to a
per-window loop the same way, and the im2col, one copy of a windowed
view of a zero-padded slab, to a per-element copy.

The relu and max-pool tie rules rest on np.maximum returning its second
operand when its operands compare equal (-0.0 against 0.0 included). CI
runs this file again with numpy's AVX2 and AVX-512 loops switched off
(NPY_DISABLE_CPU_FEATURES); every case here is skipped unless they really
are off.
"""

import os

import numpy as np
import pytest

from rcnet import tensor
from rcnet.tensor import (
    Tape,
    Tensor,
    backward,
    bilinear_upsample_x2,
    channel_norm,
    maxpool2d,
    relu,
    tsum,
)
from test_tensor_ops import channel_norm_composite

#: the dispatch targets the CI step switches off: AVX2 (X86_V3) and AVX-512
SIMD_TARGETS = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")


def spread(shape, seed):
    """Normals scaled by 10**e, e uniform in [-300, 300], with +0.0 and -0.0 sprinkled in."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 301, shape)
    x.flat[::7] = 0.0
    x.flat[3::11] = -0.0
    return x


def same_bytes(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.fixture(autouse=True, scope="module")
def simd_loops_as_asked():
    """Under NPY_DISABLE_CPU_FEATURES, skip unless numpy really runs without the loops it names."""
    asked = [f for f in SIMD_TARGETS if f in os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()]
    if not asked:
        return
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        pytest.skip("this numpy does not report its CPU features")
    unknown = [f for f in asked if f not in __cpu_features__]
    if unknown:
        pytest.skip(f"this numpy does not dispatch to {unknown}")
    still_on = [f for f in asked if __cpu_features__[f]]
    if still_on:
        pytest.skip(f"numpy kept {still_on} on although NPY_DISABLE_CPU_FEATURES names them")


# ---------------------------------------------------------------------------
# upsample


def _along(a, axis, start, stop, step=None):
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, stop, step)
    return a[tuple(idx)]


def up2_per_slice(a, axis):
    """The x2 upsample along one axis as one strided slice per tap, edges added in place."""
    shape = list(a.shape)
    shape[axis] *= 2
    out = np.empty(shape)
    even, odd = _along(out, axis, 0, None, 2), _along(out, axis, 1, None, 2)
    np.multiply(a, 0.75, out=even)
    np.multiply(a, 0.75, out=odd)
    quarter = a * 0.25
    _along(even, axis, 1, None)[...] += _along(quarter, axis, None, -1)
    _along(even, axis, None, 1)[...] += _along(quarter, axis, None, 1)
    _along(odd, axis, None, -1)[...] += _along(quarter, axis, 1, None)
    _along(odd, axis, -1, None)[...] += _along(quarter, axis, -1, None)
    return out


def up2_adjoint_per_slice(g, axis):
    """The transpose of `up2_per_slice`: each tap's share added in place, edges last."""
    even, odd = _along(g, axis, 0, None, 2), _along(g, axis, 1, None, 2)
    gx = 0.75 * (even + odd)
    _along(gx, axis, 1, None)[...] += 0.25 * _along(odd, axis, None, -1)
    _along(gx, axis, None, -1)[...] += 0.25 * _along(even, axis, 1, None)
    _along(gx, axis, None, 1)[...] += 0.25 * _along(even, axis, None, 1)
    _along(gx, axis, -1, None)[...] += 0.25 * _along(odd, axis, -1, None)
    return gx


@pytest.mark.parametrize("lead", [(2, 3), (1, 2, 3)], ids=["4d", "5d"])
@pytest.mark.parametrize("h", [1, 2, 3, 5])
@pytest.mark.parametrize("w", [1, 2, 3, 5])
@pytest.mark.parametrize("axis", [-2, -1])
class TestUpsample:
    def test_forward(self, lead, h, w, axis):
        x = spread(lead + (h, w), seed=h * 10 + w)
        assert same_bytes(tensor._up2(x, axis), up2_per_slice(x, axis))

    def test_adjoint(self, lead, h, w, axis):
        shape = list(lead + (h, w))
        shape[axis] *= 2
        g = spread(tuple(shape), seed=100 + h * 10 + w)
        assert same_bytes(tensor._up2_adjoint(g, axis), up2_adjoint_per_slice(g, axis))

    def test_adjoint_of_a_strided_grad(self, lead, h, w, axis):
        # an output grad that is a view, as a concat or narrow vjp hands over
        shape = [2 * lead[0]] + list(lead[1:] + (h, w))
        shape[axis] *= 2
        g = spread(tuple(shape), seed=200 + h * 10 + w)[::2]
        assert same_bytes(tensor._up2_adjoint(g, axis), up2_adjoint_per_slice(g, axis))


@pytest.mark.parametrize("axis", [-2, -1])
def test_upsample_in_blocks(axis):
    # two blocks of whole lines, the second longer: 76860 > 2 * tensor._PASS_BLOCK
    shape = [4, 7, 45, 61]
    x = spread(tuple(shape), seed=5)
    assert same_bytes(tensor._up2(x, axis), up2_per_slice(x, axis))
    shape[axis] *= 2
    g = spread(tuple(shape), seed=6)
    assert same_bytes(tensor._up2_adjoint(g, axis), up2_adjoint_per_slice(g, axis))


@pytest.mark.parametrize("shape", [(1, 1, 0, 3), (1, 1, 3, 0), (0, 1, 2, 2)])
def test_upsample_of_an_empty_map(shape):
    x = Tensor(np.zeros(shape), requires_grad=True)
    with Tape() as tape:
        out = bilinear_upsample_x2(x)
        loss = tsum(out)
    backward(tape, loss)
    assert out.shape == shape[:2] + (2 * shape[2], 2 * shape[3]) and x.grad.shape == shape


# ---------------------------------------------------------------------------
# max pool


def maxpool_first_loops(x, k, stride):
    """Per-window maximum; a tie (-0.0 against 0.0 included) keeps the first in row-major order."""
    n, c, h, w = x.shape
    hp, wp = (h - k) // stride + 1, (w - k) // stride + 1
    out = np.empty((n, c, hp, wp))
    for idx in np.ndindex(n, c, hp, wp):
        b, ch, oy, ox = idx
        win = x[b, ch, oy * stride : oy * stride + k, ox * stride : ox * stride + k].ravel()
        best = win[0]
        for v in win[1:]:
            if v > best:
                best = v
        out[idx] = best
    return out


def signed_zero_ties():
    """[1, 1, 18, 18]: every window of {-1, -0.0, 0.0} taps, 81 windows, 2x2 each."""
    values = (-1.0, -0.0, 0.0)
    windows = [np.array(t).reshape(2, 2) for t in np.ndindex(3, 3, 3, 3)]
    x = np.empty((1, 1, 18, 18))
    for n, taps in enumerate(windows):
        r, c = divmod(n, 9)
        x[0, 0, 2 * r : 2 * r + 2, 2 * c : 2 * c + 2] = np.choose(taps, values)
    return x


class TestMaxPool:
    def test_signed_zero_ties_at_every_tap(self):
        x = signed_zero_ties()
        assert same_bytes(maxpool2d(Tensor(x)).data, maxpool_first_loops(x, 2, 2))

    @pytest.mark.parametrize(
        "shape",
        [(1, 1, 2, 2), (2, 3, 4, 6), (1, 8, 64, 64), (1, 16, 64, 64), (2, 3, 64, 86),
         (1, 2, 130, 258)],
        ids=["one-window", "small", "1x8x64x64", "1x16x64x64", "2x3x64x86", "wide"],
    )
    def test_blocks(self, shape):
        # integers in {-1, 0, 1} with both zero signs: most windows tie
        rng = np.random.default_rng(sum(shape))
        x = rng.integers(-1, 2, shape).astype(np.float64)
        x[rng.random(shape) < 0.5] *= -1.0
        assert same_bytes(maxpool2d(Tensor(x)).data, maxpool_first_loops(x, 2, 2))

    @pytest.mark.parametrize("shape", [(0, 1, 2, 2), (1, 0, 4, 4)])
    def test_empty_input(self, shape):
        out = maxpool2d(Tensor(np.zeros(shape)))
        assert out.shape == shape[:2] + (shape[2] // 2, shape[3] // 2)

    def test_strided_input(self):
        # a Fortran-ordered array and a column slice of one, whose window
        # views stride as the csn scatter slices do, not as a C-ordered map's
        x = np.asfortranarray(signed_zero_ties().repeat(2, axis=1))
        for view in (x, x[..., 2:]):
            assert same_bytes(maxpool2d(Tensor(view)).data, maxpool_first_loops(view, 2, 2))


# ---------------------------------------------------------------------------
# relu


def test_relu_equals_where():
    # every size from 1 to 1000, so each SIMD loop's tail is reached
    specials = np.array([5e-324, -5e-324, 2.2e-308, -2.2e-308, -0.0, 0.0])
    for n in range(1, 1001):
        x = spread((n,), seed=n)
        x[::3] = np.resize(specials, len(x[::3]))
        assert same_bytes(relu(Tensor(x)).data, np.where(x > 0, x, 0.0)), n


# ---------------------------------------------------------------------------
# channel_norm


@pytest.mark.parametrize("shape", [(1, 5, 6, 7), (2, 5, 6, 7), (1, 64, 16, 16), (2, 3, 1, 2)])
def test_channel_norm_equals_composite(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    x = Tensor(rng.standard_normal(shape) * 3.0 + 1.0)
    gamma = Tensor(rng.standard_normal(shape[1]) * 2.0)
    beta = Tensor(rng.standard_normal(shape[1]))
    want = channel_norm_composite(x, gamma, beta).data
    assert same_bytes(channel_norm(x, gamma, beta).data, want)


# ---------------------------------------------------------------------------
# im2col


def im2col_per_element(x, kh, kw, stride, padding, r0, r1, wp):
    """[N, C*kh*kw, (r1-r0)*wp], one element at a time; a read outside x is 0.0."""
    n, c, h, w = x.shape
    cols = np.zeros((n, c, kh, kw, r1 - r0, wp))
    for b, ch, i, j, oy, ox in np.ndindex(cols.shape):
        y, xx = (r0 + oy) * stride + i - padding, ox * stride + j - padding
        if 0 <= y < h and 0 <= xx < w:
            cols[b, ch, i, j, oy, ox] = x[b, ch, y, xx]
    return cols.reshape(n, c * kh * kw, (r1 - r0) * wp)


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("padding", [0, 1, 2])
@pytest.mark.parametrize("stride", [1, 2])
def test_im2col_equals_per_element(k, padding, stride):
    cases = 0
    for h, w in [(1, 1), (2, 3), (5, 5), (7, 4), (6, 9)]:
        if h + 2 * padding < k or w + 2 * padding < k:
            continue
        if (h + 2 * padding - k) % stride or (w + 2 * padding - k) % stride:
            continue
        hp = (h + 2 * padding - k) // stride + 1
        wp = (w + 2 * padding - k) // stride + 1
        # N = 2; a channel slice of a wider array, as the weight vjp passes
        # in; and planes that are not contiguous
        x = spread((2, 5, h, w), seed=h * 10 + w)
        for view in (x, x[:, 1:4], np.asfortranarray(x)):
            for r0 in range(hp):
                for r1 in (r0 + 1, hp):
                    got = tensor._im2col(view, k, k, stride, padding, r0, r1, wp)
                    want = im2col_per_element(view, k, k, stride, padding, r0, r1, wp)
                    assert same_bytes(got, want), (h, w, r0, r1)
                    cases += 1
    assert cases
