"""Byte-equality oracles for the conv tap rule: pad with zeros, then slice a window.

`_im2col` and the channel-first conv read every kernel tap as a window of
a zero-padded array. Each case here holds them to the per-tap clipped
form they replaced, which copies or adds only the span of each tap that
falls inside the input and zeroes the rest, and requires equal bytes.
The forms differ only where a tap reads padding: a +0.0 copied from the
padded array where the clipped form zeroes a strip, or +0.0 added to a
channel-first sum that starts at +0.0 and so is never -0.0. The inputs
hold -0.0 entries, and paddings run from 0 to the kernel extent, where
some taps read only padding.
"""

import numpy as np
import pytest

from rcnet import tensor
from rcnet.tensor import Tape, Tensor, backward, conv2d, mul, tsum


def signed(shape, seed):
    """Normals with +0.0 and -0.0 sprinkled in."""
    x = np.random.default_rng(seed).standard_normal(shape)
    x.flat[::7] = 0.0
    x.flat[3::11] = -0.0
    return x


def tap_span(i, padding, n_in, n_out, stride=1, start=0):
    """Output and input ranges along one axis where tap i reads inside the input.

    Of the `n_out` outputs from `start` on, output o reads input
    (start + o)*stride + i - padding; outputs that read padding are left out.
    """
    first = start * stride + i - padding
    lo = min(n_out, max(0, -(first // stride)))
    hi = max(lo, min(n_out, (n_in - 1 - first) // stride + 1))
    a = first + lo * stride
    return slice(lo, hi), slice(a, a + (hi - lo - 1) * stride + 1 if hi > lo else a, stride)


def im2col_clipped(x, kh, kw, stride, padding, r0, r1, wp):
    """Each tap's in-bounds span copied from x, the strips that read padding zeroed."""
    n, c, h, w = x.shape
    r = r1 - r0
    cols = np.empty((n, c, kh, kw, r, wp))
    for i in range(kh):
        oy, iy = tap_span(i, padding, h, r, stride, r0)
        for j in range(kw):
            ox, ix = tap_span(j, padding, w, wp, stride)
            tap = cols[:, :, i, j]
            tap[:, :, oy, ox] = x[:, :, iy, ix]
            tap[:, :, : oy.start] = 0.0
            tap[:, :, oy.stop :] = 0.0
            tap[:, :, oy, : ox.start] = 0.0
            tap[:, :, oy, ox.stop :] = 0.0
    return cols.reshape(n, c * kh * kw, r * wp)


def channel_first_clipped(x, w, b, padding, g):
    """The channel-first conv's output and its x and weight grads for output grad g."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    hp, wp = h + 2 * padding - kh + 1, wd + 2 * padding - kw + 1
    wk = w.transpose(0, 2, 3, 1).reshape(cout * kh * kw, cin)
    spans = [
        (i, j, tap_span(i, padding, h, hp), tap_span(j, padding, wd, wp))
        for i in range(kh)
        for j in range(kw)
    ]
    z = np.matmul(wk, x.reshape(n, cin, h * wd)).reshape(n, cout, kh, kw, h, wd)
    out = np.zeros((n, cout, hp, wp))
    for i, j, (oy, iy), (ox, ix) in spans:
        out[:, :, oy, ox] += z[:, :, i, j, iy, ix]
    out += b[None, :, None, None]
    gz = np.zeros((n, cout, kh, kw, h, wd))
    for i, j, (oy, iy), (ox, ix) in spans:
        gz[:, :, i, j, iy, ix] = g[:, :, oy, ox]
    gz = gz.reshape(n, cout * kh * kw, h * wd)
    gx = np.matmul(wk.T, gz).reshape(n, cin, h, wd)
    gw = np.tensordot(gz, x.reshape(n, cin, h * wd), axes=([0, 2], [0, 2]))
    return out, gx, gw.reshape(cout, kh, kw, cin).transpose(0, 3, 1, 2)


def same_bytes(got, want):
    return got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 3, 5])
@pytest.mark.parametrize("stride", [1, 2])
def test_im2col_equals_clipped_taps(k, stride):
    cases = 0
    for padding in sorted({0, 1, k - 1, k}):
        for h, w in [(1, 1), (3, 2), (5, 5), (7, 4), (6, 9)]:
            if h + 2 * padding < k or w + 2 * padding < k:
                continue
            if (h + 2 * padding - k) % stride or (w + 2 * padding - k) % stride:
                continue
            hp = (h + 2 * padding - k) // stride + 1
            wp = (w + 2 * padding - k) // stride + 1
            x = signed((2, 5, h, w), seed=h * 10 + w)
            # a channel slice of a wider array, as the weight vjp passes in
            for view in (x, x[:, 1:4], np.asfortranarray(x)):
                for r0 in range(hp):
                    for r1 in (r0 + 1, hp):
                        got = tensor._im2col(view, k, k, stride, padding, r0, r1, wp)
                        want = im2col_clipped(view, k, k, stride, padding, r0, r1, wp)
                        assert same_bytes(got, want), (padding, h, w, r0, r1)
                        cases += 1
    assert cases


@pytest.mark.parametrize("zero_weight", [False, True], ids=["weight", "zero_weight"])
@pytest.mark.parametrize(
    "x_shape,w_shape",
    [
        ((2, 6, 5, 7), (1, 6, 3, 3)),  # the FGU logit conv's shape, at N = 2
        ((2, 7, 6, 5), (3, 7, 5, 5)),
        ((1, 5, 4, 6), (2, 5, 3, 5)),
    ],
)
def test_channel_first_equals_clipped_taps(x_shape, w_shape, zero_weight):
    kh = w_shape[2]
    for padding in sorted({0, 1, kh - 1, kh}):
        if x_shape[2] + 2 * padding < kh or x_shape[3] + 2 * padding < w_shape[3]:
            continue
        seed = padding * 10 + kh
        xd = signed(x_shape, seed)
        wd = np.full(w_shape, -0.0) if zero_weight else signed(w_shape, seed + 1)
        bd = signed((w_shape[0],), seed + 2)
        bd[-1] = -0.0
        x, w = Tensor(xd, requires_grad=True), Tensor(wd, requires_grad=True)
        with Tape() as tape:
            out = conv2d(x, w, Tensor(bd), padding=padding)
            g = signed(out.shape, seed + 3)
            loss = tsum(mul(out, Tensor(g)))  # the output grad is g, -0.0 entries included
        backward(tape, loss)
        want = channel_first_clipped(xd, wd, bd, padding, g)
        for name, got, ref in zip(("out", "gx", "gw"), (out.data, x.grad, w.grad), want):
            assert same_bytes(got, ref), (name, padding)
