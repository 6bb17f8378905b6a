"""Blocked im2col: the same bits as one buffer, from a buffer held to one block.

The forward builds the im2col of a block of output rows at a time and the
weight vjp that of a block of input channels at a time. Each case compares
a blocked conv with the same conv run as one block (the block constant
monkeypatched to cover the whole map) and requires equal bits, except for
blocks the block rule never makes, which need only be close.
"""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from rcnet import tensor
from rcnet.rng import SplitMix64
from rcnet.tensor import Tape, Tensor, backward, conv2d, maxpool2d, mul, tsum

ONE_BLOCK = 1 << 40  # a block constant no map reaches: every conv is one block


def rand(shape, seed):
    return SplitMix64(seed).standard_normal(shape)


def conv_and_grads(x_shape, w_shape, stride, padding, seed=0):
    """Output and the x, weight and bias grads of one conv, for a fixed output grad."""
    x = Tensor(rand(x_shape, seed), requires_grad=True)
    w = Tensor(rand(w_shape, seed + 1), requires_grad=True)
    b = Tensor(rand((w_shape[0],), seed + 2), requires_grad=True)
    with Tape() as tape:
        out = conv2d(x, w, b, stride, padding)
        loss = tsum(mul(out, Tensor(rand(out.shape, seed + 3))))
    backward(tape, loss)
    return out.data, x.grad, w.grad, b.grad


def blocks_of(x_shape, w_shape, stride, padding):
    """The output rows and the (rows, channels) blocks a conv of these shapes runs with."""
    _, cin, h, w = x_shape
    cout, _, kh, kw = w_shape
    hp = (h + 2 * padding - kh) // stride + 1
    wp = (w + 2 * padding - kw) // stride + 1
    return hp, tensor._conv_blocks(cout, cin, kh * kw, hp, wp)


def blocked_and_one_block(monkeypatch, x_shape, w_shape, stride, padding):
    hp, (rows, chans) = blocks_of(x_shape, w_shape, stride, padding)
    assert rows < hp, "the conv must run in blocks"
    blocked = conv_and_grads(x_shape, w_shape, stride, padding)
    monkeypatch.setattr(tensor, "_BLOCK_PIXELS", ONE_BLOCK)
    assert blocks_of(x_shape, w_shape, stride, padding)[1] == (hp, x_shape[1])
    return blocked, conv_and_grads(x_shape, w_shape, stride, padding)


def assert_same_bits(got, want):
    for name, a, b in zip(("out", "gx", "gw", "gb"), got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), f"{name} differs"


class TestBlockRule:
    @pytest.mark.parametrize(
        "cout,cin,taps,hp,wp,want",
        [
            (64, 64, 9, 64, 64, (16, 16)),  # desk-width d->d conv: 16 rows, 16 channels
            (256, 256, 9, 64, 64, (16, 64)),  # paper-width P3
            (64, 80, 9, 160, 32, (32, 16)),
            (64, 64, 9, 160, 32, (32, 16)),  # 8 channels would fit, 16 are the least aligned
            (64, 32, 9, 32, 32, (32, 32)),  # a map one block covers is one block
            (64, 48, 9, 32, 32, (32, 48)),  # ... and so is its weight vjp
            (256, 3, 9, 64, 64, (16, 3)),  # fewer channels than the least aligned block
            (64, 48, 9, 64, 64, (16, 16)),  # 16-channel blocks divide 48
            (64, 40, 9, 64, 64, (16, 40)),  # no aligned block divides 40: one block
            (64, 64, 1, 64, 64, (16, 16)),  # 1x1: 16 channels are 16 weight columns
            (64, 64, 9, 97, 41, (32, 16)),  # 32 odd-width rows: 1312 pixels
            (64, 16, 9, 100, 167, (16, 16)),  # 8 rows would hold 1024 pixels, 16 are aligned
            (64, 16, 9, 100, 1500, (4, 16)),  # a row wider than a block: 4 make 16k pixels
            (16, 3, 9, 64, 64, (64, 3)),  # too few weights: one block
            (28, 16, 9, 64, 64, (64, 16)),
            (29, 16, 9, 64, 64, (16, 16)),
        ],
    )
    def test_blocks(self, cout, cin, taps, hp, wp, want):
        assert tensor._conv_blocks(cout, cin, taps, hp, wp) == want

    @pytest.mark.parametrize("cin,hp,wp", [(64, 64, 64), (256, 64, 64), (80, 160, 32), (256, 97, 33)])
    def test_channel_block_is_no_bigger_than_a_row_block(self, cin, hp, wp):
        rows, chans = tensor._conv_blocks(64, cin, 9, hp, wp)
        assert rows & (rows - 1) == 0 and chans & (chans - 1) == 0
        assert rows * wp >= tensor._BLOCK_PIXELS and rows * wp % tensor._GEMM_TILE == 0
        assert chans * 9 % tensor._GEMM_TILE == 0
        assert chans * hp * wp <= cin * rows * wp < 2 * chans * hp * wp

    @pytest.mark.parametrize("n,step", [(1, 1), (5, 1), (64, 16), (97, 32), (21, 4), (3, 8)])
    def test_blocks_cover_once_and_the_last_takes_the_remainder(self, n, step):
        spans = list(tensor._blocks(n, step))
        assert [i for a, b in spans for i in range(a, b)] == list(range(n))
        assert all(b - a == step for a, b in spans[:-1])
        assert min(n, step) <= spans[-1][1] - spans[-1][0] < max(2 * step, n + 1)

    @pytest.mark.parametrize("stride", [1, 2, 3])
    @pytest.mark.parametrize("padding", [0, 1, 2, 4])
    def test_tap_span_matches_brute_force(self, stride, padding):
        for n_in in (1, 2, 5, 8):
            for i in range(5):
                n_total = (n_in + 2 * padding - i - 1) // stride + 1
                for start in range(max(n_total, 0) + 1):
                    for n_out in range(max(n_total - start, 0) + 1):
                        oy, iy = tensor._tap_span(i, padding, n_in, n_out, stride, start)
                        reads = [(o, (start + o) * stride + i - padding) for o in range(n_out)]
                        inside = [(o, r) for o, r in reads if 0 <= r < n_in]
                        got = list(zip(range(n_out)[oy], range(n_in)[iy]))
                        assert got == inside, (i, padding, n_in, n_out, stride, start)
                        assert len(range(n_out)[oy]) == len(range(n_in)[iy])


class TestBlockedEqualsOneBlock:
    @pytest.mark.parametrize(
        "x_shape,w_shape,stride,padding",
        [
            ((1, 64, 64, 64), (64, 64, 3, 3), 1, 1),  # the desk-width d->d conv
            ((2, 32, 64, 64), (64, 32, 3, 3), 1, 1),  # batch 2
            ((1, 32, 97, 41), (32, 32, 3, 3), 1, 1),  # 3 blocks of 32 odd-width rows, the last 33
            ((1, 21, 50, 80), (32, 21, 3, 3), 1, 1),  # 21 channels: one weight-vjp block
            ((1, 16, 100, 167), (64, 16, 3, 3), 1, 1),  # wide rows
            ((1, 16, 129, 129), (32, 16, 3, 3), 2, 0),  # a stride-2 stem conv
            ((2, 24, 99, 83), (32, 24, 3, 3), 2, 1),
            ((1, 64, 127, 127), (64, 64, 1, 1), 2, 0),  # a strided 1x1 conv
            ((1, 40, 60, 70), (48, 40, 5, 5), 1, 2),  # a 5x5 kernel
        ],
    )
    def test_default_blocks(self, monkeypatch, x_shape, w_shape, stride, padding):
        assert_same_bits(*blocked_and_one_block(monkeypatch, x_shape, w_shape, stride, padding))

    @pytest.mark.parametrize(
        "x_shape,w_shape,stride,padding",
        [
            ((1, 64, 64, 64), (64, 64, 3, 3), 1, 1),
            ((2, 48, 41, 48), (64, 48, 3, 3), 1, 1),  # batch 2, odd rows
            ((1, 64, 81, 63), (64, 64, 3, 3), 2, 1),  # stride 2, 41x32 output
        ],
    )
    def test_forced_one_row_blocks(self, monkeypatch, x_shape, w_shape, stride, padding):
        # one output row a block (each a multiple of 16 pixels) and the least
        # aligned channel block, 16 channels
        monkeypatch.setattr(tensor, "_BLOCK_PIXELS", 1)
        assert blocks_of(x_shape, w_shape, stride, padding)[1] == (1, 16)
        assert_same_bits(*blocked_and_one_block(monkeypatch, x_shape, w_shape, stride, padding))

    @pytest.mark.parametrize(
        "x_shape,w_shape,stride,padding",
        [
            ((2, 5, 9, 7), (6, 5, 3, 3), 1, 1),  # batch 2, odd unequal extents
            ((2, 3, 11, 9), (4, 3, 3, 3), 2, 1),
            ((1, 4, 11, 9), (5, 4, 3, 3), 2, 0),
            ((1, 6, 10, 12), (7, 6, 5, 5), 1, 2),
            ((1, 3, 3, 4), (2, 3, 5, 5), 1, 2),  # taps that read only padding
            ((2, 4, 9, 9), (5, 4, 1, 1), 2, 0),
            ((1, 64, 64, 67), (64, 64, 3, 3), 1, 1),
        ],
    )
    def test_forced_one_row_one_channel_blocks(self, monkeypatch, x_shape, w_shape, stride, padding):
        # One-row, one-channel blocks with the tile and the weight floor
        # switched off reach every offset of the fill. GEMMs this small or
        # this misaligned may be formed by other BLAS kernels than the whole
        # GEMM (one-row blocks of this 67-wide map moved the last bits of
        # thousands of outputs), so only closeness holds here; the block
        # rule never makes such blocks.
        monkeypatch.setattr(tensor, "_BLOCK_PIXELS", 1)
        monkeypatch.setattr(tensor, "_GEMM_TILE", 1)
        monkeypatch.setattr(tensor, "_BLOCK_MIN_WEIGHTS", 0)
        assert blocks_of(x_shape, w_shape, stride, padding)[1] == (1, 1)
        got, want = blocked_and_one_block(monkeypatch, x_shape, w_shape, stride, padding)
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))


class TestMemoryBound:
    def test_desk_width_forward_peak(self):
        # one block is [1, 576, 1024] (4.5 MiB) next to the 2 MiB output; the
        # whole-map im2col was 18 MiB and its forward peaked at 20.0 MiB
        x = Tensor(rand((1, 64, 64, 64), 5))
        w = Tensor(rand((64, 64, 3, 3), 6))
        b = Tensor(np.zeros(64))
        tracemalloc.start()
        try:
            out = conv2d(x, w, b, padding=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (1, 64, 64, 64)
        assert peak < 10 * 2**20, f"forward peaked at {peak / 2**20:.1f} MiB"

    def test_desk_width_weight_vjp_peak(self):
        # a 16-channel block is 4.5 MiB, as one forward block, next to the
        # output grads the sweep holds; one 18 MiB block peaked at 20.6 MiB
        x = Tensor(rand((1, 64, 64, 64), 7))
        w = Tensor(rand((64, 64, 3, 3), 8), requires_grad=True)
        b = Tensor(np.zeros(64))
        g = Tensor(rand((1, 64, 64, 64), 9))
        with Tape() as tape:
            loss = tsum(mul(conv2d(x, w, b, padding=1), g))
        tracemalloc.start()
        try:
            backward(tape, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w.grad is not None
        assert peak < 14 * 2**20, f"weight vjp peaked at {peak / 2**20:.1f} MiB"

    def test_paper_width_digest_does_not_depend_on_blas_threads(self):
        # blocked GEMMs give the bits of one GEMM only because this BLAS
        # forms each output element the same way however the work is split
        digests = set()
        for threads in ("1", "2"):
            child = subprocess.run(
                [sys.executable, "-c", "from rcnet.cli import entry; entry()",
                 "forward", "rcnet", "--paper-width", "--seed", "7"],
                capture_output=True, text=True, timeout=300, check=True,
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path),
                     "OPENBLAS_NUM_THREADS": threads},
            )
            digests.add(json.loads(child.stdout)["digests"]["output"])
        assert len(digests) == 1, digests


_HEAP_OR_MMAP = """
import ctypes, sys
import numpy as np
import rcnet.tensor

class Mallinfo2(ctypes.Structure):
    _fields_ = [(n, ctypes.c_size_t) for n in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd",
        "usmblks", "fsmblks", "uordblks", "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = Mallinfo2
before = mallinfo2().hblkhd
a = np.ones(10 << 17)  # 10 MiB
print(mallinfo2().hblkhd - before)
"""


def test_malloc_keeps_block_sized_buffers_on_the_heap():
    # a fresh process maps anything above 128 KiB until glibc frees a large
    # mapped chunk; with the thresholds pinned a 10 MiB array comes from the
    # heap, so freeing it does not hand pages back to be faulted in again
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        glibc = None
    if not glibc or tuple(map(int, glibc.split()[1].split(".")[:2])) < (2, 33):
        pytest.skip("needs glibc 2.33 or later (mallinfo2)")
    child = subprocess.run(
        [sys.executable, "-c", _HEAP_OR_MMAP], capture_output=True, text=True, timeout=60,
        check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert int(child.stdout) < 2**20, f"{int(child.stdout)} bytes mapped for a 10 MiB array"


class TestWindowLargerThanInput:
    @pytest.mark.parametrize(
        "x_shape,w_shape,stride,padding",
        [
            ((1, 1, 2, 2), (2, 1, 5, 5), 1, 1),  # returned a (1, 2, 0, 0) tensor
            ((1, 1, 1, 1), (1, 1, 3, 3), 1, 0),  # leaked numpy's negative dimensions
            ((1, 1, 4, 1), (1, 1, 3, 3), 2, 0),  # only one axis too small
            ((1, 1, 1, 1), (1, 1, 5, 5), 2, 1),
        ],
    )
    def test_conv2d(self, x_shape, w_shape, stride, padding):
        x, w, b = Tensor(np.zeros(x_shape)), Tensor(np.zeros(w_shape)), Tensor(np.zeros(w_shape[0]))
        h, wd = x_shape[2:]
        kh, kw = w_shape[2:]
        want = f"input {h}x{wd}, kernel {kh}x{kw}, stride {stride}, padding {padding}"
        with pytest.raises(ValueError, match=want):
            conv2d(x, w, b, stride, padding)

    @pytest.mark.parametrize("shape", [(1, 1, 1, 1), (1, 2, 1, 4)])  # the second: only H too small
    def test_maxpool2d(self, shape):
        h, w = shape[2:]
        with pytest.raises(ValueError, match=f"extent {h}x{w} not divisible into 2x2 windows"):
            maxpool2d(Tensor(np.zeros(shape)))

    def test_window_equal_to_input_gives_one_pixel(self):
        out = maxpool2d(Tensor(np.arange(4.0).reshape(1, 1, 2, 2)))
        assert out.shape == (1, 1, 1, 1) and out.data.item() == 3.0
        out = conv2d(Tensor(np.ones((1, 1, 1, 1))), Tensor(np.ones((1, 1, 3, 3))), Tensor(np.zeros(1)), 1, 1)
        assert out.shape == (1, 1, 1, 1) and out.data.item() == 1.0
