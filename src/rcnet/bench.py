"""Shift-vs-dense timing and the dense circulant reference path.

The dense path realizes the same cross-scale routing as the channel shift
but as an honest kernel-5 convolution along the scale axis (circulant
padding), so comparing the two demonstrates the shift's zero-cost claim:
identical outputs, none of the arithmetic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median

import numpy as np

from .config import SHIFT_OFFSETS, NeckConfig
from .csn import scale_shift
from .fixtures import synth_stack
from .tensor import Tensor, add, roll, scale

#: scale offsets read by kernel taps 1..5 of the five-tap circulant conv
TAP_OFFSETS = (-2, -1, 0, 1, 2)

#: fewest timed repetitions a median is taken over
MIN_REPS = 10


def shift_weighted_sum(S: Tensor, weights) -> Tensor:
    """Five-tap weighted sum over circulant scale shifts of the full stack.

    out[s] = sum_j weights[j] * S[(s + j - 2) mod n]; the data movement is
    pure rolls, the only arithmetic is the scalar reweighting.
    """
    total = None
    for w_j, off in zip(weights, TAP_OFFSETS):
        term = scale(roll(S, -off, 2), float(w_j))
        total = term if total is None else add(total, term)
    return total


def dense_circulant_conv(stack: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Kernel-5 conv along the scale axis with circulant padding.

    `stack` is [N, Cin, n, h, w]; `kernel` is [Cout, Cin, 5]; tap j reads
    scale (s + j - 2) mod n. Every output element costs Cin*5 MACs.
    """
    out = None
    for j, off in enumerate(TAP_OFFSETS):
        rolled = np.roll(stack, -off, axis=2)
        term = np.einsum("oc,bcshw->boshw", kernel[:, :, j], rolled, optimize=True)
        out = term if out is None else out + term
    return out


def scalar_kernel(d: int, weights) -> np.ndarray:
    """Diagonal kernel reproducing the five-tap scalar-weight sum densely."""
    k = np.zeros((d, d, 5), dtype=np.float64)
    for j, w_j in enumerate(weights):
        k[:, :, j][np.diag_indices(d)] = w_j
    return k


def routing_kernel(d: int, block: int) -> np.ndarray:
    """One-hot kernel that makes the dense conv reproduce `scale_shift(S, block)`.

    Output rows 0..d-1 are the identity at tap 0; row d + b*block + c reads
    source channel b*block + c at the tap of offset SHIFT_OFFSETS[b].
    """
    k = np.zeros((d + 4 * block, d, 5), dtype=np.float64)
    k[:d, :, TAP_OFFSETS.index(0)] = np.eye(d)
    for b, off in enumerate(SHIFT_OFFSETS):
        for c in range(block):
            k[d + b * block + c, b * block + c, TAP_OFFSETS.index(off)] = 1.0
    return k


@dataclass
class BenchResult:
    shift_ns: int  # median wall time of the shift path
    dense_ns: int  # median wall time of the dense conv path
    max_abs_diff: float  # outputs of the two paths, elementwise
    reps: int

    @property
    def ratio(self) -> float:
        """dense / shift; above 1 means the shift is strictly cheaper."""
        return self.dense_ns / max(self.shift_ns, 1)

    def to_dict(self) -> dict:
        return {
            "shift_ns": self.shift_ns,
            "dense_ns": self.dense_ns,
            "ratio": self.ratio,
            "max_abs_diff": self.max_abs_diff,
            "reps": self.reps,
        }


def _median_ns(fn, reps: int) -> int:
    for _ in range(3):  # untimed warm-up calls
        fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - t0)
    return int(median(times))


def bench_shift(cfg: NeckConfig, reps: int) -> BenchResult:
    """Time `scale_shift` against the dense conv that routes identically."""
    if reps < MIN_REPS:
        raise ValueError(f"bench_shift: need at least {MIN_REPS} repetitions, got {reps}")
    block = cfg.shift_block
    S = synth_stack(cfg, "bench/stack")
    kernel = routing_kernel(cfg.d, block)

    shifted = scale_shift(S, block)
    dense = dense_circulant_conv(S.data, kernel)
    diff = float(np.max(np.abs(shifted.data - dense)))

    shift_ns = _median_ns(lambda: scale_shift(S, block), reps)
    dense_ns = _median_ns(lambda: dense_circulant_conv(S.data, kernel), reps)
    return BenchResult(shift_ns, dense_ns, diff, reps)
