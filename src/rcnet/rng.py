"""Self-contained deterministic pseudo-randomness.

Fixtures and parameter initialization must be bit-reproducible from a seed
across runs, independent of any array library's default generator. The
generator is fully specified here:

* integer stream: SplitMix64, where word i is mix64(seed + (i+1) * 0x9E3779B97F4A7C15)
  and mix64(z) is the xorshift-multiply written in `_mix64`, all mod 2^64,
* uniforms: top 53 bits of each word mapped into (0, 1],
* normals: Box-Muller on consecutive uniform pairs, cos first then sin.

Distinct streams are derived by folding a label into the master seed with
FNV-1a, so adding a parameter never shifts another parameter's draws.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def fold_seed(seed: int, label: str) -> int:
    """Derive an independent stream seed from a master seed and a label."""
    h = 0xCBF29CE484222325
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return (seed ^ h) & _MASK


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """Counter-based 64-bit generator; draws are independent of batching."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & _MASK)
        self._drawn = 0

    def words(self, count: int) -> np.ndarray:
        start = self._drawn + 1
        self._drawn += count
        idx = np.arange(start, start + count, dtype=np.uint64)
        with np.errstate(over="ignore"):
            return _mix64(self._seed + idx * _GOLDEN)

    def uniforms(self, count: int) -> np.ndarray:
        """`count` doubles in (0, 1], each from the top 53 bits of one word."""
        return ((self.words(count) >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0**-53)

    def standard_normal(self, shape: tuple[int, ...] | tuple[()] = ()) -> np.ndarray:
        """Standard normals via Box-Muller; output is row-major over `shape`."""
        n = int(np.prod(shape)) if shape else 1
        pairs = (n + 1) // 2
        u1 = self.uniforms(pairs)
        u2 = self.uniforms(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.empty(2 * pairs, dtype=np.float64)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return z[:n].reshape(shape)
