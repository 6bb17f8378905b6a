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

How the stream is computed: a word depends only on the seed and its
counter, so any counter range can be computed on its own. `_fill` computes
one range in blocks of `_BLOCK` words, every step in place in scratch the
caller hands it. A draw of n normals takes 2 * ceil(n/2) consecutive
words: the first half give the radii (u1), the second half the angles (u2),
and pair j is written to output slots 2j (cos) and 2j+1 (sin). A draw of at
least `_THREAD_MIN` items is shared among the CPUs the process may use: the
calling thread and one thread per further CPU claim its blocks in turn.
Each element is computed by the same floating-point operations in the
same order whatever the block or range it falls in, so the bits depend
neither on how draws are batched nor on how a draw is split across threads.

Why a block has this size: each numpy call in a step works on one block
and releases the GIL while it runs, but it must take the GIL back to
start and to return. Threads sharing a draw wait for each other at every
such hand-off, so a call must run long enough without the GIL that the
hand-offs do not dominate. On a 2-vCPU VM, two threads running the
integer mix over 8192-word blocks finished in 2.0x the time one thread
took for both halves; over 32768-word blocks they took 0.76x of it, and a
draw of 1M-4.7M normals ran 1.8-1.9x faster on two CPUs than on one,
against 1.3x with the shorter blocks. A thread's four scratch rows then
take 1 MiB, inside the VM's 2 MiB L2 per core.

That speed-up holds only while the second CPU is idle. After each
threaded OpenBLAS GEMM the BLAS worker spins for about 135 ms of CPU,
and a 262144-item draw started then ran at 36-45 ns a normal, against
25-28 ns cold and 40-44 ns on one thread: no gain, but no loss either.
A 65536-item draw on a persistent second thread was slower even cold
(67 against 55 ns a normal). So `_THREAD_MIN` stays at two blocks.
"""

from __future__ import annotations

import os
import threading

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_ROUNDS = ((np.uint64(30), _MIX1), (np.uint64(27), _MIX2), (np.uint64(31), None))
_TOP53 = np.uint64(11)
_TWO_PI = 2.0 * np.pi

#: Words computed per step; each scratch row is one block (256 KiB).
_BLOCK = 32768
#: Draws of at least this many items (pairs, for normals) are split across
#: CPUs: two blocks, the fewest that two threads can share.
_THREAD_MIN = 2 * _BLOCK

_RAMP = np.arange(_BLOCK, dtype=np.uint64)
_RAMP.flags.writeable = False


def fold_seed(seed: int, label: str) -> int:
    """Derive an independent stream seed from a master seed and a label."""
    h = 0xCBF29CE484222325
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return (seed ^ h) & _MASK


def _mix64(w: np.ndarray, seed: np.uint64, counter: int, t: np.ndarray) -> None:
    """Write words `counter`, `counter`+1, ... of the stream into `w`; `t` is scratch."""
    np.add(_RAMP[: len(w)], np.uint64(counter), out=w)
    w *= _GOLDEN
    w += seed
    for shift, mult in _ROUNDS:
        np.right_shift(w, shift, out=t)
        w ^= t
        if mult is not None:
            w *= mult


def _uniform(u: np.ndarray, seed: np.uint64, counter: int, w: np.ndarray, t: np.ndarray) -> None:
    _mix64(w, seed, counter, t)
    w >>= _TOP53
    u[...] = w  # a plain cast: a casting ufunc would allocate a buffer
    u += 1.0
    u *= 2.0**-53


# One step per kind of draw: fill items [a, b) of `out`, whose item 0 has
# counter `first`, using scratch rows of at least b - a elements.
def _words_step(out, a, b, seed, first, scratch):
    _mix64(out[a:b], seed, first + a, scratch[0, : b - a])


def _normals_step(out, a, b, seed, first, scratch):
    # out is [pairs, 2]: u1 of pair j is word first + j, u2 is word first + pairs + j
    m = b - a
    w, t = scratch[0, :m], scratch[1, :m]
    r, theta = scratch[2, :m].view(np.float64), scratch[3, :m].view(np.float64)
    _uniform(r, seed, first + a, w, t)
    _uniform(theta, seed, first + len(out) + a, w, t)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= _TWO_PI
    # cos/sin go through a contiguous block before the strided slots, so
    # each runs the same vector loop it would on a whole contiguous array
    trig = t.view(np.float64)
    np.cos(theta, out=trig)
    np.multiply(trig, r, out=out[a:b, 0])
    np.sin(theta, out=trig)
    np.multiply(trig, r, out=out[a:b, 1])


def _fill(step, out: np.ndarray, lo: int, hi: int, seed: np.uint64, first: int, scratch) -> None:
    """Fill items [lo, hi) of `out` block by block; allocates no arrays."""
    block = scratch.shape[1]
    for a in range(lo, hi, block):
        step(out, a, min(a + block, hi), seed, first, scratch)


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


def _draw(step, out: np.ndarray, seed: np.uint64, first: int) -> np.ndarray:
    """Fill every item of `out`, on every usable CPU when it is large.

    The calling thread and one thread per further CPU claim blocks in turn
    until none is left, so a CPU that is busy elsewhere takes fewer.
    """
    n = len(out)
    parts = _cpus() if n >= _THREAD_MIN else 1
    block = max(1, min(_BLOCK, n))
    scratch = np.empty((parts, 4, block), dtype=np.uint64)
    if parts == 1:
        _fill(step, out, 0, n, seed, first, scratch[0])
        return out
    starts = iter(range(0, n, block))
    claim = threading.Lock()
    errors: list[BaseException] = []

    def work(i: int) -> None:
        try:
            while True:
                with claim:
                    a = next(starts, None)
                if a is None:
                    return
                _fill(step, out, a, min(a + block, n), seed, first, scratch[i])
        except BaseException as err:  # re-raised by the caller below
            errors.append(err)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(1, parts)]
    for th in threads:
        th.start()
    try:
        work(0)
    finally:
        for th in threads:
            th.join()
    if errors:
        raise errors[0]
    return out


class SplitMix64:
    """Counter-based 64-bit generator; draws are independent of batching."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed & _MASK)
        self._drawn = 0

    def _take(self, count: int) -> int:
        """Reserve the next `count` words; return the counter of the first."""
        first = self._drawn + 1
        self._drawn += count
        return first

    def words(self, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.uint64)
        return _draw(_words_step, out, self._seed, self._take(count))

    def standard_normal(self, shape: tuple[int, ...]) -> np.ndarray:
        """Standard normals via Box-Muller; output is row-major over `shape`."""
        if any(extent < 0 for extent in shape):
            raise ValueError(f"standard_normal: negative extent in shape {shape}")
        n = int(np.prod(shape))
        pairs = (n + 1) // 2
        z = np.empty((pairs, 2), dtype=np.float64)
        _draw(_normals_step, z, self._seed, self._take(2 * pairs))
        return z.reshape(-1)[:n].reshape(shape)
