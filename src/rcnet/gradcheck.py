"""Central finite-difference verification of taped gradients.

The contract everywhere in this package: per checked coordinate,
|analytic - numeric| / max(1, |numeric|) <= TOL with a central difference
at step STEP. Large tensors are checked on a seeded coordinate sample so
end-to-end sweeps stay fast; small ones exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .rng import SplitMix64, fold_seed
from .tensor import Tape, Tensor, backward

#: the largest relative error a checked coordinate may show
TOL = 1e-4
#: the central-difference step
STEP = 1e-5


@dataclass
class GradCheckResult:
    name: str
    max_rel_err: float

    @property
    def passed(self) -> bool:
        return self.max_rel_err <= TOL


def _coords(shape: tuple[int, ...], limit: int, seed: int) -> list[tuple[int, ...]]:
    total = int(np.prod(shape)) if shape else 1
    if total <= limit:
        flat = range(total)
    else:
        stream = SplitMix64(seed)
        flat = sorted({int(w % total) for w in stream.words(limit)})
    return [tuple(int(q) for q in np.unravel_index(i, shape)) for i in flat] if shape else [()]


def check_gradients(
    build_loss: Callable[[], Tensor],
    leaves: Sequence[Tensor],
    max_coords: int = 6,
    seed: int = 0,
) -> list[GradCheckResult]:
    """Compare taped grads of `build_loss()` against central differences.

    `build_loss` must be a pure function of the leaves' current data. The
    leaves' data arrays are nudged in place during the numeric pass and
    restored exactly afterwards.
    """
    for t in leaves:
        t.grad = None  # leaves may be reused across checks
    with Tape() as tape:
        loss = build_loss()
    backward(tape, loss)
    analytic = [None if t.grad is None else t.grad.copy() for t in leaves]

    results = []
    for leaf, grad in zip(leaves, analytic):
        label = leaf.name or "leaf"
        if grad is None:
            raise AssertionError(f"{label}: no gradient reached this leaf")
        worst = 0.0
        coords = _coords(leaf.shape, max_coords, fold_seed(seed, label))
        for idx in coords:
            keep = leaf.data[idx]
            leaf.data[idx] = keep + STEP
            up = build_loss().item()
            leaf.data[idx] = keep - STEP
            down = build_loss().item()
            leaf.data[idx] = keep
            numeric = (up - down) / (2.0 * STEP)
            rel = abs(grad[idx] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, rel)
        results.append(GradCheckResult(label, worst))
    return results
