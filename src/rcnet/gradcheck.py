"""Central finite-difference verification of taped gradients.

The contract everywhere in this package: per checked coordinate,
|analytic - numeric| / max(1, |numeric|) <= TOL with a central difference
at step STEP. Large tensors are checked on a seeded coordinate sample so
end-to-end sweeps stay fast; small ones exhaustively.

A coordinate whose stencil straddles a kink (a relu or max-pool switch)
can fail at STEP with a correct gradient: the analytic value then matches
one one-sided difference, not their mean. So a coordinate that fails at
STEP is measured again at each of `FINER_STEPS` in turn, and passes at
the first step where both one-sided differences agree within TOL (no kink
lies inside the stencil) and the central difference meets the contract.
A coordinate that passes at STEP keeps that result, so a check no
coordinate of which fails at STEP reads exactly as it did without the
smaller steps. A wrong gradient fails at every step.
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
#: the steps a coordinate that fails at STEP is measured again at, in order
FINER_STEPS = (1e-6, 1e-7, 1e-8)


@dataclass
class GradCheckResult:
    name: str
    max_rel_err: float
    #: coordinates that failed at STEP and were measured at a smaller step
    remeasured: int


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
    max_coords: int,
    seed: int,
) -> list[GradCheckResult]:
    """Compare taped grads of `build_loss()` against central differences.

    A leaf of more than `max_coords` elements is checked at a sample of at
    most that many coordinates, drawn from `seed` and the leaf's name.
    `build_loss` must be a pure function of the leaves' current data. The
    leaves' data arrays are nudged in place during the numeric pass and
    restored exactly afterwards.
    """
    for t in leaves:
        t.grad = None  # leaves may be reused across checks
    with Tape() as tape:
        loss = build_loss()
    base = loss.item()  # the loss at the unnudged point, for the one-sided differences
    backward(tape, loss)
    analytic = [None if t.grad is None else t.grad.copy() for t in leaves]

    def measure(leaf, idx, g, step):
        """Relative error of the central difference, and the one-sided gap."""
        keep = leaf.data[idx]
        leaf.data[idx] = keep + step
        up = build_loss().item()
        leaf.data[idx] = keep - step
        down = build_loss().item()
        leaf.data[idx] = keep
        numeric = (up - down) / (2.0 * step)
        scale = max(1.0, abs(numeric))
        return abs(g - numeric) / scale, abs((up - base) - (base - down)) / step / scale

    results = []
    for leaf, grad in zip(leaves, analytic):
        label = leaf.name or "leaf"
        if grad is None:
            raise AssertionError(f"{label}: no gradient reached this leaf")
        worst, remeasured = 0.0, 0
        for idx in _coords(leaf.shape, max_coords, fold_seed(seed, label)):
            rel, _ = measure(leaf, idx, grad[idx], STEP)
            if rel > TOL:
                remeasured += 1
                for step in FINER_STEPS:
                    fine, gap = measure(leaf, idx, grad[idx], step)
                    if fine <= TOL and gap <= TOL:
                        rel = fine
                        break
            worst = max(worst, rel)
        results.append(GradCheckResult(label, worst, remeasured))
    return results
