"""Output gate: every pass is checked before its time counts.

A pass's outputs are a name -> value map, where a value is either a
float64 array (network outputs, losses, gradients) or a check report
(`CheckResult.to_dict()`). A pass fails when an output is non-finite, a
check did not pass, the outputs are not bit-identical to the first pass
of the run, or the first pass disagrees with the frozen summary shipped
for the seed. Frozen summaries hold, per array, its sum, its sum of
squares and a few sampled values; per check, its verdict and numeric
measurement. They are compared at TOL relative to max(1, |frozen|),
loose enough for another BLAS build's rounding and far too tight for a
changed computation.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-10
SAMPLES = 8
FROZEN_DIR = Path(__file__).resolve().parents[1] / "frozen"


def _sample_indices(seed: int, name: str, size: int) -> list[int]:
    out = []
    for j in range(SAMPLES):
        key = hashlib.blake2b(f"{seed}/{name}/{j}".encode(), digest_size=8).digest()
        out.append(int.from_bytes(key, "little") % size)
    return out


def summarize(outputs: dict, seed: int) -> dict:
    """JSON-ready digest of a pass's outputs, to compare by tolerance."""
    summary = {}
    for name, value in outputs.items():
        if isinstance(value, np.ndarray):
            flat = value.ravel()
            picks = flat[_sample_indices(seed, name, flat.size)]
            summary[name] = [float(flat.sum()), float(np.dot(flat, flat))] + [float(v) for v in picks]
        else:
            measured = value["measured"]
            numeric = isinstance(measured, float)
            summary[name] = [bool(value["pass"]), measured if numeric else None]
    return summary


def mismatches(got, want, path: str = "") -> list[str]:
    """Every place where `got` differs from the frozen `want`."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            return [f"{path or 'outputs'}: names differ"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}/{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{path}: length differs"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}[{i}]")]
    if isinstance(want, float):
        if not isinstance(got, float) or not abs(got - want) <= TOL * max(1.0, abs(want)):
            return [f"{path}: {got!r} != frozen {want!r}"]
        return []
    return [] if got == want else [f"{path}: {got!r} != frozen {want!r}"]


def problems(outputs: dict) -> list[str]:
    """Non-finite arrays and failed checks."""
    out = []
    for name, value in outputs.items():
        if isinstance(value, np.ndarray):
            if not np.isfinite(value).all():
                out.append(f"{name}: non-finite values")
        else:
            if not value["pass"]:
                out.append(f"{name}: check failed (measured {value['measured']!r})")
            if isinstance(value["measured"], float) and not math.isfinite(value["measured"]):
                out.append(f"{name}: non-finite measurement")
    return out


def identical(a: dict, b: dict) -> bool:
    if a.keys() != b.keys():
        return False
    for name, x in a.items():
        y = b[name]
        if isinstance(x, np.ndarray):
            if not (isinstance(y, np.ndarray) and x.shape == y.shape and np.array_equal(x, y)):
                return False
        elif x != y:
            return False
    return True


def digest(outputs: dict) -> str:
    h = hashlib.sha256()
    for name, value in outputs.items():
        h.update(name.encode())
        if isinstance(value, np.ndarray):
            h.update(str(value.shape).encode())
            h.update(np.ascontiguousarray(value, dtype="<f8").tobytes())
        else:
            h.update(json.dumps(value, sort_keys=True).encode())
    return h.hexdigest()


def load_frozen(workload: str) -> dict:
    path = FROZEN_DIR / f"{workload}.json"
    if not path.is_file():
        return {}
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["seeds"]


class Gate:
    """Checks each pass of one run; the first pass is the run's reference."""

    def __init__(self, seed: int, frozen: dict):
        self.seed = seed
        self.expected = frozen.get(str(seed))
        self.first: dict | None = None
        self.first_problems: list[str] = []

    @property
    def reference(self) -> str:
        if self.expected is None:
            return f"self-consistency only: no frozen summary for seed {self.seed}"
        return f"frozen summary for seed {self.seed}"

    def check(self, outputs: dict) -> list[str]:
        """Problems with this pass; empty when it is correct."""
        found = problems(outputs)
        if self.first is None:
            self.first = outputs
            if self.expected is not None:
                self.first_problems = mismatches(summarize(outputs, self.seed), self.expected)
        elif not identical(outputs, self.first):
            found.append("outputs differ from the first pass of the run")
        return found + self.first_problems
