"""Named, hierarchical store of learnable tensors.

Initialization is a pure function of (seed, name): each weight gets its own
SplitMix64 stream derived from the master seed and the parameter path, so
stores are reproducible and insensitive to construction order.
"""

from __future__ import annotations

import numpy as np

from .rng import SplitMix64, fold_seed
from .tensor import Tensor


class ParamStore:
    def __init__(self, seed: int):
        self.seed = seed
        self._tensors: dict[str, Tensor] = {}

    def _add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self._tensors:
            raise ValueError(f"parameter {name!r} already exists")
        t = Tensor(data, requires_grad=True, name=name)
        self._tensors[name] = t
        return t

    def normal(self, name: str, shape: tuple[int, ...], std: float) -> Tensor:
        draw = SplitMix64(fold_seed(self.seed, name)).standard_normal(shape)
        draw *= std  # in place: bitwise std * draw, without a second full-size array
        return self._add(name, draw)

    def constant(self, name: str, shape: tuple[int, ...], value: float) -> Tensor:
        return self._add(name, np.full(shape, value, dtype=np.float64))

    def conv(self, name: str, cout: int, cin: int, kh: int, kw: int, zero: bool = False):
        """Weight/bias pair for a conv site; weight std is 1/sqrt(fan-in)."""
        if zero:
            w = self.constant(f"{name}/weight", (cout, cin, kh, kw), 0.0)
        else:
            w = self.normal(f"{name}/weight", (cout, cin, kh, kw), (cin * kh * kw) ** -0.5)
        b = self.constant(f"{name}/bias", (cout,), 0.0)
        return w, b

    def norm(self, name: str, channels: int):
        gamma = self.constant(f"{name}/gamma", (channels,), 1.0)
        beta = self.constant(f"{name}/beta", (channels,), 0.0)
        return gamma, beta

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def tensors(self) -> list[Tensor]:
        return list(self._tensors.values())

    def param_count(self) -> int:
        return sum(t.size for t in self._tensors.values())

    def with_overrides(self, arrays: dict[str, np.ndarray]) -> "ParamStore":
        """Shallow copy with the tensors named by the keys of `arrays` replaced."""
        clone = ParamStore(self.seed)
        clone._tensors = dict(self._tensors)
        for name, data in arrays.items():
            if name not in clone._tensors:
                raise KeyError(name)
            clone._tensors[name] = Tensor(
                np.asarray(data, dtype=np.float64), requires_grad=True, name=name
            )
        return clone
