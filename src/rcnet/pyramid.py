"""Feature pyramids and their bit-exact binary container (FPZ1).

A pyramid is an ordered map level -> [batch, channels, H, W] tensor where
consecutive levels halve each spatial extent exactly. The FPZ1 container
is deliberately trivial to parse from any language:

    bytes 0..3   magic "FPZ1"
    bytes 4..7   little-endian u32: header length in bytes
    header       UTF-8 JSON: {"levels", "shapes", "dtype": "f64le",
                 "seed", "config"} (the last two may be null)
    blobs        per level, ascending, raw little-endian IEEE-754 doubles
                 in row-major order, exactly prod(shape) * 8 bytes each

`load_pyramid` fails only with a `ContainerError` subclass (bad magic,
header, lengths, or a NaN/Inf payload) or a `PyramidError` (levels that
do not form a pyramid of 4-D tensors), never with another exception
type.

How a container is written and read: `save_pyramid` and `pyramid_digest`
take one serialization, `_pieces`, a piece at a time, so neither builds
the container in memory. `load_pyramid` reads the 8-byte prefix and the
header, then checks every declared blob length against the file size
(from `fstat`) before it allocates any level; a header that declares more
bytes than the file holds fails there, whatever size it declares. Only
then does it read each blob with `readinto` straight into that level's
own array. A file with several faults therefore reports a header or
length fault before a payload fault.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

from .config import _is_int
from .tensor import Tensor

MAGIC = b"FPZ1"
DTYPE_TAG = "f64le"


class PyramidError(ValueError):
    """Pyramid shape invariants violated (levels, halving, batch)."""


class ContainerError(ValueError):
    """Base for FPZ1 container format errors."""


class BadMagicError(ContainerError):
    """File does not start with the FPZ1 magic."""


class HeaderError(ContainerError):
    """Header is missing, not valid JSON, or lacks required fields."""


class BlobLengthError(ContainerError):
    """Payload length disagrees with the shapes the header declares."""


class PayloadError(ContainerError):
    """Payload holds NaN or Inf values."""


class FeaturePyramid:
    """Ordered map of consecutive pyramid levels to 4-D tensors."""

    def __init__(self, tensors: dict[int, Tensor]):
        if not tensors:
            raise PyramidError("pyramid has no levels")
        levels = sorted(tensors)
        if levels != list(range(levels[0], levels[-1] + 1)):
            raise PyramidError(f"levels {levels} are not consecutive")
        for i in levels:
            if tensors[i].ndim != 4:
                raise PyramidError(
                    f"level {i} has shape {tensors[i].shape}; pyramid tensors must be 4-D "
                    "[batch, C, H, W]"
                )
        batch = tensors[levels[0]].shape[0]
        for lo, hi in zip(levels, levels[1:]):
            a, b = tensors[lo], tensors[hi]
            if (a.shape[2], a.shape[3]) != (2 * b.shape[2], 2 * b.shape[3]):
                raise PyramidError(
                    f"level {hi} extent {b.shape[2:]} is not half of level {lo} {a.shape[2:]}"
                )
            if b.shape[0] != batch:
                raise PyramidError(f"level {hi} batch {b.shape[0]} != {batch}")
        self._tensors = {i: tensors[i] for i in levels}

    @property
    def levels(self) -> list[int]:
        return list(self._tensors)

    def __getitem__(self, level: int) -> Tensor:
        return self._tensors[level]

    def __contains__(self, level: int) -> bool:
        return level in self._tensors

    def items(self):
        return self._tensors.items()

    def with_level(self, level: int, tensor: Tensor) -> "FeaturePyramid":
        new = dict(self._tensors)
        new[level] = tensor
        return FeaturePyramid(new)

    def equal_bitwise(self, other: "FeaturePyramid") -> bool:
        if self.levels != other.levels:
            return False
        return all(np.array_equal(self[i].data, other[i].data) for i in self.levels)


# ---------------------------------------------------------------------------
# container


def _pieces(pyr: FeaturePyramid, seed=None, config: dict | None = None):
    """The FPZ1 serialization of `pyr`: the header bytes, then each level's blob.

    A blob is the level's own array whenever it is already contiguous and
    little-endian, so writing or hashing the pieces copies no level.
    """
    header = {
        "levels": pyr.levels,
        "shapes": {str(i): list(pyr[i].shape) for i in pyr.levels},
        "dtype": DTYPE_TAG,
        "seed": seed,
        "config": config,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    yield MAGIC + len(head).to_bytes(4, "little") + head
    for i in pyr.levels:
        yield np.ascontiguousarray(pyr[i].data, dtype="<f8").reshape(-1)


def save_pyramid(path: str, pyr: FeaturePyramid, seed=None, config: dict | None = None):
    with open(path, "wb") as fh:
        for piece in _pieces(pyr, seed=seed, config=config):
            fh.write(piece)


def load_pyramid(path: str) -> FeaturePyramid:
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(8)
        if prefix[:4] != MAGIC:
            raise BadMagicError(f"{path}: expected magic {MAGIC!r}, got {prefix[:4]!r}")
        if len(prefix) < 8:
            raise HeaderError(f"{path}: file too short for a header length")
        head_len = int.from_bytes(prefix[4:8], "little")
        head_end = 8 + head_len
        if size < head_end:
            raise HeaderError(f"{path}: declared header length {head_len} exceeds file size")
        header = _parse_header(path, fh.read(head_len))

        offset = head_end
        shapes = []
        for level in header["levels"]:
            shape = header["shapes"].get(str(level))
            if shape is None:
                raise HeaderError(f"{path}: header has no shape for level {level}")
            if not isinstance(shape, list) or not all(_is_int(n) and n >= 0 for n in shape):
                raise HeaderError(
                    f"{path}: level {level} shape {shape!r} is not a list of non-negative integers"
                )
            nbytes = math.prod(shape) * 8  # exact: Python ints do not overflow
            if offset + nbytes > size:
                raise BlobLengthError(
                    f"{path}: level {level} blob needs {nbytes} bytes, {size - offset} remain"
                )
            shapes.append((level, shape))
            offset += nbytes
        if offset != size:
            raise BlobLengthError(f"{path}: {size - offset} trailing bytes after last blob")

        tensors = {}
        for level, shape in shapes:
            data = np.empty(shape, dtype="<f8")
            got = fh.readinto(data.reshape(-1).view(np.uint8))
            if got != data.nbytes:  # the file shrank after it was measured
                raise BlobLengthError(
                    f"{path}: level {level} blob needs {data.nbytes} bytes, {got} remain"
                )
            if not np.isfinite(data).all():
                raise PayloadError(f"{path}: level {level} blob holds NaN or Inf values")
            tensors[level] = Tensor(data)
    return FeaturePyramid(tensors)


def _parse_header(path: str, head: bytes) -> dict:
    """The JSON header, with its `levels`, `shapes` and `dtype` fields checked."""
    try:
        header = json.loads(head.decode("utf-8"))
    except (ValueError, RecursionError) as err:  # bad JSON or UTF-8, a huge int, deep nesting
        raise HeaderError(f"{path}: malformed header: {err}") from err
    if not isinstance(header, dict):
        raise HeaderError(f"{path}: header is not a JSON object")
    for key in ("levels", "shapes", "dtype"):
        if key not in header:
            raise HeaderError(f"{path}: header missing field {key!r}")
    if header["dtype"] != DTYPE_TAG:
        raise HeaderError(f"{path}: unsupported dtype tag {header['dtype']!r}")
    levels, shapes = header["levels"], header["shapes"]
    if not isinstance(levels, list) or not all(_is_int(level) for level in levels):
        raise HeaderError(f"{path}: 'levels' must be a list of integers, got {levels!r}")
    if len(set(levels)) != len(levels):
        raise HeaderError(f"{path}: 'levels' repeats a level: {levels!r}")
    if not isinstance(shapes, dict):
        raise HeaderError(f"{path}: 'shapes' must be an object keyed by level")
    return header


def pyramid_digest(pyr: FeaturePyramid) -> str:
    """SHA-256 over the canonical serialized form (no seed/config echo)."""
    h = hashlib.sha256()
    for piece in _pieces(pyr):
        h.update(piece)
    return h.hexdigest()
