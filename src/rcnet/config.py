"""Neck configuration: the single source of structural truth.

Field names are mirrored one-to-one by the JSON config files the CLI
reads, so a config round-trips without renaming.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass

#: ResNet-style stage widths for levels 2..5; desk configs divide these down.
FULL_STAGE_CHANNELS = {2: 256, 3: 512, 4: 1024, 5: 2048}

#: Offsets exchanged by the scale-shift (window of five, offset 0 untouched).
SHIFT_OFFSETS = (-2, -1, 1, 2)

#: NeckConfig fields that hold one int, and those that hold a tuple of ints.
_INTS = ("l_min", "l_max", "d", "r", "k", "batch", "seed")
_INT_TUPLES = ("backbone_channels", "base_resolution")


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class NeckConfig:
    l_min: int
    l_max: int
    d: int
    backbone_channels: tuple[int, ...]
    r: int
    k: int
    batch: int
    base_resolution: tuple[int, int]
    seed: int

    def __post_init__(self):
        for name in _INT_TUPLES:
            if isinstance(getattr(self, name), list):
                object.__setattr__(self, name, tuple(getattr(self, name)))
        problems = self.violations()
        if problems:
            raise ValueError("invalid NeckConfig: " + "; ".join(problems))

    def violations(self) -> list[str]:
        """Every problem with this config, each naming its field.

        Types come first: a field that is not an int (bools excluded), or
        not a tuple of such ints, is named once and takes no part in any
        check after that, nor does a value whose own range check failed.
        """
        out = []
        bad = set()
        for name in _INTS:
            if not _is_int(getattr(self, name)):
                out.append(f"{name}={getattr(self, name)!r} must be an integer")
                bad.add(name)
        for name in _INT_TUPLES:
            value = getattr(self, name)
            if not (isinstance(value, tuple) and all(_is_int(v) for v in value)):
                out.append(f"{name}={value!r} must be a list of integers")
                bad.add(name)

        def usable(*names):
            return bad.isdisjoint(names)

        if usable("l_min", "l_max"):
            if self.l_min < 0:
                out.append(f"l_min={self.l_min} must be >= 0 (level l has stride 2^l)")
                bad.add("l_min")
            if not self.l_min < self.l_max:
                out.append(f"l_min={self.l_min} must be < l_max={self.l_max}")
                bad.update(("l_min", "l_max"))
            n = self.l_max - self.l_min + 1
            if n < 5:
                out.append(f"need at least 5 levels for the shift window, got {n}")
            if self.l_max not in (6, 7):
                out.append(f"l_max must be 6 or 7 (stem extends from level 5), got {self.l_max}")
                bad.add("l_max")
        if usable("d") and self.d <= 0:
            out.append(f"d={self.d} must be positive")
            bad.add("d")
        if usable("r") and self.r <= 0:
            out.append(f"r={self.r} must be positive")
            bad.add("r")
        if usable("d", "r") and self.d % (4 * self.r):
            out.append(f"d={self.d} must be divisible by 4*r={4 * self.r}")
        if usable("backbone_channels"):
            if usable("l_min", "l_max") and len(self.backbone_channels) != 6 - self.l_min:
                out.append(
                    f"backbone_channels has {len(self.backbone_channels)} entries; "
                    f"need {6 - self.l_min} (stages l_min..5, stem above)"
                )
            if any(c <= 0 for c in self.backbone_channels):
                out.append("backbone_channels must be positive")
        if usable("k", "l_min", "l_max") and not (self.l_min <= self.k <= self.l_max):
            out.append(f"reference level k={self.k} outside [{self.l_min}, {self.l_max}]")
        if usable("batch") and self.batch < 1:
            out.append(f"batch={self.batch} must be >= 1")
            bad.add("batch")
        if usable("base_resolution"):
            if len(self.base_resolution) != 2 or min(self.base_resolution) < 1:
                out.append(f"base_resolution {self.base_resolution} must be two positive extents")
            elif usable("l_min", "l_max"):
                div = 2 ** (self.l_max - self.l_min)
                for ext in self.base_resolution:
                    if ext % div:
                        out.append(f"base extent {ext} not divisible by 2^(l_max-l_min)={div}")
                # the top level is the smallest map any channel_norm sees
                h, w = self.resolution(self.l_max)
                if usable("batch") and self.batch * h * w < 2:
                    out.append(
                        f"top level {self.l_max} is {h}x{w} at batch {self.batch}; "
                        "channel_norm needs batch*h*w >= 2 values per channel"
                    )
        if usable("seed") and not (0 <= self.seed < 2**64):
            out.append(f"seed={self.seed} outside the unsigned 64-bit range")
        return out

    # -- derived structure ---------------------------------------------------

    @property
    def num_levels(self) -> int:
        return self.l_max - self.l_min + 1

    def levels(self) -> range:
        return range(self.l_min, self.l_max + 1)

    def stage_levels(self) -> range:
        """Levels the synthetic backbone emits directly; the stem grows the rest."""
        return range(self.l_min, 6)

    def stage_channels(self, level: int) -> int:
        if level not in self.stage_levels():
            raise ValueError(f"level {level} is not a backbone stage")
        return self.backbone_channels[level - self.l_min]

    def resolution(self, level: int) -> tuple[int, int]:
        f = 2 ** (level - self.l_min)
        return self.base_resolution[0] // f, self.base_resolution[1] // f

    def input_channels(self, level: int) -> int:
        """Channels of the neck input at `level` (stage width, or d past the stem)."""
        return self.stage_channels(level) if level in self.stage_levels() else self.d

    @property
    def shift_block(self) -> int:
        """Channels carried by each of the four shift offsets."""
        return self.d // (4 * self.r)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["backbone_channels"] = list(self.backbone_channels)
        d["base_resolution"] = list(self.base_resolution)
        return d

    def replace(self, **kw) -> "NeckConfig":
        d = self.to_dict()
        d.update(kw)
        return NeckConfig(**d)


def desk_config(**overrides) -> NeckConfig:
    """Small default everything runs with: one-stage level range, width 64.

    Stage widths are the full ResNet ones divided by 32 so the heterogeneous
    lateral projections still get exercised.
    """
    cfg = dict(
        l_min=3,
        l_max=7,
        d=64,
        backbone_channels=tuple(FULL_STAGE_CHANNELS[i] // 32 for i in (3, 4, 5)),
        r=4,
        k=4,
        batch=1,
        base_resolution=(64, 64),
        seed=7,
    )
    cfg.update(overrides)
    return NeckConfig(**cfg)


def paper_width(cfg: NeckConfig) -> NeckConfig:
    """Restore full channel widths (d=256, undivided stage channels).

    Stage levels below 2, which have no ResNet stage width, get width 256.
    """
    stages = tuple(
        FULL_STAGE_CHANNELS.get(i, 256) for i in cfg.stage_levels()
    )
    return cfg.replace(d=256, backbone_channels=stages)


def load_config(path: str) -> NeckConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (ValueError, RecursionError) as err:  # bad JSON or UTF-8, a huge int, deep nesting
            raise ValueError(f"config {path} is not valid JSON: {err}") from err
    try:
        return NeckConfig(**raw)
    except TypeError as err:
        raise ValueError(f"config {path} does not match the NeckConfig fields: {err}") from err
