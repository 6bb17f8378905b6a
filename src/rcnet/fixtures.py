"""Synthetic backbone pyramids and the stride-2 stem that extends them.

`synth_normal` draws a seeded input tensor: standard normals from the
documented generator, from one stream per label. The backbone stand-in
draws one stream per stage, and the checks and the shift bench draw
their random inputs the same way. The stem then grows levels 6 (and 7)
the way single-stage detectors conventionally do: a stride-2 3x3 conv
on C5, and another on relu(C6).
"""

from __future__ import annotations

from . import counting
from .config import NeckConfig
from .params import ParamStore
from .pyramid import FeaturePyramid
from .rng import SplitMix64, fold_seed
from .tensor import Tensor, conv2d, pad2d, relu


def synth_normal(cfg: NeckConfig, label: str, shape: tuple[int, ...]) -> Tensor:
    """Seeded standard normals of `shape`, drawn from the stream `label`."""
    return Tensor(SplitMix64(fold_seed(cfg.seed, label)).standard_normal(shape))


def stage_shapes(cfg: NeckConfig) -> dict[int, tuple[int, ...]]:
    """The [batch, C, H, W] shape of each backbone stage, by level."""
    return {i: (cfg.batch, cfg.stage_channels(i)) + cfg.resolution(i) for i in cfg.stage_levels()}


def synth_backbone(cfg: NeckConfig) -> FeaturePyramid:
    """Seeded stand-in for backbone stages l_min..5; pure in the config."""
    shapes = stage_shapes(cfg)
    return FeaturePyramid({i: synth_normal(cfg, f"backbone/C{i}", shapes[i]) for i in shapes})


def synth_stack(cfg: NeckConfig, label: str) -> Tensor:
    """Seeded standard normals in the [batch, d, n, h_k, w_k] scale stack
    the cross-scale module forms."""
    return synth_normal(cfg, label, (cfg.batch, cfg.d, cfg.num_levels) + cfg.resolution(cfg.k))


def stem_params(store: ParamStore, cfg: NeckConfig) -> ParamStore:
    """Allocate the stem convs (one per level above 5) in `store`."""
    store.conv("stem/c6", cfg.d, cfg.stage_channels(5), 3, 3)
    if cfg.l_max >= 7:
        store.conv("stem/c7", cfg.d, cfg.d, 3, 3)
    return store


def _stride2_conv(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    # pad 1 on top/left only: with an even input extent this is the exact
    # half-resolution output a symmetric-pad floor-convolution would produce
    return conv2d(pad2d(x, 1, 0, 1, 0), weight, bias, stride=2, padding=0)


def extend_stem(C: FeaturePyramid, params: ParamStore, cfg: NeckConfig) -> FeaturePyramid:
    """Add levels 6..l_max on top of a backbone pyramid ending at level 5."""
    if C.levels[-1] != 5:
        raise ValueError(f"extend_stem: highest present level is {C.levels[-1]}, expected 5")
    out = C
    with counting.scope("stem/c6"):
        c6 = _stride2_conv(C[5], params["stem/c6/weight"], params["stem/c6/bias"])
    out = out.with_level(6, c6)
    if cfg.l_max >= 7:
        with counting.scope("stem/c7"):
            c7 = _stride2_conv(relu(c6), params["stem/c7/weight"], params["stem/c7/bias"])
        out = out.with_level(7, c7)
    return out


def prepare_inputs(cfg: NeckConfig, params: ParamStore) -> FeaturePyramid:
    """Complete neck input: synthetic stages l_min..5 plus the stem above."""
    return extend_stem(synth_backbone(cfg), params, cfg)
