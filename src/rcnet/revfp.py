"""Reverse feature pyramid: one bottom-up pathway with local top-down links.

Each level i fuses three things: its own (lateralized) stage C_i, the next
stage C_{i+1} recalibrated by feature-guided upsampling, and the previous
output P_{i-1}. Fusion happens in two convex steps, each gated by a
per-sample scalar weight:

    pre:   P'_i = norm(conv(  w'*C_i + (1-w')*guided(C_{i+1})  ))
    post:  P_i  = norm(conv(  w *P'_i + (1-w )*maxpool(P_{i-1})  ))

with the boundary rules P'_top = lateral(C_top) (no pre-fusion above the
pyramid) and P_bottom = P'_bottom (nothing below to merge).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import counting
from .config import NeckConfig
from .fixtures import stem_params
from .params import ParamStore
from .pyramid import FeaturePyramid
from .rng import fold_seed
from .tensor import (
    Tensor,
    add,
    bilinear_upsample_x2,
    channel_norm,
    concat,
    conv2d,
    global_avg_pool,
    maxpool2d,
    mul,
    narrow,
    scale,
    sigmoid,
    softmax,
    sub,
)


#: the bias of the FGU's second logit conv; the first one adds the site's
_ZERO_BIAS = Tensor([0.0])


@dataclass
class FguSite:
    weight: Tensor  # [1, 2d, 3, 3] spatial-logit conv
    bias: Tensor
    temperature: Tensor  # learnable scalar, initialized to 1


@dataclass
class FusionSite:
    head_weight: Tensor  # [1, 2d, 1, 1] scalar-weight head
    head_bias: Tensor
    conv_weight: Tensor  # [d, d, 3, 3]
    conv_bias: Tensor
    gamma: Tensor
    beta: Tensor


def revfp_params(cfg: NeckConfig) -> ParamStore:
    store = ParamStore(fold_seed(cfg.seed, "revfp"))
    stem_params(store, cfg)
    d = cfg.d
    for i in cfg.levels():
        store.conv(f"lateral/{i}", d, cfg.input_channels(i), 1, 1)
    for i in range(cfg.l_min, cfg.l_max):  # one guided-upsample site per level pair
        store.conv(f"fgu/{i}", 1, 2 * d, 3, 3)
        store.constant(f"fgu/{i}/temperature", (1,), 1.0)
    for i in range(cfg.l_min, cfg.l_max):  # pre-fusion runs everywhere but the top
        _fusion_site_params(store, f"pre/{i}", d)
    for i in range(cfg.l_min + 1, cfg.l_max + 1):  # post-fusion everywhere but the bottom
        _fusion_site_params(store, f"post/{i}", d)
    return store


def _fusion_site_params(store: ParamStore, name: str, d: int):
    store.conv(f"{name}/head", 1, 2 * d, 1, 1)
    store.conv(f"{name}/conv", d, d, 3, 3)
    store.norm(f"{name}/norm", d)


def fgu_site(store: ParamStore, i: int) -> FguSite:
    return FguSite(
        store[f"fgu/{i}/weight"], store[f"fgu/{i}/bias"], store[f"fgu/{i}/temperature"]
    )


def fusion_site(store: ParamStore, name: str) -> FusionSite:
    return FusionSite(
        store[f"{name}/head/weight"],
        store[f"{name}/head/bias"],
        store[f"{name}/conv/weight"],
        store[f"{name}/conv/bias"],
        store[f"{name}/norm/gamma"],
        store[f"{name}/norm/beta"],
    )


def feature_guided_upsample(c_fine: Tensor, c_coarse: Tensor, site: FguSite) -> Tensor:
    """Upsample `c_coarse` 2x and reweight it by attention from `c_fine`.

    The spatial logits come from a 3x3 conv over concat(fine, upsampled),
    scaled by temperature/sqrt(d); softmax over all positions is rescaled
    by H*W so the weights average to exactly 1 and a constant-logit map
    leaves the upsampled features untouched. The conv runs as two convs,
    one per half of the weight's input channels, whose sum is the conv of
    the concat: no [N, 2d, H, W] copy is made or kept for backward, and
    the MACs are the same.
    """
    n, d, h, w = c_fine.shape
    if c_coarse.shape != (n, d, h // 2, w // 2) or h % 2 or w % 2:
        raise ValueError(
            f"feature_guided_upsample: coarse shape {c_coarse.shape} is not half of {c_fine.shape}"
        )
    up = bilinear_upsample_x2(c_coarse)
    logits = add(
        conv2d(c_fine, narrow(site.weight, 1, 0, d), site.bias, padding=1),
        conv2d(up, narrow(site.weight, 1, d, d), _ZERO_BIAS, padding=1),
    )
    scaled = mul(logits, scale(site.temperature, d**-0.5))
    weights = scale(softmax(scaled, (2, 3)), float(h * w))
    counting.probe("weights", weights)
    return mul(up, weights)


def dynamic_weight(a: Tensor, b: Tensor, head_weight: Tensor, head_bias: Tensor) -> Tensor:
    """Per-sample scalar gate in (0,1) from pooled concat of both operands.

    Each operand is pooled before the two [N, d, 1, 1] means are joined,
    which is bitwise the pool of the joined [N, 2d, H, W] map without
    building it.
    """
    if a.shape != b.shape:
        raise ValueError(f"dynamic_weight: operand shapes {a.shape} != {b.shape}")
    pooled = concat([global_avg_pool(a), global_avg_pool(b)], 1)
    return sigmoid(conv2d(pooled, head_weight, head_bias))


def fuse(current: Tensor, other: Tensor, site: FusionSite) -> Tensor:
    """norm(conv(w*current + (1-w)*other)), w from the gate, which rejects unequal shapes."""
    with counting.scope("head"):
        w = dynamic_weight(current, other, site.head_weight, site.head_bias)
    blend = add(mul(w, current), mul(sub(Tensor(1.0), w), other))
    counting.probe("blend", blend)
    counting.probe("operands", (current, other))
    with counting.scope("conv"):
        out = conv2d(blend, site.conv_weight, site.conv_bias, padding=1)
    with counting.scope("norm"):
        return channel_norm(out, site.gamma, site.beta)


def revfp_forward(C: FeaturePyramid, params: ParamStore, cfg: NeckConfig) -> FeaturePyramid:
    """Bottom-up pass over all levels; see the module docstring for the rule."""
    for i in cfg.levels():
        if i not in C:
            raise ValueError(f"revfp_forward: input pyramid is missing level {i}")

    lateral = {}
    for i in cfg.levels():
        with counting.scope(f"lateral/{i}"):
            lateral[i] = conv2d(
                C[i], params[f"lateral/{i}/weight"], params[f"lateral/{i}/bias"]
            )

    out: dict = {}
    for i in cfg.levels():
        if i < cfg.l_max:
            with counting.scope(f"fgu/{i}"):
                guided = feature_guided_upsample(lateral[i], lateral[i + 1], fgu_site(params, i))
            with counting.scope(f"pre/{i}"):
                p_prime = fuse(lateral[i], guided, fusion_site(params, f"pre/{i}"))
        else:
            p_prime = lateral[i]  # top boundary: nothing above to pre-fuse
        counting.probe(f"p_prime/{i}", p_prime)
        if i == cfg.l_min:
            out[i] = p_prime  # bottom boundary: nothing below to post-fuse
        else:
            with counting.scope(f"post/{i}"):
                site = fusion_site(params, f"post/{i}")
                out[i] = fuse(p_prime, maxpool2d(out[i - 1], 2, 2), site)
    return FeaturePyramid(out)
