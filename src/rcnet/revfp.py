"""Reverse feature pyramid: one bottom-up pathway with local top-down links.

Each level i fuses three things: its own (lateralized) stage C_i, the next
stage C_{i+1} recalibrated by feature-guided upsampling, and the previous
output P_{i-1}. Fusion happens in two convex steps, each gated by a
per-sample scalar weight:

    pre:   P'_i = norm(conv(  w'*C_i + (1-w')*guided(C_{i+1})  ))
    post:  P_i  = norm(conv(  w *P'_i + (1-w )*maxpool(P_{i-1})  ))

with the boundary rules P'_top = lateral(C_top) (no pre-fusion above the
pyramid) and P_bottom = P'_bottom (nothing below to merge).

Each site is reached by its parameter path, the way fpn and csn reach
theirs: the forward reads `fgu/{i}/...`, `pre/{i}/...` and `post/{i}/...`
from the `ParamStore` where it uses them, and hands `feature_guided_upsample`
and `blend` plain tensors.

A forward binds no activation past its last read. One name carries each
level from its guided map through both fusions to its output, and each
lateral map is released after its own level's pre-fusion, the last step
to read it. A name holds an argument until the call returns, so each
fusion runs as three statements, blend, conv and norm: both operands are
freed once the blend is formed, and the blend once the conv has read it.
`blend` is the one fusion function; those two sites are the only places
that compose it with the conv and the norm. A check that probes a
forward hands `counting.probes` a callable that keeps only what the
check reads. A tape still keeps exactly what backward reads.
"""

from __future__ import annotations

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


#: the bias of the FGU's second logit conv; the first one adds the site's bias
_ZERO_BIAS = Tensor([0.0])


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


def feature_guided_upsample(
    c_fine: Tensor, c_coarse: Tensor, weight: Tensor, bias: Tensor, temperature: Tensor
) -> Tensor:
    """Upsample `c_coarse` 2x and reweight it by attention from `c_fine`.

    The spatial logits come from a 3x3 conv over concat(fine, upsampled)
    by `weight` [1, 2d, 3, 3] and `bias`, scaled by `temperature`/sqrt(d);
    softmax over all positions is rescaled by H*W so the weights average
    to exactly 1 and a constant-logit map leaves the upsampled features
    untouched. The conv runs as two convs, one per half of the weight's
    input channels, whose sum is the conv of the concat: no [N, 2d, H, W]
    copy is made or kept for backward, and the MACs are the same.
    """
    n, d, h, w = c_fine.shape
    if c_coarse.shape != (n, d, h // 2, w // 2) or h % 2 or w % 2:
        raise ValueError(
            f"feature_guided_upsample: coarse shape {c_coarse.shape} is not half of {c_fine.shape}"
        )
    up = bilinear_upsample_x2(c_coarse)
    x = add(
        conv2d(c_fine, narrow(weight, 1, 0, d), bias, padding=1),
        conv2d(up, narrow(weight, 1, d, d), _ZERO_BIAS, padding=1),
    )
    x = mul(x, scale(temperature, d**-0.5))
    x = scale(softmax(x, (2, 3)), float(h * w))
    counting.probe("weights", x)
    return mul(up, x)


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


def blend(current: Tensor, other: Tensor, head_weight: Tensor, head_bias: Tensor) -> Tensor:
    """w*current + (1-w)*other, w from the gate, which rejects unequal shapes."""
    with counting.scope("head"):
        w = dynamic_weight(current, other, head_weight, head_bias)
    x = add(mul(w, current), mul(sub(Tensor(1.0), w), other))
    counting.probe("blend", x)
    counting.probe("operands", (current, other))
    return x


def _conv(x: Tensor, params: ParamStore, site: str) -> Tensor:
    with counting.scope("conv"):
        return conv2d(x, params[f"{site}/conv/weight"], params[f"{site}/conv/bias"], padding=1)


def _norm(x: Tensor, params: ParamStore, site: str) -> Tensor:
    with counting.scope("norm"):
        return channel_norm(x, params[f"{site}/norm/gamma"], params[f"{site}/norm/beta"])


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

    # lateral[i] leaves the dict at its last read, at level i
    out: dict = {}
    for i in cfg.levels():
        if i < cfg.l_max:
            with counting.scope(f"fgu/{i}"):
                w, b, t = (params[f"fgu/{i}/{n}"] for n in ("weight", "bias", "temperature"))
                x = feature_guided_upsample(lateral[i], lateral[i + 1], w, b, t)
            site = f"pre/{i}"
            with counting.scope(site):
                w, b = params[f"{site}/head/weight"], params[f"{site}/head/bias"]
                x = blend(lateral.pop(i), x, w, b)
                x = _conv(x, params, site)
                x = _norm(x, params, site)
        else:
            x = lateral.pop(i)  # top boundary: nothing above to pre-fuse
        counting.probe(f"p_prime/{i}", x)
        if i > cfg.l_min:  # the bottom boundary has nothing below to post-fuse
            site = f"post/{i}"
            with counting.scope(site):
                w, b = params[f"{site}/head/weight"], params[f"{site}/head/bias"]
                x = blend(x, maxpool2d(out[i - 1]), w, b)
                x = _conv(x, params, site)
                x = _norm(x, params, site)
        out[i] = x
    return FeaturePyramid(out)
