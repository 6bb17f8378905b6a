"""Cross-scale exchange: stack all levels, shift channels, model context.

The pyramid is resized to one reference resolution and stacked along a
scale axis. A circulant channel shift then moves four channel blocks to
offsets -2, -1, +1, +2 along that axis (wrapping at the ends) and glues
the moved blocks back by concatenation, so every level sees both its
neighbours and non-neighbours at zero arithmetic cost. Two 1x1 convs
aggregate the widened stack back to width d with a residual from the
original stack, a dual (scale + spatial) attention adds pooled global
context, and the result is resized back and added to the input pyramid.

The shift block is `cfg.shift_block`, d / (4r) channels; `NeckConfig`
checks that 4r divides d. The stack's own shape gives everything else.

A forward binds no activation past its last read. One name carries the
stack through gather, shift, aggregate and context, and each reweighted
stack goes straight into its pool, so a stack-sized map is freed as soon
as the next stage has read it. The aggregate's residual reads the
pre-shift stack itself, not a view of the widened one, so the widened
stack is freed once the reduce conv has read it. A tape still keeps
exactly what backward reads.
"""

from __future__ import annotations

from . import counting
from .config import SHIFT_OFFSETS, NeckConfig
from .params import ParamStore
from .pyramid import FeaturePyramid
from .revfp import revfp_forward
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
    relu,
    reshape,
    roll,
    scale,
    softmax,
    tmean,
)


def csn_params(cfg: NeckConfig) -> ParamStore:
    store = ParamStore(fold_seed(cfg.seed, "csn"))
    d = cfg.d
    store.conv("aggregate/reduce", d, d + 4 * cfg.shift_block, 1, 1)
    store.norm("aggregate/norm", d)
    store.conv("aggregate/project", d, d, 1, 1, zero=True)  # identity at init
    store.conv("context/scale/mid", d, d, 1, 1)
    store.conv("context/scale/out", d, d, 1, 1, zero=True)  # identity at init
    store.conv("context/spatial/mid", d, d, 1, 1)
    store.conv("context/spatial/out", d, d, 1, 1, zero=True)  # identity at init
    return store


# ---------------------------------------------------------------------------
# resizing between pyramid levels and the reference resolution


def _resize_down(x: Tensor, times: int) -> Tensor:
    for _ in range(times):
        x = maxpool2d(x)
    return x


def _resize_up(x: Tensor, times: int) -> Tensor:
    for _ in range(times):
        x = bilinear_upsample_x2(x)
    return x


def gather_to_reference(P: FeaturePyramid, k: int) -> Tensor:
    """Stack every level at level k's resolution: [N, d, n, h_k, w_k].

    Finer levels (i < k) are max-pooled down k-i times; coarser levels
    (i > k) are bilinearly upsampled i-k times; level k is copied.
    """
    if k not in P:
        raise ValueError(f"gather_to_reference: reference level {k} not in {P.levels}")
    n, d = P[k].shape[0], P[k].shape[1]
    hk, wk = P[k].shape[2], P[k].shape[3]
    slices = []
    for i in P.levels:
        if P[i].shape[1] != d:
            raise ValueError(f"gather_to_reference: level {i} has {P[i].shape[1]} channels, not {d}")
        x = _resize_down(P[i], k - i) if i < k else _resize_up(P[i], i - k)
        slices.append(reshape(x, (n, d, 1, hk, wk)))
    return concat(slices, 2)


def scale_shift(S: Tensor, block: int) -> Tensor:
    """Circulant shift along the scale axis: pure copies, zero arithmetic.

    Output channel layout is [all d originals | block at -2 | -1 | +1 | +2],
    where the block for offset o at scale s holds the source channels read
    from scale (s + o) mod n. The neck passes `cfg.shift_block`, d / (4r)
    channels; offset number b moves channels [b*block, (b+1)*block).
    """
    if S.ndim != 5 or block < 1 or 4 * block > S.shape[1]:
        raise ValueError(f"scale_shift: 4 blocks of {block} channels do not fit stack {S.shape}")
    parts = [S]
    for b, off in enumerate(SHIFT_OFFSETS):
        parts.append(roll(narrow(S, 1, b * block, block), -off, 2))
    return concat(parts, 1)


def shift_aggregate(S: Tensor, params: ParamStore, block: int) -> Tensor:
    """Shift the stack, reduce the widened stack back to d channels, add S.

    scale_shift by `block`, conv 1x1 (d + 4*block -> d), norm + relu, conv
    1x1 (d -> d); the second conv is zero-initialized, so at init this is
    exactly the identity on S. The residual reads S itself, so the widened
    stack is freed once the reduce conv has read it. Every op after the
    shift treats each (scale, pixel) position alike, so they run on a
    [N, C, n*h, w] view of the stack.
    """
    with counting.scope("scale_shift"):
        x = scale_shift(S, block)
    n_, c, s, h, w = x.shape
    if c != params["aggregate/reduce/weight"].shape[1]:
        raise ValueError(
            f"shift_aggregate: {c} channels after the shift, "
            f"expected {params['aggregate/reduce/weight'].shape[1]}"
        )
    x = reshape(x, (n_, c, s * h, w))
    with counting.scope("aggregate/reduce"):
        x = conv2d(x, params["aggregate/reduce/weight"], params["aggregate/reduce/bias"])
    with counting.scope("aggregate/norm"):
        x = channel_norm(x, params["aggregate/norm/gamma"], params["aggregate/norm/beta"])
        x = relu(x)
    with counting.scope("aggregate/project"):
        x = conv2d(x, params["aggregate/project/weight"], params["aggregate/project/bias"])
    return add(S, reshape(x, S.shape))


def dual_global_context(Y: Tensor, params: ParamStore) -> Tensor:
    """Add pooled scale-axis and spatial-axis context back onto the stack.

    Each branch pools one axis group away, mixes channels with a 1x1 conv,
    reweights the stack with a count-rescaled softmax (mean weight exactly
    1), pools the other axis group, and projects through a zero-initialized
    1x1 conv before rejoining the main stream.
    """
    n_, d, s, h, w = Y.shape

    # scale branch: spatial pooling, channel context, softmax over scales
    x = global_avg_pool(Y)  # [N, d, n, 1, 1]
    with counting.scope("context/scale/mid"):
        x = conv2d(
            reshape(x, (n_, d, s, 1)),
            params["context/scale/mid/weight"],
            params["context/scale/mid/bias"],
        )
    x = scale(softmax(x, (2,)), float(s))
    counting.probe("scale_weights", x)
    x = tmean(mul(Y, reshape(x, (n_, d, s, 1, 1))), (2,))  # [N, d, h, w]
    with counting.scope("context/scale/out"):
        x = conv2d(x, params["context/scale/out/weight"], params["context/scale/out/bias"])
    out1 = reshape(x, (n_, d, 1, h, w))

    # spatial branch: scale pooling, channel context, softmax over positions
    x = tmean(Y, (2,))  # [N, d, h, w]
    with counting.scope("context/spatial/mid"):
        x = conv2d(x, params["context/spatial/mid/weight"], params["context/spatial/mid/bias"])
    x = scale(softmax(x, (2, 3)), float(h * w))
    counting.probe("spatial_weights", x)
    x = global_avg_pool(mul(Y, reshape(x, (n_, d, 1, h, w))))  # [N, d, n, 1, 1]
    with counting.scope("context/spatial/out"):
        x = conv2d(
            reshape(x, (n_, d, s, 1)),
            params["context/spatial/out/weight"],
            params["context/spatial/out/bias"],
        )
    out2 = reshape(x, (n_, d, s, 1, 1))

    return add(add(Y, out1), out2)


def scatter_and_combine(Yc: Tensor, P: FeaturePyramid, k: int) -> FeaturePyramid:
    """Resize each scale slice back to its level and add it onto P."""
    levels = P.levels
    if Yc.shape[2] != len(levels):
        raise ValueError(
            f"scatter_and_combine: stack has {Yc.shape[2]} scales for {len(levels)} levels"
        )
    n_, d, _, hk, wk = Yc.shape
    out = {}
    for s, i in enumerate(levels):
        x = reshape(narrow(Yc, 2, s, 1), (n_, d, hk, wk))
        x = _resize_up(x, k - i) if i < k else _resize_down(x, i - k)
        out[i] = add(P[i], x)
    return FeaturePyramid(out)


def csn_forward(P: FeaturePyramid, cfg: NeckConfig, params: ParamStore) -> FeaturePyramid:
    """gather -> shift -> aggregate -> context -> scatter, one pure function."""
    for i in cfg.levels():
        if i not in P:
            raise ValueError(f"csn_forward: input pyramid is missing level {i}")
    with counting.scope("gather"):
        x = gather_to_reference(P, cfg.k)
    x = shift_aggregate(x, params, cfg.shift_block)
    x = dual_global_context(x, params)
    with counting.scope("scatter"):
        return scatter_and_combine(x, P, cfg.k)


def rcnet_forward(
    C: FeaturePyramid, cfg: NeckConfig, revfp_store: ParamStore, csn_store: ParamStore
) -> FeaturePyramid:
    """Full neck: bottom-up fusion, then cross-scale exchange added on top."""
    P = revfp_forward(C, revfp_store, cfg)
    return csn_forward(P, cfg, csn_store)
