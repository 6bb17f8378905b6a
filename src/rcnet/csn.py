"""Cross-scale exchange: stack all levels, shift channels, model context.

The pyramid is resized to one reference resolution and stacked along a
scale axis. A circulant channel shift then moves four channel blocks to
offsets -2, -1, +1, +2 along that axis (wrapping at the ends) and glues
the moved blocks back by concatenation, so every level sees both its
neighbours and non-neighbours at zero arithmetic cost. Two 1x1 convs
aggregate the widened stack back to width d with a residual from the
original stack, a dual (scale + spatial) attention adds pooled global
context, and the result is resized back and added to the input pyramid.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    transpose,
)


@dataclass(frozen=True)
class ShiftPlan:
    """Channel partition for the scale shift.

    Offset number b (of the four in SHIFT_OFFSETS) moves channels
    [b*block, (b+1)*block); the remaining d - 4*block channels stay put.
    block = 0 is the degenerate no-shift plan used by tests.
    """

    d: int
    block: int

    def __post_init__(self):
        if self.block < 0 or 4 * self.block > self.d:
            raise ValueError(f"shift plan: 4*block={4 * self.block} exceeds d={self.d}")

    @classmethod
    def for_config(cls, cfg: NeckConfig) -> "ShiftPlan":
        if cfg.d % (4 * cfg.r):
            raise ValueError(f"shift plan: d={cfg.d} not divisible by 4*r={4 * cfg.r}")
        return cls(cfg.d, cfg.shift_block)

    @property
    def shifted_channels(self) -> int:
        return 4 * self.block


def csn_params(cfg: NeckConfig) -> ParamStore:
    store = ParamStore(fold_seed(cfg.seed, "csn"))
    d = cfg.d
    extra = ShiftPlan.for_config(cfg).shifted_channels
    store.conv("aggregate/reduce", d, d + extra, 1, 1)
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
        x = maxpool2d(x, 2, 2)
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


def scale_shift(S: Tensor, plan: ShiftPlan) -> Tensor:
    """Circulant shift along the scale axis: pure copies, zero arithmetic.

    Output channel layout is [all d originals | block at -2 | -1 | +1 | +2],
    where the block for offset o at scale s holds the source channels read
    from scale (s + o) mod n.
    """
    if S.ndim != 5 or S.shape[1] != plan.d:
        raise ValueError(f"scale_shift: stack shape {S.shape} does not match plan d={plan.d}")
    if plan.block == 0:
        return S
    parts = [S]
    for b, off in enumerate(SHIFT_OFFSETS):
        blk = narrow(S, 1, b * plan.block, plan.block)
        parts.append(roll(blk, -off, 2))
    return concat(parts, 1)


def _fold_scales(x: Tensor):
    """[N, C, n, h, w] -> [N*n, C, h, w] so 2-D convs apply per scale slice."""
    n_, c, s, h, w = x.shape
    return reshape(transpose(x, (0, 2, 1, 3, 4)), (n_ * s, c, h, w)), (n_, s, h, w)


def _unfold_scales(x: Tensor, dims) -> Tensor:
    n_, s, h, w = dims
    return transpose(reshape(x, (n_, s, x.shape[1], h, w)), (0, 2, 1, 3, 4))


def shift_aggregate(shifted: Tensor, params: ParamStore, d: int) -> Tensor:
    """Reduce the widened stack back to d channels and add the original stack.

    conv 1x1 (d+shifted -> d), norm + relu, conv 1x1 (d -> d); the second
    conv is zero-initialized, so at init this is exactly the identity on
    the pre-shift stack.
    """
    if shifted.shape[1] != params["aggregate/reduce/weight"].shape[1]:
        raise ValueError(
            f"shift_aggregate: {shifted.shape[1]} channels, "
            f"expected {params['aggregate/reduce/weight'].shape[1]}"
        )
    original = narrow(shifted, 1, 0, d)  # residual source: the pre-shift stack
    x, dims = _fold_scales(shifted)
    with counting.scope("aggregate/reduce"):
        x = conv2d(x, params["aggregate/reduce/weight"], params["aggregate/reduce/bias"])
    with counting.scope("aggregate/norm"):
        x = relu(channel_norm(x, params["aggregate/norm/gamma"], params["aggregate/norm/beta"]))
    with counting.scope("aggregate/project"):
        x = conv2d(x, params["aggregate/project/weight"], params["aggregate/project/bias"])
    return add(original, _unfold_scales(x, dims))


def dual_global_context(Y: Tensor, params: ParamStore) -> Tensor:
    """Add pooled scale-axis and spatial-axis context back onto the stack.

    Each branch pools one axis group away, mixes channels with a 1x1 conv,
    reweights the stack with a count-rescaled softmax (mean weight exactly
    1), pools the other axis group, and projects through a zero-initialized
    1x1 conv before rejoining the main stream.
    """
    n_, d, s, h, w = Y.shape

    # scale branch: spatial pooling, channel context, softmax over scales
    u = global_avg_pool(Y)  # [N, d, n, 1, 1]
    with counting.scope("context/scale/mid"):
        v = conv2d(
            reshape(u, (n_, d, s, 1)),
            params["context/scale/mid/weight"],
            params["context/scale/mid/bias"],
        )
    a = scale(softmax(v, (2,)), float(s))
    counting.probe("scale_weights", a)
    y1 = mul(Y, reshape(a, (n_, d, s, 1, 1)))
    z = tmean(y1, (2,))  # [N, d, h, w]
    with counting.scope("context/scale/out"):
        o1 = conv2d(z, params["context/scale/out/weight"], params["context/scale/out/bias"])
    out1 = reshape(o1, (n_, d, 1, h, w))

    # spatial branch: scale pooling, channel context, softmax over positions
    m = tmean(Y, (2,))  # [N, d, h, w]
    with counting.scope("context/spatial/mid"):
        v2 = conv2d(m, params["context/spatial/mid/weight"], params["context/spatial/mid/bias"])
    a2 = scale(softmax(v2, (2, 3)), float(h * w))
    counting.probe("spatial_weights", a2)
    y2 = mul(Y, reshape(a2, (n_, d, 1, h, w)))
    z2 = global_avg_pool(y2)  # [N, d, n, 1, 1]
    with counting.scope("context/spatial/out"):
        o2 = conv2d(
            reshape(z2, (n_, d, s, 1)),
            params["context/spatial/out/weight"],
            params["context/spatial/out/bias"],
        )
    out2 = reshape(o2, (n_, d, s, 1, 1))

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
    plan = ShiftPlan.for_config(cfg)
    with counting.scope("gather"):
        S = gather_to_reference(P, cfg.k)
    with counting.scope("scale_shift"):
        shifted = scale_shift(S, plan)
    Y = shift_aggregate(shifted, params, cfg.d)
    Yc = dual_global_context(Y, params)
    with counting.scope("scatter"):
        return scatter_and_combine(Yc, P, cfg.k)


def rcnet_forward(
    C: FeaturePyramid, cfg: NeckConfig, revfp_store: ParamStore, csn_store: ParamStore
) -> FeaturePyramid:
    """Full neck: bottom-up fusion, then cross-scale exchange added on top."""
    P = revfp_forward(C, revfp_store, cfg)
    return csn_forward(P, cfg, csn_store)
