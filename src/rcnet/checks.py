"""Named structural and gradient checks the harness runs.

Every check is a pure function of the config returning a CheckResult; the
CLI turns a list of results into a report and an exit code. Tolerances
are pinned here, not configurable: exactness claims are checked at 0 or
1e-12, statistics at their stated bounds, gradients at 1e-4.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass

import numpy as np

from . import counting
from .bench import dense_circulant_conv, scalar_kernel, shift_weighted_sum
from .config import NeckConfig
from .csn import (
    ShiftPlan,
    csn_forward,
    csn_params,
    dual_global_context,
    rcnet_forward,
    scale_shift,
    shift_aggregate,
)
from .fixtures import extend_stem, prepare_inputs, synth_backbone
from .fpn import fpn_forward, fpn_params
from .gradcheck import check_gradients
from .params import ParamStore
from .pyramid import FeaturePyramid, load_pyramid, pyramid_digest, save_pyramid
from .revfp import FguSite, feature_guided_upsample, revfp_forward, revfp_params
from .rng import SplitMix64, fold_seed
from .tensor import (
    Tensor,
    add,
    add_scalar,
    bilinear_upsample_x2,
    broadcast_to,
    channel_norm,
    concat,
    conv2d,
    div,
    exp,
    global_avg_pool,
    maxpool2d,
    mul,
    narrow,
    pad2d,
    relu,
    reshape,
    roll,
    scale,
    sigmoid,
    softmax,
    sqrt,
    sub,
    tmean,
    transpose,
    tsum,
)

#: bias large enough that the sigmoid gate underflows to exactly 1.0,
#: severing the bottom-up chain bitwise for the locality probe
SEVER_BIAS = 1000.0


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float | str
    tolerance: float | str

    def to_dict(self) -> dict:
        def plain(v):
            return float(v) if isinstance(v, (int, float, np.floating)) and not isinstance(v, bool) else v

        return {
            "pass": bool(self.passed),
            "measured": plain(self.measured),
            "tolerance": plain(self.tolerance),
        }


def _stream(cfg: NeckConfig, label: str) -> SplitMix64:
    return SplitMix64(fold_seed(cfg.seed, label))


def _rand(cfg: NeckConfig, label: str, shape) -> Tensor:
    return Tensor(_stream(cfg, label).standard_normal(tuple(shape)))


def _bump(pyr: FeaturePyramid, level: int) -> FeaturePyramid:
    data = pyr[level].data.copy()
    data[(0,) * data.ndim] += 1.0
    return pyr.with_level(level, Tensor(data))


def _max_diff(a: FeaturePyramid, b: FeaturePyramid, level: int) -> float:
    return float(np.max(np.abs(a[level].data - b[level].data)))


def tiny_gradcheck_config(seed: int = 7) -> NeckConfig:
    """Narrow config the finite-difference sweeps run at.

    batch must be 2: the top pyramid level is 1x1 at this base resolution,
    and single-sample 1x1 maps leave the normalization variance undefined.
    """
    return NeckConfig(
        l_min=3,
        l_max=7,
        d=8,
        backbone_channels=(8, 12, 16),
        r=2,
        k=4,
        batch=2,
        base_resolution=(16, 16),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# structural invariants


def check_fgu_mean_weight(cfg: NeckConfig, trials: int = 10) -> CheckResult:
    """Spatial attention weights must average to exactly 1 at every level."""
    worst = 0.0
    for i in range(cfg.l_min, cfg.l_max):
        h, w = cfg.resolution(i)
        for t in range(trials):
            tag = f"fgu_check/{i}/{t}"
            fine = _rand(cfg, tag + "/fine", (cfg.batch, cfg.d, h, w))
            coarse = _rand(cfg, tag + "/coarse", (cfg.batch, cfg.d, h // 2, w // 2))
            site = FguSite(
                _rand(cfg, tag + "/w", (1, 2 * cfg.d, 3, 3)),
                _rand(cfg, tag + "/b", (1,)),
                _rand(cfg, tag + "/T", (1,)),
            )
            with counting.probes() as seen:
                feature_guided_upsample(fine, coarse, site)
            weights = seen["weights"].data
            worst = max(worst, float(np.max(np.abs(weights.mean(axis=(2, 3)) - 1.0))))
    return CheckResult("fgu_mean_weight", worst <= 1e-12, worst, 1e-12)


def _revfp_probes(cfg: NeckConfig, seed_label: str = "convexity"):
    store = revfp_params(cfg)
    data_cfg = cfg.replace(seed=fold_seed(cfg.seed, seed_label) % 2**64)
    C = prepare_inputs(data_cfg, store)
    with counting.probes() as seen:
        out = revfp_forward(C, store, cfg)
    return C, store, seen, out


def check_fusion_convexity(cfg: NeckConfig) -> CheckResult:
    """Pre-conv blends stay inside the elementwise envelope of their operands."""
    _, _, seen, _ = _revfp_probes(cfg)
    worst = 0.0
    for key, operands in seen.items():  # one "{pre,post}/{i}/operands" key per fusion site
        if not key.endswith("/operands"):
            continue
        blend = seen[key.removesuffix("operands") + "blend"].data
        a, b = (t.data for t in operands)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        over = np.max((blend - hi) / np.maximum(1.0, np.abs(hi)))
        under = np.max((lo - blend) / np.maximum(1.0, np.abs(lo)))
        worst = max(worst, float(over), float(under), 0.0)
    return CheckResult("fusion_convexity", worst <= 1e-12, worst, 1e-12)


def check_boundary_rules(cfg: NeckConfig) -> CheckResult:
    """Bottom output equals its pre-fusion map; top pre-fusion map equals
    the lateral projection of the top input. Both bitwise."""
    C, store, seen, out = _revfp_probes(cfg, "boundary")
    bottom_ok = np.array_equal(out[cfg.l_min].data, seen[f"p_prime/{cfg.l_min}"].data)
    lat = conv2d(
        C[cfg.l_max],
        store[f"lateral/{cfg.l_max}/weight"],
        store[f"lateral/{cfg.l_max}/bias"],
    )
    top_ok = np.array_equal(seen[f"p_prime/{cfg.l_max}"].data, lat.data)
    ok = bottom_ok and top_ok
    return CheckResult(
        "boundary_rules", ok, f"bottom={bottom_ok} top={top_ok}", "bitwise equality"
    )


def check_fpn_unidirectional(cfg: NeckConfig) -> CheckResult:
    """Perturbing a low stage never reaches a higher output (bitwise), while
    perturbing a high stage reaches every lower output."""
    store = fpn_params(cfg)
    C = prepare_inputs(cfg, store)
    base = fpn_forward(C, store, cfg)
    leak = 0.0
    min_reach = float("inf")
    for j in cfg.levels():
        perturbed = fpn_forward(_bump(C, j), store, cfg)
        for i in cfg.levels():
            diff = _max_diff(base, perturbed, i)
            if i > j:
                leak = max(leak, diff)
            elif i < j:
                min_reach = min(min_reach, diff)
    ok = leak == 0.0 and min_reach > 0.0
    return CheckResult(
        "fpn_unidirectional", ok, f"upward_leak={leak} min_downward={min_reach:.3e}", "leak == 0"
    )


def check_revfp_bidirectional(cfg: NeckConfig) -> CheckResult:
    """Information moves both ways: the bottom stage reaches the top output
    through the bottom-up chain, and every stage reaches the output one
    level below it through its local top-down connection."""
    store = revfp_params(cfg)
    C = prepare_inputs(cfg, store)
    base = revfp_forward(C, store, cfg)
    up = _max_diff(base, revfp_forward(_bump(C, cfg.l_min), store, cfg), cfg.l_max)
    min_down = float("inf")
    for j in range(cfg.l_min + 1, cfg.l_max + 1):
        min_down = min(
            min_down, _max_diff(base, revfp_forward(_bump(C, j), store, cfg), j - 1)
        )
    ok = up > 0.0 and min_down > 0.0
    return CheckResult(
        "revfp_bidirectional",
        ok,
        f"low_to_high={up:.3e} min_adjacent_down={min_down:.3e}",
        "> 0 both ways",
    )


def check_csn_nonadjacent_reach(cfg: NeckConfig) -> CheckResult:
    """The cross-scale module is what carries the top level all the way down:
    perturbing P at l_max must change the combined output at l_min.

    The zero-initialized projections are randomized first (at init the
    module is an identity and the probe would be vacuous), and the bump
    lands in the offset -1 channel block, which the shift routes from the
    top scale directly onto the bottom one.
    """
    d = cfg.d
    store = csn_params(cfg).with_overrides(
        aggregate__project__weight=_stream(cfg, "reach/proj").standard_normal((d, d, 1, 1)),
        context__scale__out__weight=_stream(cfg, "reach/sout").standard_normal((d, d, 1, 1)),
        context__spatial__out__weight=_stream(cfg, "reach/pout").standard_normal((d, d, 1, 1)),
    )
    tensors = {
        i: _rand(cfg, f"reach/P{i}", (cfg.batch, cfg.d) + cfg.resolution(i))
        for i in cfg.levels()
    }
    P = FeaturePyramid(tensors)
    top = P[cfg.l_max].data.copy()
    top[0, cfg.shift_block, 0, 0] += 1.0
    base = csn_forward(P, cfg, store)
    moved = csn_forward(P.with_level(cfg.l_max, Tensor(top)), cfg, store)
    diff = _max_diff(base, moved, cfg.l_min)
    return CheckResult("csn_nonadjacent_reach", diff > 0.0, diff, "> 0")


def _severed_store(store: ParamStore, cfg: NeckConfig) -> ParamStore:
    overrides = {}
    for i in range(cfg.l_min + 1, cfg.l_max + 1):
        overrides[f"post__{i}__head__bias"] = np.full((1,), SEVER_BIAS)
    return store.with_overrides(**overrides)


def check_revfp_locality(cfg: NeckConfig) -> CheckResult:
    """With post-fusion gates forced to exactly 1 the bottom-up chain is cut,
    so a perturbed stage j may only influence outputs j-1 and j."""
    store = _severed_store(revfp_params(cfg), cfg)
    C = prepare_inputs(cfg, store)
    base = revfp_forward(C, store, cfg)
    ok = True
    detail = []
    for j in cfg.stage_levels():  # stem levels derive from C5; bump stages only
        perturbed = revfp_forward(_bump(C, j), store, cfg)
        for i in cfg.levels():
            diff = _max_diff(base, perturbed, i)
            expect = i in (j - 1, j)
            if expect != (diff > 0.0):
                ok = False
                detail.append(f"C{j}->P{i}: diff={diff:.3e} expected_change={expect}")
    return CheckResult(
        "revfp_locality", ok, "; ".join(detail) if detail else "reach is {j-1, j} for all j",
        "exact reach set",
    )


def check_shift_routing(cfg: NeckConfig) -> CheckResult:
    """For levels 3..7 the level-6 slice must receive blocks from levels
    4, 5, 7, and 3 (wrapping) at offsets -2, -1, +1, +2."""
    plan = ShiftPlan(cfg.d, max(cfg.shift_block, 1))
    levels = list(range(3, 8))
    n = len(levels)
    S = _rand(cfg, "routing/stack", (1, cfg.d, n, 4, 4))
    shifted = scale_shift(S, plan)
    s_out = levels.index(6)
    expected_sources = {-2: 4, -1: 5, 1: 7, 2: 3}
    worst = 0.0
    for b, off in enumerate((-2, -1, 1, 2)):
        src_scale = levels.index(expected_sources[off])
        got = shifted.data[:, cfg.d + b * plan.block : cfg.d + (b + 1) * plan.block, s_out]
        want = S.data[:, b * plan.block : (b + 1) * plan.block, src_scale]
        worst = max(worst, float(np.max(np.abs(got - want))))
    return CheckResult("shift_routing", worst == 0.0, worst, 0.0)


def check_shift_equivariance(cfg: NeckConfig) -> CheckResult:
    """scale_shift commutes with rotations of the scale axis, exactly."""
    plan = ShiftPlan(cfg.d, max(cfg.shift_block, 1))
    n = cfg.num_levels
    S = _rand(cfg, "equivariance/stack", (1, cfg.d, n, 3, 3))
    worst = 0.0
    for t in range(n):
        a = scale_shift(roll(S, t, 2), plan).data
        b = np.roll(scale_shift(S, plan).data, t, axis=2)
        worst = max(worst, float(np.max(np.abs(a - b))))
    return CheckResult("shift_equivariance", worst == 0.0, worst, 0.0)


def count_checks(report: counting.CountReport) -> dict[str, CheckResult]:
    """The checks of one count report: each module total equals the sum of
    the rows under that module, and the shift is billed 0 params, 0 MACs."""
    sums: dict[str, dict[str, int]] = {}
    for name, row in report.rows.items():
        acc = sums.setdefault(name.split("/", 1)[0], {"params": 0, "macs": 0})
        acc["params"] += row.params
        acc["macs"] += row.macs
    totals = report.module_totals()
    row = report.rows.get("csn/scale_shift")
    shift_ok = row is not None and row.params == 0 and row.macs == 0
    shift = "row missing" if row is None else f"params={row.params} macs={row.macs}"
    checks = [
        CheckResult("count_totals_consistent", sums == totals, str(totals), "totals == sum of rows"),
        CheckResult("shift_zero_cost", shift_ok, shift, "params == 0 and macs == 0"),
    ]
    return {c.name: c for c in checks}


def check_shift_zero_cost(cfg: NeckConfig) -> CheckResult:
    """The counting trace must bill the shift 0 parameters and 0 MACs.

    Only the csn forward is counted, on a random pyramid at the config's
    shapes: its rows are those of `count_all`'s csn module.
    """
    shape = (cfg.batch, cfg.d)
    P = FeaturePyramid(
        {i: _rand(cfg, f"shift_cost/{i}", shape + cfg.resolution(i)) for i in cfg.levels()}
    )
    report = counting.CountReport()
    with counting.collect(report, "csn"):
        csn_forward(P, cfg, csn_params(cfg))
    return count_checks(report)["shift_zero_cost"]


def check_shift_sum_dense_equal(cfg: NeckConfig) -> CheckResult:
    """Scalar-weight shift-sum equals the dense five-tap circulant conv."""
    d = 16
    S = _rand(cfg, "shift_sum/stack", (1, d, 5, 8, 8))
    weights = _stream(cfg, "shift_sum/weights").standard_normal((5,))
    via_shift = shift_weighted_sum(S, weights).data
    via_dense = dense_circulant_conv(S.data, scalar_kernel(d, weights))
    worst = float(np.max(np.abs(via_shift - via_dense)))
    return CheckResult("shift_sum_dense_equal", worst <= 1e-12, worst, 1e-12)


def check_aggregate_identity_init(cfg: NeckConfig) -> CheckResult:
    """Zero-initialized projection makes shift aggregation an exact identity."""
    store = csn_params(cfg)
    plan = ShiftPlan.for_config(cfg)
    hk, wk = cfg.resolution(cfg.k)
    S = _rand(cfg, "agg_init/stack", (cfg.batch, cfg.d, cfg.num_levels, hk, wk))
    out = shift_aggregate(scale_shift(S, plan), store, cfg.d)
    ok = np.array_equal(out.data, S.data)
    return CheckResult("aggregate_identity_init", ok, float(np.max(np.abs(out.data - S.data))), 0.0)


def check_context_identity_init(cfg: NeckConfig) -> CheckResult:
    """Zero-initialized output projections make the context module an identity."""
    store = csn_params(cfg)
    hk, wk = cfg.resolution(cfg.k)
    Y = _rand(cfg, "ctx_init/stack", (cfg.batch, cfg.d, cfg.num_levels, hk, wk))
    out = dual_global_context(Y, store)
    ok = np.array_equal(out.data, Y.data)
    return CheckResult("context_identity_init", ok, float(np.max(np.abs(out.data - Y.data))), 0.0)


def check_context_mean_weight(cfg: NeckConfig) -> CheckResult:
    """Both context reweightings average to exactly 1 along their axis."""
    store = csn_params(cfg)
    hk, wk = cfg.resolution(cfg.k)
    Y = _rand(cfg, "ctx_mean/stack", (cfg.batch, cfg.d, cfg.num_levels, hk, wk))
    with counting.probes() as seen:
        dual_global_context(Y, store)
    a = seen["scale_weights"].data
    a2 = seen["spatial_weights"].data
    worst = max(
        float(np.max(np.abs(a.mean(axis=2) - 1.0))),
        float(np.max(np.abs(a2.mean(axis=(2, 3)) - 1.0))),
    )
    return CheckResult("context_mean_weight", worst <= 1e-12, worst, 1e-12)


def _resize_chain(x: Tensor, level: int, k: int, direction: str) -> Tensor:
    # independent composition of the audited resizers, used as the oracle
    if direction == "to_reference":
        steps, down = abs(k - level), level < k
    else:
        steps, down = abs(k - level), level > k
    for _ in range(steps):
        x = maxpool2d(x, 2, 2) if down else bilinear_upsample_x2(x)
    return x


def check_csn_init_roundtrip(cfg: NeckConfig) -> CheckResult:
    """At init the whole cross-scale module reduces to adding the
    resize-roundtrip of each level back onto itself."""
    store = csn_params(cfg)
    tensors = {}
    for i in cfg.levels():
        h, w = cfg.resolution(i)
        tensors[i] = _rand(cfg, f"roundtrip/P{i}", (cfg.batch, cfg.d, h, w))
    P = FeaturePyramid(tensors)
    out = csn_forward(P, cfg, store)
    worst = 0.0
    for i in cfg.levels():
        through_k = _resize_chain(P[i], i, cfg.k, "to_reference")
        back = _resize_chain(through_k, i, cfg.k, "from_reference")
        expect = P[i].data + back.data
        worst = max(worst, float(np.max(np.abs(out[i].data - expect))))
    return CheckResult("csn_init_roundtrip", worst <= 1e-12, worst, 1e-12)


def check_norm_standardization(cfg: NeckConfig) -> CheckResult:
    """With unit gain and zero shift the output is standardized per channel
    up to the eps shrinkage of the variance."""
    eps = 1e-5
    x = _rand(cfg, "norm/x", (2, 4, 6, 5))
    out = channel_norm(
        x, Tensor(np.ones(4), requires_grad=False), Tensor(np.zeros(4)), eps
    ).data
    mean_err = float(np.max(np.abs(out.mean(axis=(0, 2, 3)))))
    var = x.data.var(axis=(0, 2, 3))
    expect_var = var / (var + eps)
    var_err = float(np.max(np.abs(out.var(axis=(0, 2, 3)) - expect_var)))
    ok = mean_err <= 1e-10 and var_err <= 1e-6
    return CheckResult(
        "norm_standardization", ok, f"mean={mean_err:.2e} var={var_err:.2e}", "1e-10 / 1e-6"
    )


def check_constant_preservation(cfg: NeckConfig) -> CheckResult:
    """Resizers and pooling map constant maps to the same constant."""
    c = 0.73125
    x = Tensor(np.full((1, 2, 4, 4), c))
    outs = [
        bilinear_upsample_x2(x).data,
        maxpool2d(x, 2, 2).data,
        global_avg_pool(x).data,
    ]
    worst = max(float(np.max(np.abs(o - c))) for o in outs)
    return CheckResult("constant_preservation", worst == 0.0, worst, 0.0)


def check_softmax_simplex(cfg: NeckConfig) -> CheckResult:
    """Softmax outputs are strictly positive and sum to 1 over the axis set."""
    x = _rand(cfg, "softmax/x", (2, 3, 7, 5))
    out = softmax(x, (2, 3)).data
    sums = out.sum(axis=(2, 3))
    worst = float(np.max(np.abs(sums - 1.0)))
    ok = worst <= 1e-12 and bool(np.all(out > 0.0))
    return CheckResult("softmax_simplex", ok, worst, 1e-12)


def check_determinism_forward(cfg: NeckConfig) -> CheckResult:
    """Two identically-seeded full forwards produce identical digests."""
    digests = []
    for _ in range(2):
        rp = revfp_params(cfg)
        cp = csn_params(cfg)
        C = prepare_inputs(cfg, rp)
        digests.append(pyramid_digest(rcnet_forward(C, cfg, rp, cp)))
    ok = digests[0] == digests[1]
    return CheckResult("determinism_forward", ok, digests[0][:16], "equal digests")


def check_container_roundtrip(cfg: NeckConfig) -> CheckResult:
    """Save/load is bit-exact."""
    pyr = synth_backbone(cfg)
    fd, path = tempfile.mkstemp(suffix=".fpz")
    os.close(fd)
    try:
        save_pyramid(path, pyr, seed=cfg.seed, config=cfg.to_dict())
        back = load_pyramid(path)
    finally:
        os.unlink(path)
    ok = pyr.equal_bitwise(back)
    return CheckResult("container_roundtrip", ok, "bitwise equal" if ok else "mismatch", "bitwise")


INVARIANT_CHECKS = {
    "fgu_mean_weight": check_fgu_mean_weight,
    "fusion_convexity": check_fusion_convexity,
    "boundary_rules": check_boundary_rules,
    "fpn_unidirectional": check_fpn_unidirectional,
    "revfp_bidirectional": check_revfp_bidirectional,
    "revfp_locality": check_revfp_locality,
    "csn_nonadjacent_reach": check_csn_nonadjacent_reach,
    "shift_routing": check_shift_routing,
    "shift_equivariance": check_shift_equivariance,
    "shift_zero_cost": check_shift_zero_cost,
    "shift_sum_dense_equal": check_shift_sum_dense_equal,
    "aggregate_identity_init": check_aggregate_identity_init,
    "context_identity_init": check_context_identity_init,
    "context_mean_weight": check_context_mean_weight,
    "csn_init_roundtrip": check_csn_init_roundtrip,
    "norm_standardization": check_norm_standardization,
    "constant_preservation": check_constant_preservation,
    "softmax_simplex": check_softmax_simplex,
    "determinism_forward": check_determinism_forward,
    "container_roundtrip": check_container_roundtrip,
}


class SelectionError(ValueError):
    """A check selection that is empty or names an unknown check."""


def select_checks(names: list[str] | None, available: list[str]) -> list[str]:
    """The checks to run: all of `available` when `names` is None.

    An empty selection or an unknown name raises `SelectionError`, so a
    typo can never pass by running nothing.
    """
    if names is None:
        return list(available)
    if not names:
        raise SelectionError(f"empty check selection; available: {available}")
    unknown = [n for n in names if n not in available]
    if unknown:
        raise SelectionError(f"unknown checks: {unknown}; available: {available}")
    return names


def run_invariants(cfg: NeckConfig, names: list[str] | None = None) -> list[CheckResult]:
    return [INVARIANT_CHECKS[n](cfg) for n in select_checks(names, list(INVARIANT_CHECKS))]


# ---------------------------------------------------------------------------
# gradient suite


def _op_cases(seed: int):
    """Small random graphs, one per primitive op, for the FD sweep."""
    s = SplitMix64(seed)

    def t(shape, nudge=0.0, positive=False, name=None):
        data = s.standard_normal(shape)
        if positive:
            data = np.abs(data) + 0.5
        if nudge:
            data = data + nudge * np.sign(data + 1e-12)
        return Tensor(data, requires_grad=True, name=name)

    cases = {}
    a = t((2, 3, 4), name="a")
    b = t((1, 3, 1), name="b")
    cases["add"] = (lambda: add(a, b), [a, b])
    cases["sub"] = (lambda: sub(a, b), [a, b])
    cases["mul"] = (lambda: mul(a, b), [a, b])
    bd = t((1, 3, 1), positive=True, name="b_denom")
    cases["div"] = (lambda: div(a, bd), [a, bd])
    cases["scale"] = (lambda: scale(a, -1.7), [a])
    cases["add_scalar"] = (lambda: add_scalar(a, 2.5), [a])
    e = t((2, 3), name="e")
    cases["exp"] = (lambda: exp(e), [e])
    sq = t((2, 3), positive=True, name="sq")
    cases["sqrt"] = (lambda: sqrt(sq), [sq])
    sg = t((2, 3), name="sg")
    cases["sigmoid"] = (lambda: sigmoid(sg), [sg])
    rl = t((2, 3, 4), nudge=0.05, name="rl")
    cases["relu"] = (lambda: relu(rl), [rl])
    cases["sum"] = (lambda: tsum(a, (1,), keepdims=True), [a])
    cases["mean"] = (lambda: tmean(a, (0, 2)), [a])
    c1, c2 = t((1, 2, 3, 3), name="c1"), t((1, 4, 3, 3), name="c2")
    cases["concat"] = (lambda: concat([c1, c2], 1), [c1, c2])
    cases["narrow"] = (lambda: narrow(a, 1, 1, 2), [a])
    cases["roll"] = (lambda: roll(a, 2, 1), [a])
    cases["reshape"] = (lambda: reshape(a, (6, 4)), [a])
    cases["transpose"] = (lambda: transpose(a, (2, 0, 1)), [a])
    cases["broadcast_to"] = (lambda: broadcast_to(b, (2, 3, 4)), [b])
    p = t((1, 2, 3, 3), name="p")
    cases["pad2d"] = (lambda: pad2d(p, 1, 0, 2, 1), [p])

    x = t((1, 2, 5, 5), name="conv_x")
    w = t((3, 2, 3, 3), name="conv_w")
    bias = t((3,), name="conv_b")
    cases["conv2d"] = (lambda: conv2d(x, w, bias, stride=1, padding=1), [x, w, bias])
    xs = t((1, 2, 5, 5), name="convs_x")
    ws = t((2, 2, 3, 3), name="convs_w")
    bs = t((2,), name="convs_b")
    cases["conv2d_stride2"] = (lambda: conv2d(xs, ws, bs, stride=2, padding=1), [xs, ws, bs])
    u = t((1, 2, 3, 3), name="up_x")
    cases["bilinear_upsample_x2"] = (lambda: bilinear_upsample_x2(u), [u])
    # spread values so no pooling window has a near-tie at the FD step
    mp_data = s.standard_normal((1, 2, 4, 4))
    mp_data += np.arange(mp_data.size).reshape(mp_data.shape) * 1e-2
    mp = Tensor(mp_data, requires_grad=True, name="pool_x")
    cases["maxpool2d"] = (lambda: maxpool2d(mp, 2, 2), [mp])
    g = t((2, 3, 4, 5), name="gap_x")
    cases["global_avg_pool"] = (lambda: global_avg_pool(g), [g])
    sm = t((2, 3, 4), name="softmax_x")
    cases["softmax"] = (lambda: softmax(sm, (1, 2)), [sm])
    nx = t((2, 3, 4, 4), name="norm_x")
    ng = t((3,), positive=True, name="norm_gamma")
    nb = t((3,), name="norm_beta")
    cases["channel_norm"] = (lambda: channel_norm(nx, ng, nb), [nx, ng, nb])
    return cases


def gradient_op_checks(
    seed: int = 7, tol: float = 1e-4, step: float = 1e-5, ops: list[str] | None = None
) -> list[CheckResult]:
    """Finite-difference check of every primitive op (or those in `ops`) on small tensors.

    Every case is built either way, so a selected op sees the same data as
    in the full sweep.
    """
    results = []
    for name, (fn, leaves) in _op_cases(fold_seed(seed, "ops")).items():
        if ops is not None and name not in ops:
            continue
        proj = Tensor(SplitMix64(fold_seed(seed, f"proj/{name}")).standard_normal(fn().shape))

        def build_loss(fn=fn, proj=proj):
            return tsum(mul(fn(), proj))

        checks = check_gradients(build_loss, leaves, tol=tol, step=step, max_coords=512)
        worst = max(c.max_rel_err for c in checks)
        results.append(CheckResult(f"grad/{name}", worst <= tol, worst, tol))
    return results


END_TO_END = "grad/end_to_end"


def gradient_end_to_end_check(
    seed: int = 7, tol: float = 1e-4, step: float = 1e-5, max_coords: int = 4
) -> CheckResult:
    """FD check of dLoss/dParam through the full fused-neck graph.

    The check runs at a generic parameter point: the zero-initialized
    projections are replaced with small random weights, because at exactly
    zero the top level's constant (1x1-upsampled) scale slice ties every
    scatter pooling window and the loss is genuinely kinked there.
    """
    cfg = tiny_gradcheck_config(seed)
    rp = revfp_params(cfg)
    d = cfg.d
    cp = csn_params(cfg).with_overrides(
        aggregate__project__weight=0.3 * _stream(cfg, "e2e/proj_w").standard_normal((d, d, 1, 1)),
        context__scale__out__weight=0.3 * _stream(cfg, "e2e/sout_w").standard_normal((d, d, 1, 1)),
        context__spatial__out__weight=0.3 * _stream(cfg, "e2e/pout_w").standard_normal((d, d, 1, 1)),
    )
    base = synth_backbone(cfg)
    projs = {
        i: _rand(cfg, f"e2e/proj/{i}", (cfg.batch, cfg.d) + cfg.resolution(i))
        for i in cfg.levels()
    }

    def build_loss():
        C = extend_stem(base, rp, cfg) if cfg.has_stem else base
        out = rcnet_forward(C, cfg, rp, cp)
        total = None
        for i in cfg.levels():
            term = tsum(mul(out[i], projs[i]))
            total = term if total is None else add(total, term)
        return total

    leaves = rp.tensors() + cp.tensors()
    checks = check_gradients(
        build_loss, leaves, tol=tol, step=step, max_coords=max_coords, seed=seed
    )
    worst = max(c.max_rel_err for c in checks)
    worst_name = max(checks, key=lambda c: c.max_rel_err).name
    return CheckResult(
        END_TO_END, worst <= tol, f"{worst:.3e} (worst at {worst_name})", tol
    )


def run_gradient_suite(seed: int = 7, names: list[str] | None = None) -> list[CheckResult]:
    """The op sweep and the end-to-end check, or only the checks in `names`.

    The selection is resolved before anything runs: a named op runs alone,
    and the end-to-end check runs only when it is named.
    """
    available = [f"grad/{op}" for op in _op_cases(seed)] + [END_TO_END]
    selected = select_checks(names, available)
    ops = [n.removeprefix("grad/") for n in selected if n != END_TO_END]
    results = gradient_op_checks(seed, ops=ops) if ops else []
    if END_TO_END in selected:
        results.append(gradient_end_to_end_check(seed))
    return results
