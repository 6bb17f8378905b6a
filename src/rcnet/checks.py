"""Named structural and gradient checks the harness runs.

Every check is a pure function of the config returning a CheckResult; the
CLI turns a list of results into a report and an exit code. Tolerances
are pinned here, not configurable: exactness claims are checked at 0 or
1e-12, statistics at their stated bounds, gradients at `gradcheck.TOL`
(1e-4) with central differences of step `gradcheck.STEP` (1e-5).
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
    csn_forward,
    csn_params,
    dual_global_context,
    rcnet_forward,
    scale_shift,
    shift_aggregate,
)
from .fixtures import extend_stem, prepare_inputs, synth_backbone, synth_normal, synth_stack
from .fpn import fpn_forward, fpn_params
from .gradcheck import TOL, check_gradients
from .params import ParamStore
from .pyramid import FeaturePyramid, load_pyramid, pyramid_digest, save_pyramid
from .revfp import feature_guided_upsample, revfp_forward, revfp_params
from .rng import SplitMix64, fold_seed
from .tensor import (
    NORM_EPS,
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


def _rand_pyramid(cfg: NeckConfig, label_format: str) -> FeaturePyramid:
    """Standard-normal [batch, d] maps at every level, level i drawn from
    the stream labelled `label_format.format(i=i)`."""
    return FeaturePyramid(
        {
            i: synth_normal(cfg, label_format.format(i=i), (cfg.batch, cfg.d) + cfg.resolution(i))
            for i in cfg.levels()
        }
    )


def _drawn_projections(cfg: NeckConfig, labels: tuple[str, ...], std: float) -> ParamStore:
    """csn params whose three zero-initialized projections are drawn at
    `std` instead, each from the stream of its label in `labels`."""
    names = ("aggregate/project/weight", "context/scale/out/weight", "context/spatial/out/weight")
    shape = (cfg.d, cfg.d, 1, 1)
    draws = {n: std * synth_normal(cfg, label, shape).data for n, label in zip(names, labels)}
    return csn_params(cfg).with_overrides(draws)


def _reach(forward, inputs: FeaturePyramid, bumped, at=(0, 0, 0, 0)) -> dict:
    """{(j, i): max |change| of output level i} when input level j is bumped
    by 1 at index `at`, for each j in `bumped`: one base forward plus one
    forward per bumped level. Each bumped output is reduced to its
    per-level maxima and dropped before the next forward runs."""
    base = forward(inputs)
    reach = {}
    for j in bumped:
        data = inputs[j].data.copy()
        data[at] += 1.0
        moved = forward(inputs.with_level(j, Tensor(data)))
        for i in base.levels:
            reach[j, i] = float(np.max(np.abs(base[i].data - moved[i].data)))
        del moved
    return reach


def tiny_gradcheck_config(seed: int) -> NeckConfig:
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
    errors = []

    def reduce_weights(key: str, weights: Tensor):
        errors.append(float(np.max(np.abs(weights.data.mean(axis=(2, 3)) - 1.0))))

    for i in range(cfg.l_min, cfg.l_max):
        h, w = cfg.resolution(i)
        for t in range(trials):
            tag = f"fgu_check/{i}/{t}"
            fine = synth_normal(cfg, tag + "/fine", (cfg.batch, cfg.d, h, w))
            coarse = synth_normal(cfg, tag + "/coarse", (cfg.batch, cfg.d, h // 2, w // 2))
            weight = synth_normal(cfg, tag + "/w", (1, 2 * cfg.d, 3, 3))
            bias = synth_normal(cfg, tag + "/b", (1,))
            temperature = synth_normal(cfg, tag + "/T", (1,))
            with counting.probes(reduce_weights):
                feature_guided_upsample(fine, coarse, weight, bias, temperature)
    worst = max(errors)
    return CheckResult("fgu_mean_weight", worst <= 1e-12, worst, 1e-12)


def _revfp_probes(cfg: NeckConfig, on_probe, seed_label: str):
    """One revfp forward with every probe handed to `on_probe(key, value)`."""
    store = revfp_params(cfg)
    data_cfg = cfg.replace(seed=fold_seed(cfg.seed, seed_label) % 2**64)
    C = prepare_inputs(data_cfg, store)
    with counting.probes(on_probe):
        out = revfp_forward(C, store, cfg)
    return C, store, out


def _envelope_excess(blend: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """Largest relative step of `blend` outside [min(a, b), max(a, b)], at
    least 0, reduced one channel at a time so no full-size temporary forms."""
    worst = 0.0
    for c in range(blend.shape[1]):
        x, a_c, b_c = blend[:, c], a[:, c], b[:, c]
        lo, hi = np.minimum(a_c, b_c), np.maximum(a_c, b_c)
        over = np.max((x - hi) / np.maximum(1.0, np.abs(hi)))
        under = np.max((lo - x) / np.maximum(1.0, np.abs(lo)))
        worst = max(worst, float(over), float(under))
    return worst


def check_fusion_convexity(cfg: NeckConfig) -> CheckResult:
    """Pre-conv blends stay inside the elementwise envelope of their operands.

    Each site's "blend" probe fires just before its "operands" probe, and
    the site is reduced as its operands arrive, so no blend or operand
    pair outlives its fusion. The check fails unless each of the 2*(n-1)
    fusion sites is reduced exactly once: a forward that stops probing
    its blends reduces nothing, and must not pass with 0.0.
    """
    sites = [f"pre/{i}" for i in range(cfg.l_min, cfg.l_max)]
    sites += [f"post/{i}" for i in range(cfg.l_min + 1, cfg.l_max + 1)]
    blends: dict = {}
    reduced: list = []
    worst = 0.0

    def reduce_site(key: str, value):
        nonlocal worst
        site, _, name = key.rpartition("/")
        if name == "blend":  # one "{pre,post}/{i}/blend" key per fusion site
            blends[site] = value
        elif name == "operands" and site in blends:
            a, b = (t.data for t in value)
            worst = max(worst, _envelope_excess(blends.pop(site).data, a, b))
            reduced.append(site)

    _revfp_probes(cfg, reduce_site, "convexity")
    if sorted(reduced) != sorted(sites):
        return CheckResult("fusion_convexity", False, f"reduced {reduced}", f"{sites} once each")
    return CheckResult("fusion_convexity", worst <= 1e-12, worst, 1e-12)


def check_boundary_rules(cfg: NeckConfig) -> CheckResult:
    """Bottom output equals its pre-fusion map; top pre-fusion map equals
    the lateral projection of the top input. Both bitwise."""
    bottom, top = f"p_prime/{cfg.l_min}", f"p_prime/{cfg.l_max}"
    kept: dict = {}

    def keep(key: str, value):
        if key in (bottom, top):
            kept[key] = value

    C, store, out = _revfp_probes(cfg, keep, "boundary")
    bottom_ok = np.array_equal(out[cfg.l_min].data, kept[bottom].data)
    lat = conv2d(
        C[cfg.l_max],
        store[f"lateral/{cfg.l_max}/weight"],
        store[f"lateral/{cfg.l_max}/bias"],
    )
    top_ok = np.array_equal(kept[top].data, lat.data)
    ok = bottom_ok and top_ok
    return CheckResult(
        "boundary_rules", ok, f"bottom={bottom_ok} top={top_ok}", "bitwise equality"
    )


def check_fpn_unidirectional(cfg: NeckConfig) -> CheckResult:
    """Perturbing a low stage never reaches a higher output (bitwise), while
    perturbing a high stage reaches every lower output."""
    store = fpn_params(cfg)
    reach = _reach(lambda C: fpn_forward(C, store, cfg), prepare_inputs(cfg, store), cfg.levels())
    leak = max([0.0] + [diff for (j, i), diff in reach.items() if i > j])
    min_reach = min([float("inf")] + [diff for (j, i), diff in reach.items() if i < j])
    ok = leak == 0.0 and min_reach > 0.0
    return CheckResult(
        "fpn_unidirectional", ok, f"upward_leak={leak} min_downward={min_reach:.3e}", "leak == 0"
    )


def check_revfp_bidirectional(cfg: NeckConfig) -> CheckResult:
    """Information moves both ways: the bottom stage reaches the top output
    through the bottom-up chain, and every stage reaches the output one
    level below it through its local top-down connection."""
    store = revfp_params(cfg)
    reach = _reach(lambda C: revfp_forward(C, store, cfg), prepare_inputs(cfg, store), cfg.levels())
    up = reach[cfg.l_min, cfg.l_max]
    min_down = min(reach[j, j - 1] for j in range(cfg.l_min + 1, cfg.l_max + 1))
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
    store = _drawn_projections(cfg, ("reach/proj", "reach/sout", "reach/pout"), 1.0)
    reach = _reach(
        lambda P: csn_forward(P, cfg, store),
        _rand_pyramid(cfg, "reach/P{i}"),
        [cfg.l_max],
        at=(0, cfg.shift_block, 0, 0),
    )
    diff = reach[cfg.l_max, cfg.l_min]
    return CheckResult("csn_nonadjacent_reach", diff > 0.0, diff, "> 0")


def _severed_store(store: ParamStore, cfg: NeckConfig) -> ParamStore:
    levels = range(cfg.l_min + 1, cfg.l_max + 1)
    return store.with_overrides({f"post/{i}/head/bias": np.full((1,), SEVER_BIAS) for i in levels})


def check_revfp_locality(cfg: NeckConfig) -> CheckResult:
    """With post-fusion gates forced to exactly 1 the bottom-up chain is cut,
    so a perturbed stage j may only influence outputs j-1 and j."""
    store = _severed_store(revfp_params(cfg), cfg)
    # stem levels derive from C5; bump stages only
    reach = _reach(
        lambda C: revfp_forward(C, store, cfg), prepare_inputs(cfg, store), cfg.stage_levels()
    )
    detail = [
        f"C{j}->P{i}: diff={diff:.3e} expected_change={i in (j - 1, j)}"
        for (j, i), diff in reach.items()
        if (i in (j - 1, j)) != (diff > 0.0)
    ]
    return CheckResult(
        "revfp_locality", not detail, "; ".join(detail) or "reach is {j-1, j} for all j",
        "exact reach set",
    )


def check_shift_routing(cfg: NeckConfig) -> CheckResult:
    """For levels 3..7 the level-6 slice must receive blocks from levels
    4, 5, 7, and 3 (wrapping) at offsets -2, -1, +1, +2."""
    blk = cfg.shift_block
    levels = list(range(3, 8))
    n = len(levels)
    S = synth_normal(cfg, "routing/stack", (1, cfg.d, n, 4, 4))
    shifted = scale_shift(S, blk)
    s_out = levels.index(6)
    expected_sources = {-2: 4, -1: 5, 1: 7, 2: 3}
    worst = 0.0
    for b, off in enumerate((-2, -1, 1, 2)):
        src_scale = levels.index(expected_sources[off])
        got = shifted.data[:, cfg.d + b * blk : cfg.d + (b + 1) * blk, s_out]
        want = S.data[:, b * blk : (b + 1) * blk, src_scale]
        worst = max(worst, float(np.max(np.abs(got - want))))
    return CheckResult("shift_routing", worst == 0.0, worst, 0.0)


def check_shift_equivariance(cfg: NeckConfig) -> CheckResult:
    """scale_shift commutes with rotations of the scale axis, exactly."""
    n = cfg.num_levels
    S = synth_normal(cfg, "equivariance/stack", (1, cfg.d, n, 3, 3))
    worst = 0.0
    for t in range(n):
        a = scale_shift(roll(S, t, 2), cfg.shift_block).data
        b = np.roll(scale_shift(S, cfg.shift_block).data, t, axis=2)
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
    P = _rand_pyramid(cfg, "shift_cost/{i}")
    report = counting.CountReport()
    with counting.collect(report, "csn"):
        csn_forward(P, cfg, csn_params(cfg))
    return count_checks(report)["shift_zero_cost"]


def check_shift_sum_dense_equal(cfg: NeckConfig) -> CheckResult:
    """Scalar-weight shift-sum equals the dense five-tap circulant conv."""
    d = 16
    S = synth_normal(cfg, "shift_sum/stack", (1, d, 5, 8, 8))
    weights = synth_normal(cfg, "shift_sum/weights", (5,)).data
    via_shift = shift_weighted_sum(S, weights).data
    via_dense = dense_circulant_conv(S.data, scalar_kernel(d, weights))
    worst = float(np.max(np.abs(via_shift - via_dense)))
    return CheckResult("shift_sum_dense_equal", worst <= 1e-12, worst, 1e-12)


def check_aggregate_identity_init(cfg: NeckConfig) -> CheckResult:
    """Zero-initialized projection makes shift aggregation an exact identity."""
    store = csn_params(cfg)
    S = synth_stack(cfg, "agg_init/stack")
    out = shift_aggregate(S, store, cfg.shift_block)
    ok = np.array_equal(out.data, S.data)
    return CheckResult("aggregate_identity_init", ok, float(np.max(np.abs(out.data - S.data))), 0.0)


def check_context_identity_init(cfg: NeckConfig) -> CheckResult:
    """Zero-initialized output projections make the context module an identity."""
    store = csn_params(cfg)
    Y = synth_stack(cfg, "ctx_init/stack")
    out = dual_global_context(Y, store)
    ok = np.array_equal(out.data, Y.data)
    return CheckResult("context_identity_init", ok, float(np.max(np.abs(out.data - Y.data))), 0.0)


def check_context_mean_weight(cfg: NeckConfig) -> CheckResult:
    """Both context reweightings average to exactly 1 along their axis."""
    store = csn_params(cfg)
    Y = synth_stack(cfg, "ctx_mean/stack")
    axes = {"scale_weights": 2, "spatial_weights": (2, 3)}
    errors = []

    def reduce_weights(key: str, weights: Tensor):
        errors.append(float(np.max(np.abs(weights.data.mean(axis=axes[key]) - 1.0))))

    with counting.probes(reduce_weights):
        dual_global_context(Y, store)
    worst = max(errors)
    return CheckResult("context_mean_weight", worst <= 1e-12, worst, 1e-12)


def _resize_chain(x: Tensor, level: int, k: int, direction: str) -> Tensor:
    # independent composition of the audited resizers, used as the oracle
    if direction == "to_reference":
        steps, down = abs(k - level), level < k
    else:
        steps, down = abs(k - level), level > k
    for _ in range(steps):
        x = maxpool2d(x) if down else bilinear_upsample_x2(x)
    return x


def check_csn_init_roundtrip(cfg: NeckConfig) -> CheckResult:
    """At init the whole cross-scale module reduces to adding the
    resize-roundtrip of each level back onto itself."""
    store = csn_params(cfg)
    P = _rand_pyramid(cfg, "roundtrip/P{i}")
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
    x = synth_normal(cfg, "norm/x", (2, 4, 6, 5))
    out = channel_norm(x, Tensor(np.ones(4), requires_grad=False), Tensor(np.zeros(4))).data
    mean_err = float(np.max(np.abs(out.mean(axis=(0, 2, 3)))))
    var = x.data.var(axis=(0, 2, 3))
    expect_var = var / (var + NORM_EPS)
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
        maxpool2d(x).data,
        global_avg_pool(x).data,
    ]
    worst = max(float(np.max(np.abs(o - c))) for o in outs)
    return CheckResult("constant_preservation", worst == 0.0, worst, 0.0)


def check_softmax_simplex(cfg: NeckConfig) -> CheckResult:
    """Softmax outputs are strictly positive and sum to 1 over the axis set."""
    x = synth_normal(cfg, "softmax/x", (2, 3, 7, 5))
    out = softmax(x, (2, 3)).data
    sums = out.sum(axis=(2, 3))
    worst = float(np.max(np.abs(sums - 1.0)))
    ok = worst <= 1e-12 and bool(np.all(out > 0.0))
    return CheckResult("softmax_simplex", ok, worst, 1e-12)


def check_determinism_forward(cfg: NeckConfig) -> CheckResult:
    """Two identically-seeded full forwards produce identical digests; the
    first build's stores and inputs are dropped before the second starts."""
    digests = []
    for _ in range(2):
        rp = revfp_params(cfg)
        cp = csn_params(cfg)
        C = prepare_inputs(cfg, rp)
        digests.append(pyramid_digest(rcnet_forward(C, cfg, rp, cp)))
        del rp, cp, C
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
    cases["maxpool2d"] = (lambda: maxpool2d(mp), [mp])
    g = t((2, 3, 4, 5), name="gap_x")
    cases["global_avg_pool"] = (lambda: global_avg_pool(g), [g])
    sm = t((2, 3, 4), name="softmax_x")
    cases["softmax"] = (lambda: softmax(sm, (1, 2)), [sm])
    nx = t((2, 3, 4, 4), name="norm_x")
    ng = t((3,), positive=True, name="norm_gamma")
    nb = t((3,), name="norm_beta")
    cases["channel_norm"] = (lambda: channel_norm(nx, ng, nb), [nx, ng, nb])
    return cases


def _op_check(seed: int, name: str, fn, leaves: list[Tensor]) -> CheckResult:
    """Finite-difference check of one op case through a seeded linear loss."""
    proj = Tensor(SplitMix64(fold_seed(seed, f"proj/{name}")).standard_normal(fn().shape))

    def build_loss():
        return tsum(mul(fn(), proj))

    results = check_gradients(build_loss, leaves, max_coords=512, seed=0)
    worst = max(c.max_rel_err for c in results)
    return CheckResult(f"grad/{name}", worst <= TOL, worst, TOL)


def gradient_op_checks(seed: int) -> list[CheckResult]:
    """Finite-difference check of every primitive op on small tensors."""
    cases = _op_cases(fold_seed(seed, "ops"))
    return [_op_check(seed, name, fn, leaves) for name, (fn, leaves) in cases.items()]


END_TO_END = "grad/end_to_end"


def gradient_end_to_end_check(seed: int) -> CheckResult:
    """FD check of dLoss/dParam through the full fused-neck graph.

    The check runs at a generic parameter point: the zero-initialized
    projections are replaced with small random weights, because at exactly
    zero the top level's constant (1x1-upsampled) scale slice ties every
    scatter pooling window and the loss is genuinely kinked there.
    """
    cfg = tiny_gradcheck_config(seed)
    rp = revfp_params(cfg)
    cp = _drawn_projections(cfg, ("e2e/proj_w", "e2e/sout_w", "e2e/pout_w"), 0.3)
    base = synth_backbone(cfg)
    projs = _rand_pyramid(cfg, "e2e/proj/{i}")

    def build_loss():
        C = extend_stem(base, rp, cfg)
        out = rcnet_forward(C, cfg, rp, cp)
        total = None
        for i in cfg.levels():
            term = tsum(mul(out[i], projs[i]))
            total = term if total is None else add(total, term)
        return total

    leaves = rp.tensors() + cp.tensors()
    checks = check_gradients(build_loss, leaves, max_coords=4, seed=seed)
    worst = max(c.max_rel_err for c in checks)
    worst_name = max(checks, key=lambda c: c.max_rel_err).name
    remeasured = sum(c.remeasured for c in checks)
    return CheckResult(
        END_TO_END,
        worst <= TOL,
        f"{worst:.3e} (worst at {worst_name}; {remeasured} coords at a smaller step)",
        TOL,
    )


def run_gradient_suite(seed: int, names: list[str] | None) -> list[CheckResult]:
    """The op sweep and the end-to-end check, or only the checks in `names`.

    The selection is resolved before anything runs: a named op runs alone,
    and the end-to-end check runs only when it is named. Every op case is
    built either way, so a selected op sees the same data as in the full
    sweep.
    """
    cases = _op_cases(fold_seed(seed, "ops"))
    selected = select_checks(names, [f"grad/{op}" for op in cases] + [END_TO_END])
    results = [
        _op_check(seed, name, fn, leaves)
        for name, (fn, leaves) in cases.items()
        if f"grad/{name}" in selected
    ]
    if END_TO_END in selected:
        results.append(gradient_end_to_end_check(seed))
    return results
