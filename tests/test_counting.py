"""Traced parameter/MAC accounting against closed-form enumeration.

The oracle below recounts each architecture from its structure alone
(sites, channel widths, resolutions); the product must reproduce it
exactly. Conv MACs are N*Cout*H'*W'*Cin*kh*kw; everything else is 0.
"""

from contextlib import nullcontext

import numpy as np

from rcnet import counting
from rcnet.accounting import count_all
from rcnet.counting import CountReport, collect, scope
from rcnet.csn import csn_forward, csn_params
from rcnet.fixtures import prepare_inputs
from rcnet.revfp import revfp_forward, revfp_params
from rcnet.rng import SplitMix64
from rcnet.tensor import Tensor, conv2d


def conv_cost(n, cout, hp, wp, cin, kh, kw):
    return cout * cin * kh * kw + cout, n * cout * hp * wp * cin * kh * kw


def closed_form_fpn(cfg):
    d = cfg.d
    res = {i: cfg.resolution(i) for i in cfg.levels()}
    params = macs = 0
    # stem: stride-2 3x3 from C5, then from relu(C6)
    p, m = conv_cost(cfg.batch, d, *res[6], cfg.stage_channels(5), 3, 3)
    params += p
    macs += m
    p, m = conv_cost(cfg.batch, d, *res[7], d, 3, 3)
    params += p
    macs += m
    for i in cfg.stage_levels():
        p, m = conv_cost(cfg.batch, d, *res[i], cfg.stage_channels(i), 1, 1)
        params += p
        macs += m
        p, m = conv_cost(cfg.batch, d, *res[i], d, 3, 3)
        params += p
        macs += m
    return params, macs


def closed_form_revfp(cfg):
    d = cfg.d
    res = {i: cfg.resolution(i) for i in cfg.levels()}
    params = macs = 0
    p, m = conv_cost(cfg.batch, d, *res[6], cfg.stage_channels(5), 3, 3)  # stem
    params += p
    macs += m
    p, m = conv_cost(cfg.batch, d, *res[7], d, 3, 3)
    params += p
    macs += m
    for i in cfg.levels():  # laterals
        cin = cfg.stage_channels(i) if i <= 5 else d
        p, m = conv_cost(cfg.batch, d, *res[i], cin, 1, 1)
        params += p
        macs += m
    for i in range(cfg.l_min, cfg.l_max):  # guided-upsample sites
        p, m = conv_cost(cfg.batch, 1, *res[i], 2 * d, 3, 3)
        params += p + 1  # temperature scalar
        macs += m
    for i in range(cfg.l_min, cfg.l_max):  # pre-fusion sites
        p, m = conv_cost(cfg.batch, 1, 1, 1, 2 * d, 1, 1)  # gate head on pooled 1x1
        params += p
        macs += m
        p, m = conv_cost(cfg.batch, d, *res[i], d, 3, 3)
        params += p + 2 * d  # norm gamma/beta
        macs += m
    for i in range(cfg.l_min + 1, cfg.l_max + 1):  # post-fusion sites
        p, m = conv_cost(cfg.batch, 1, 1, 1, 2 * d, 1, 1)
        params += p
        macs += m
        p, m = conv_cost(cfg.batch, d, *res[i], d, 3, 3)
        params += p + 2 * d
        macs += m
    return params, macs


def closed_form_csn(cfg):
    d = cfg.d
    n = cfg.num_levels
    hk, wk = cfg.resolution(cfg.k)
    extra = d // cfg.r
    params = macs = 0
    # aggregation pair runs per scale slice (batch folds to N*n)
    p, m = conv_cost(cfg.batch * n, d, hk, wk, d + extra, 1, 1)
    params += p + 2 * d  # norm
    macs += m
    p, m = conv_cost(cfg.batch * n, d, hk, wk, d, 1, 1)
    params += p
    macs += m
    # scale branch: mid mixes pooled [N,d,n,1]; out mixes the 2-D mean map
    p, m = conv_cost(cfg.batch, d, n, 1, d, 1, 1)
    params += p
    macs += m
    p, m = conv_cost(cfg.batch, d, hk, wk, d, 1, 1)
    params += p
    macs += m
    # spatial branch mirrors it
    p, m = conv_cost(cfg.batch, d, hk, wk, d, 1, 1)
    params += p
    macs += m
    p, m = conv_cost(cfg.batch, d, n, 1, d, 1, 1)
    params += p
    macs += m
    return params, macs


def test_single_conv_closed_form(desk_cfg):
    d, h, w = 16, 6, 5
    report = CountReport()
    x = Tensor(SplitMix64(1).standard_normal((1, d, h, w)))
    weight = Tensor(SplitMix64(2).standard_normal((d, d, 1, 1)), name="probe/weight")
    bias = Tensor(np.zeros(d), name="probe/bias")
    with collect(report, "probe"):
        with scope("conv"):
            conv2d(x, weight, bias)
    row = report.rows["probe/conv"]
    assert row.params == d * d + d
    assert row.macs == h * w * d * d


def test_desk_totals_match_closed_form(desk_cfg):
    report = count_all(desk_cfg)
    assert report.total("fpn") == closed_form_fpn(desk_cfg)
    assert report.total("revfp") == closed_form_revfp(desk_cfg)
    assert report.total("csn") == closed_form_csn(desk_cfg)


def test_desk_frozen_param_totals(desk_cfg):
    # closed forms evaluated once by hand for the desk config
    report = count_all(desk_cfg)
    assert report.total("fpn")[0] == 192_000
    assert report.total("revfp")[0] == 391_632
    assert report.total("csn")[0] == 26_112


def test_shift_row_is_zero_cost(desk_cfg):
    report = count_all(desk_cfg)
    row = report.rows["csn/scale_shift"]
    assert (row.params, row.macs) == (0, 0)


def test_module_totals_equal_row_sums(desk_cfg):
    report = count_all(desk_cfg)
    for module, totals in report.module_totals().items():
        rows = [r for name, r in report.rows.items() if name.split("/", 1)[0] == module]
        assert totals["params"] == sum(r.params for r in rows)
        assert totals["macs"] == sum(r.macs for r in rows)


def test_every_operator_site_has_exactly_one_row(desk_cfg):
    report = count_all(desk_cfg)
    names = set(report.rows)
    for expected in [
        "fpn/stem/c6", "fpn/lateral/3", "fpn/output/5",
        "revfp/fgu/3", "revfp/pre/3/head", "revfp/pre/3/conv", "revfp/pre/3/norm",
        "revfp/post/7/conv", "revfp/lateral/7",
        "csn/gather", "csn/scale_shift", "csn/aggregate/reduce",
        "csn/aggregate/project", "csn/context/scale/mid", "csn/scatter",
    ]:
        assert expected in names, expected
    assert len(names) == len(report.rows)  # keys are unique by construction


def test_params_attributed_once(desk_cfg):
    report = count_all(desk_cfg)
    from rcnet.revfp import revfp_params

    assert report.total("revfp")[0] == revfp_params(desk_cfg).param_count()


def test_collect_rows_start_at_root():
    report = CountReport()
    with scope("outer"), collect(report, "root"), scope("inner"):
        pass
    assert list(report.rows) == ["root", "root/inner"]


class TestProbes:
    def test_probe_outside_probes_records_nothing(self):
        counting.probe("before", 0.0)  # no block open: a no-op, not an error
        seen = {}
        with counting.probes(seen.__setitem__):
            counting.probe("inside", 1.0)
        counting.probe("after", 2.0)
        assert seen == {"inside": 1.0}

    def test_keys_are_the_scopes_opened_inside_the_block(self):
        seen = {}
        with scope("outer"), counting.probes(seen.__setitem__), scope("a"), scope("b"):
            counting.probe("value", 3.0)
        assert seen == {"a/b/value": 3.0}

    @staticmethod
    def neck_probes(cfg, counted=False) -> list:
        """Every (key, value) the revfp and csn forwards probe, in the order they fire."""
        fired = []
        rp, cp = revfp_params(cfg), csn_params(cfg)
        C = prepare_inputs(cfg, rp)
        with counting.probes(lambda key, value: fired.append((key, value))):
            # a traced run opens a collection around each forward, inside the check's block
            with collect(CountReport(), "revfp") if counted else nullcontext():
                P = revfp_forward(C, rp, cfg)
            with collect(CountReport(), "csn") if counted else nullcontext():
                csn_forward(P, cfg, cp)
        return fired

    def test_forwards_probe_what_the_checks_read(self, mini_cfg):
        # in forward order: check_fusion_convexity reads each blend as its operands arrive
        lo, hi = mini_cfg.l_min, mini_cfg.l_max
        want = []
        for i in range(lo, hi + 1):
            if i < hi:
                want += [f"fgu/{i}/weights", f"pre/{i}/blend", f"pre/{i}/operands"]
            want.append(f"p_prime/{i}")
            if i > lo:
                want += [f"post/{i}/blend", f"post/{i}/operands"]
        want += ["scale_weights", "spatial_weights"]
        assert [key for key, _ in self.neck_probes(mini_cfg)] == want

    def test_probes_are_the_same_inside_a_collection(self, mini_cfg):
        plain = self.neck_probes(mini_cfg)
        counted = self.neck_probes(mini_cfg, counted=True)
        assert [key for key, _ in plain] == [key for key, _ in counted]
        for (key, value), (_, other) in zip(plain, counted):
            assert _arrays(value) == _arrays(other), key


def _arrays(value) -> list[bytes]:
    """The bytes of a probed tensor, or of each tensor in a probed tuple."""
    return [t.data.tobytes() for t in (value if isinstance(value, tuple) else (value,))]
