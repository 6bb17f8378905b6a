"""Alternative input convention: every level synthesized by the backbone.

Giving backbone_channels one entry per level removes the stem; laterals
then project each level's own stage width.
"""

import numpy as np
import pytest

from rcnet.accounting import count_all
from rcnet.checks import run_invariants
from rcnet.config import NeckConfig
from rcnet.csn import csn_params, rcnet_forward
from rcnet.fixtures import prepare_inputs, synth_backbone
from rcnet.fpn import fpn_forward, fpn_params
from rcnet.revfp import revfp_params


@pytest.fixture(scope="module")
def aug_cfg():
    return NeckConfig(
        l_min=3,
        l_max=7,
        d=16,
        backbone_channels=(8, 12, 16, 24, 24),
        r=2,
        k=4,
        batch=1,
        base_resolution=(32, 32),
        seed=5,
    )


def test_backbone_emits_every_level(aug_cfg):
    assert not aug_cfg.has_stem
    pyr = synth_backbone(aug_cfg)
    assert pyr.levels == [3, 4, 5, 6, 7]
    assert pyr[7].shape == (1, 24, 2, 2)


def test_stores_have_no_stem(aug_cfg):
    for store in (revfp_params(aug_cfg), fpn_params(aug_cfg)):
        assert not [t.name for t in store.tensors() if t.name.startswith("stem/")]


def test_forwards_run_and_match_shapes(aug_cfg):
    rp = revfp_params(aug_cfg)
    C = prepare_inputs(aug_cfg, rp)
    out = rcnet_forward(C, aug_cfg, rp, csn_params(aug_cfg))
    for i in aug_cfg.levels():
        assert out[i].shape == (1, aug_cfg.d) + aug_cfg.resolution(i)

    fp = fpn_params(aug_cfg)
    fout = fpn_forward(prepare_inputs(aug_cfg, fp), fp, aug_cfg)
    assert fout[7].shape == (1, aug_cfg.d, 2, 2)


def test_fpn_still_unidirectional(aug_cfg):
    fp = fpn_params(aug_cfg)
    C = prepare_inputs(aug_cfg, fp)
    base = fpn_forward(C, fp, aug_cfg)
    from rcnet.tensor import Tensor

    low = C[3].data.copy()
    low[0, 0, 0, 0] += 1.0
    moved = fpn_forward(C.with_level(3, Tensor(low)), fp, aug_cfg)
    assert np.array_equal(base[7].data, moved[7].data)


def test_invariants_pass_without_stem(aug_cfg):
    names = [
        "boundary_rules",
        "revfp_bidirectional",
        "revfp_locality",
        "csn_init_roundtrip",
        "determinism_forward",
    ]
    for result in run_invariants(aug_cfg, names):
        assert result.passed, result


def test_counting_has_no_stem_rows(aug_cfg):
    report = count_all(aug_cfg)
    assert not any("stem" in name for name in report.rows)
    assert report.rows["csn/scale_shift"].macs == 0
    expected_laterals = sum(
        aug_cfg.d * c + aug_cfg.d for c in aug_cfg.backbone_channels
    )
    lat_rows = [r for name, r in report.rows.items() if name.startswith("revfp/lateral/")]
    assert sum(r.params for r in lat_rows) == expected_laterals
