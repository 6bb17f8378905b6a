"""Top-down baseline: structure, degenerate cases, information flow."""

import numpy as np
import pytest

from rcnet import checks
from rcnet.fixtures import extend_stem, synth_backbone
from rcnet.fpn import fpn_forward, fpn_params
from rcnet.pyramid import FeaturePyramid
from rcnet.tensor import Tensor, conv2d


def build(cfg):
    store = fpn_params(cfg)
    C = extend_stem(synth_backbone(cfg), store, cfg)
    return C, store


def bump(pyr, level):
    data = pyr[level].data.copy()
    data[0, 0, 0, 0] += 1.0
    return pyr.with_level(level, Tensor(data))


def test_output_shapes(mini_cfg):
    C, store = build(mini_cfg)
    out = fpn_forward(C, store, mini_cfg)
    for i in mini_cfg.levels():
        assert out[i].shape == (1, mini_cfg.d) + mini_cfg.resolution(i)


def test_zero_laterals_give_output_bias_maps(mini_cfg):
    C, store = build(mini_cfg)
    sites = [f"lateral/{i}" for i in mini_cfg.stage_levels()] + ["stem/c6", "stem/c7"]
    names = [f"{site}/{part}" for site in sites for part in ("weight", "bias")]
    store = store.with_overrides({name: np.zeros(store[name].shape) for name in names})
    out = fpn_forward(extend_stem(synth_backbone(mini_cfg), store, mini_cfg), store, mini_cfg)
    for i in mini_cfg.stage_levels():
        want = np.broadcast_to(
            store[f"output/{i}/bias"].data[None, :, None, None],
            out[i].shape,
        )
        assert np.array_equal(out[i].data, want), f"level {i}"
    for i in (6, 7):
        assert np.array_equal(out[i].data, np.zeros(out[i].shape))


def test_chainless_level_reduces_to_lateral_then_output_conv(mini_cfg):
    """With the stem zeroed the top-down contribution into level 5 vanishes,
    so P5 is exactly outconv(lateral(C5)): the single-level composition."""
    C, store = build(mini_cfg)
    names = [f"stem/{c}/{part}" for c in ("c6", "c7") for part in ("weight", "bias")]
    store = store.with_overrides({name: np.zeros(store[name].shape) for name in names})
    C = extend_stem(synth_backbone(mini_cfg), store, mini_cfg)
    out = fpn_forward(C, store, mini_cfg)
    lat = conv2d(C[5], store["lateral/5/weight"], store["lateral/5/bias"])
    want = conv2d(lat, store["output/5/weight"], store["output/5/bias"], padding=1)
    assert np.array_equal(out[5].data, want.data)


def test_top_level_ignores_all_lower_stages(mini_cfg):
    C, store = build(mini_cfg)
    base = fpn_forward(C, store, mini_cfg)
    for j in mini_cfg.levels():
        if j == mini_cfg.l_max:
            continue
        moved = fpn_forward(bump(C, j), store, mini_cfg)
        assert np.array_equal(
            base[mini_cfg.l_max].data, moved[mini_cfg.l_max].data
        ), f"bumping level {j} leaked upward"


def test_no_upward_flow_any_pair(mini_cfg):
    C, store = build(mini_cfg)
    base = fpn_forward(C, store, mini_cfg)
    for j in mini_cfg.levels():
        moved = fpn_forward(bump(C, j), store, mini_cfg)
        for i in mini_cfg.levels():
            if i > j:
                assert np.array_equal(base[i].data, moved[i].data), f"C{j} -> P{i}"
            elif i < j:
                assert not np.array_equal(base[i].data, moved[i].data), f"C{j} -/-> P{i}"


def test_unidirectional_check_catches_an_upward_leak(mini_cfg, monkeypatch):
    def leaky(C, store, cfg):
        out = fpn_forward(C, store, cfg)
        top = cfg.l_max
        leaked = out[top].data + C[cfg.l_min].data.mean()
        return out.with_level(top, Tensor(leaked))

    monkeypatch.setattr(checks, "fpn_forward", leaky)
    result = checks.check_fpn_unidirectional(mini_cfg)
    assert result.passed is False
    assert not result.measured.startswith("upward_leak=0.0 ")


def test_missing_level_rejected(mini_cfg):
    C, store = build(mini_cfg)
    partial = FeaturePyramid({i: C[i] for i in range(3, 7)})
    with pytest.raises(ValueError, match="missing level"):
        fpn_forward(partial, store, mini_cfg)


def test_wrong_resolution_rejected(mini_cfg):
    C, store = build(mini_cfg)
    shrunk = FeaturePyramid(
        {i: Tensor(C[i].data[:, :, : C[i].shape[2] // 2, : C[i].shape[3] // 2]) for i in C.levels}
    )
    with pytest.raises(ValueError, match="resolution"):
        fpn_forward(shrunk, store, mini_cfg)
