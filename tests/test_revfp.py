"""Guided upsampling, dynamic gating, two-step fusion, and the bottom-up pass."""

import numpy as np
import pytest

from rcnet import counting
from rcnet.checks import SEVER_BIAS, _severed_store
from rcnet.fixtures import extend_stem, synth_backbone
from rcnet.revfp import (
    FguSite,
    dynamic_weight,
    feature_guided_upsample,
    fuse,
    revfp_forward,
    revfp_params,
)
from rcnet.rng import SplitMix64
from rcnet.tensor import (
    Tape,
    Tensor,
    backward,
    bilinear_upsample_x2,
    channel_norm,
    concat,
    conv2d,
    global_avg_pool,
    maxpool2d,
    mul,
    scale,
    sigmoid,
    softmax,
    tsum,
)


def rand(shape, seed=0):
    return Tensor(SplitMix64(seed).standard_normal(shape))


def rand_site(d, seed):
    s = SplitMix64(seed)
    return FguSite(
        Tensor(s.standard_normal((1, 2 * d, 3, 3))),
        Tensor(s.standard_normal((1,))),
        Tensor(s.standard_normal((1,))),
    )


def fgu_concat_form(c_fine, c_coarse, site):
    """The guided upsample with one logit conv over the [N, 2d, H, W] concat."""
    d, h, w = c_fine.shape[1:]
    up = bilinear_upsample_x2(c_coarse)
    logits = conv2d(concat([c_fine, up], 1), site.weight, site.bias, padding=1)
    scaled = mul(logits, scale(site.temperature, d**-0.5))
    return mul(up, scale(softmax(scaled, (2, 3)), float(h * w)))


class TestFeatureGuidedUpsample:
    def test_split_logit_conv_matches_concat_form(self):
        # forward and every grad: the two half-convs sum to the conv of the concat
        d = 5
        data = [rand((2, d, 8, 6), 21).data, rand((2, d, 4, 3), 22).data]
        site = rand_site(d, 23)
        g = rand((2, d, 8, 6), 24).data
        results = []
        for fgu in (feature_guided_upsample, fgu_concat_form):
            fine, coarse = (Tensor(x, requires_grad=True) for x in data)
            params = FguSite(
                *(Tensor(t.data, requires_grad=True) for t in (site.weight, site.bias, site.temperature))
            )
            with Tape() as tape:
                out = fgu(fine, coarse, params)
                loss = tsum(mul(out, Tensor(g)))
            backward(tape, loss)
            results.append(
                [out.data, fine.grad, coarse.grad]
                + [t.grad for t in (params.weight, params.bias, params.temperature)]
            )
        for got, want in zip(*results):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_constant_logits_leave_upsample_unchanged(self):
        d = 4
        fine, coarse = rand((1, d, 8, 8), 1), rand((1, d, 4, 4), 2)
        site = FguSite(
            Tensor(np.zeros((1, 2 * d, 3, 3))), Tensor([3.7]), Tensor([1.0])
        )
        out = feature_guided_upsample(fine, coarse, site)
        up = bilinear_upsample_x2(coarse)
        assert np.array_equal(out.data, up.data)

    def test_mean_weight_is_one(self):
        d = 4
        with counting.probes() as seen:
            feature_guided_upsample(rand((2, d, 6, 6), 3), rand((2, d, 3, 3), 4), rand_site(d, 5))
        w = seen["weights"].data
        assert np.max(np.abs(w.mean(axis=(2, 3)) - 1.0)) <= 1e-12

    def test_temperature_scales_logits(self):
        """Doubling T must equal recomputing the softmax oracle on doubled
        logits: weights are exp-normalized over all positions, times H*W."""
        d = 4
        fine, coarse = rand((1, d, 6, 6), 6), rand((1, d, 3, 3), 7)
        site = rand_site(d, 8)
        up = bilinear_upsample_x2(coarse)
        logits = conv2d(concat([fine, up], 1), site.weight, site.bias, padding=1).data

        doubled = FguSite(site.weight, site.bias, Tensor(2.0 * site.temperature.data))
        got = feature_guided_upsample(fine, coarse, doubled).data

        scaled = 2.0 * site.temperature.data[0] * logits / np.sqrt(d)
        e = np.exp(scaled - scaled.max(axis=(2, 3), keepdims=True))
        weights = e / e.sum(axis=(2, 3), keepdims=True) * 36.0
        assert np.max(np.abs(got - up.data * weights)) <= 1e-12

    def test_resolution_mismatch_rejected(self):
        d = 4
        with pytest.raises(ValueError, match="half"):
            feature_guided_upsample(rand((1, d, 8, 8), 9), rand((1, d, 3, 3), 10), rand_site(d, 11))


class TestDynamicWeight:
    def test_zero_head_gives_half(self):
        a, b = rand((2, 4, 5, 5), 12), rand((2, 4, 5, 5), 13)
        w = dynamic_weight(a, b, Tensor(np.zeros((1, 8, 1, 1))), Tensor(np.zeros(1)))
        assert w.shape == (2, 1, 1, 1)
        assert np.array_equal(w.data, np.full((2, 1, 1, 1), 0.5))

    def test_large_bias_saturates(self):
        a, b = rand((1, 4, 5, 5), 14), rand((1, 4, 5, 5), 15)
        w = dynamic_weight(a, b, Tensor(np.zeros((1, 8, 1, 1))), Tensor([10.0]))
        assert w.data.reshape(()) >= 0.999

    def test_matches_primitive_composition(self):
        # the head pools each operand before joining them; the gate and every
        # gradient equal those of the pool of the joined map bit for bit
        a_data, b_data = rand((2, 16, 12, 10), 16).data, rand((2, 16, 12, 10), 17).data
        hw_data = SplitMix64(18).standard_normal((1, 32, 1, 1))
        hb_data = SplitMix64(19).standard_normal((1,))
        results = []
        for gate in (
            dynamic_weight,
            lambda a, b, hw, hb: sigmoid(conv2d(global_avg_pool(concat([a, b], 1)), hw, hb)),
        ):
            leaves = [Tensor(v, requires_grad=True) for v in (a_data, b_data, hw_data, hb_data)]
            with Tape() as tape:
                w = gate(*leaves)
                loss = tsum(mul(w, Tensor([[[[0.5]]], [[[-2.0]]]])))
            backward(tape, loss)
            results.append([w.data] + [t.grad for t in leaves])
        for got, want in zip(*results):
            assert got.tobytes() == want.tobytes()


def _site(d, seed):
    s = SplitMix64(seed)
    from rcnet.revfp import FusionSite

    return FusionSite(
        Tensor(s.standard_normal((1, 2 * d, 1, 1))),
        Tensor(s.standard_normal((1,))),
        Tensor(s.standard_normal((d, d, 3, 3))),
        Tensor(s.standard_normal((d,))),
        Tensor(np.abs(s.standard_normal((d,))) + 0.5),
        Tensor(s.standard_normal((d,))),
    )


class TestFusionSteps:
    def test_pre_blend_endpoints(self):
        d = 4
        c_i, guided = rand((1, d, 6, 6), 20), rand((1, d, 6, 6), 21)
        for bias, want in [(SEVER_BIAS, c_i), (-SEVER_BIAS, guided)]:
            site = _site(d, 22)
            site.head_bias.data[:] = bias
            site.head_weight.data[:] = 0.0
            with counting.probes() as seen:
                fuse(c_i, guided, site)
            assert np.array_equal(seen["blend"].data, want.data)

    def test_blend_inside_envelope(self):
        d = 4
        c_i, guided = rand((2, d, 6, 6), 23), rand((2, d, 6, 6), 24)
        with counting.probes() as seen:
            fuse(c_i, guided, _site(d, 25))
        blend = seen["blend"].data
        lo = np.minimum(c_i.data, guided.data)
        hi = np.maximum(c_i.data, guided.data)
        assert np.all(blend >= lo - 1e-12) and np.all(blend <= hi + 1e-12)

    def test_post_matches_hand_composition(self):
        d = 4
        p_prime, p_prev = rand((1, d, 4, 4), 26), rand((1, d, 8, 8), 27)
        site = _site(d, 28)
        down = maxpool2d(p_prev, 2, 2)
        got = fuse(p_prime, down, site).data

        w = sigmoid(
            conv2d(global_avg_pool(concat([p_prime, down], 1)), site.head_weight, site.head_bias)
        ).data
        blend = Tensor(w * p_prime.data + (1.0 - w) * down.data)
        want = channel_norm(
            conv2d(blend, site.conv_weight, site.conv_bias, padding=1), site.gamma, site.beta
        ).data
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_unequal_operands_rejected(self):
        d = 4
        with pytest.raises(ValueError, match="operand shapes"):
            fuse(rand((1, d, 4, 4), 29), rand((1, d, 8, 8), 30), _site(d, 31))


class TestRevfpForward:
    def test_shapes_and_channels(self, mini_cfg):
        store = revfp_params(mini_cfg)
        C = extend_stem(synth_backbone(mini_cfg), store, mini_cfg)
        out = revfp_forward(C, store, mini_cfg)
        for i in mini_cfg.levels():
            assert out[i].shape == (1, mini_cfg.d) + mini_cfg.resolution(i)

    def test_boundary_rules_bitwise(self, mini_cfg):
        store = revfp_params(mini_cfg)
        C = extend_stem(synth_backbone(mini_cfg), store, mini_cfg)
        with counting.probes() as seen:
            out = revfp_forward(C, store, mini_cfg)
        assert np.array_equal(out[3].data, seen["p_prime/3"].data)
        lat = conv2d(C[7], store["lateral/7/weight"], store["lateral/7/bias"])
        assert np.array_equal(seen["p_prime/7"].data, lat.data)

    def test_bidirectional_reach(self, mini_cfg):
        store = revfp_params(mini_cfg)
        C = extend_stem(synth_backbone(mini_cfg), store, mini_cfg)
        base = revfp_forward(C, store, mini_cfg)

        low = C[3].data.copy()
        low[0, 0, 0, 0] += 1.0
        up_out = revfp_forward(C.with_level(3, Tensor(low)), store, mini_cfg)
        assert not np.array_equal(base[7].data, up_out[7].data)

        high = C[7].data.copy()
        high[0, 0, 0, 0] += 1.0
        down_out = revfp_forward(C.with_level(7, Tensor(high)), store, mini_cfg)
        assert not np.array_equal(base[6].data, down_out[6].data)

    def test_severed_chain_locality(self, mini_cfg):
        """Forcing post gates to exactly 1 cuts the chain: a bumped stage j
        reaches only outputs j-1 and j."""
        store = _severed_store(revfp_params(mini_cfg), mini_cfg)
        C = extend_stem(synth_backbone(mini_cfg), store, mini_cfg)
        base = revfp_forward(C, store, mini_cfg)
        for j in mini_cfg.stage_levels():
            data = C[j].data.copy()
            data[0, 0, 0, 0] += 1.0
            moved = revfp_forward(C.with_level(j, Tensor(data)), store, mini_cfg)
            for i in mini_cfg.levels():
                same = np.array_equal(base[i].data, moved[i].data)
                assert same == (i not in (j - 1, j)), f"C{j} -> P{i}"

    def test_missing_level_rejected(self, mini_cfg):
        store = revfp_params(mini_cfg)
        C = synth_backbone(mini_cfg)  # stem never applied
        with pytest.raises(ValueError, match="missing level"):
            revfp_forward(C, store, mini_cfg)
