"""Stacking, circulant shifting, aggregation, context, and scattering."""

import numpy as np
import pytest

from rcnet import counting
from rcnet.config import SHIFT_OFFSETS
from rcnet.csn import (
    csn_forward,
    csn_params,
    dual_global_context,
    gather_to_reference,
    scale_shift,
    scatter_and_combine,
    shift_aggregate,
)
from rcnet.pyramid import FeaturePyramid
from rcnet.rng import SplitMix64
from rcnet.tensor import (
    Tensor,
    bilinear_upsample_x2,
    channel_norm,
    conv2d,
    maxpool2d,
    relu,
    reshape,
    transpose,
)


def rand(shape, seed=0):
    return Tensor(SplitMix64(seed).standard_normal(shape))


def random_pyramid(cfg, seed=1):
    tensors = {}
    for i in cfg.levels():
        tensors[i] = rand((cfg.batch, cfg.d) + cfg.resolution(i), seed + i)
    return FeaturePyramid(tensors)


class TestGather:
    def test_reference_slice_is_copy(self, mini_cfg):
        P = random_pyramid(mini_cfg)
        S = gather_to_reference(P, mini_cfg.k)
        s = mini_cfg.k - mini_cfg.l_min
        assert np.array_equal(S.data[:, :, s], P[mini_cfg.k].data)

    def test_constant_pyramid_constant_stack(self, mini_cfg):
        tensors = {
            i: Tensor(np.full((1, mini_cfg.d) + mini_cfg.resolution(i), 0.4))
            for i in mini_cfg.levels()
        }
        S = gather_to_reference(FeaturePyramid(tensors), mini_cfg.k)
        assert np.array_equal(S.data, np.full(S.shape, 0.4))

    def test_matches_resize_composition(self, mini_cfg):
        P = random_pyramid(mini_cfg, seed=5)
        S = gather_to_reference(P, mini_cfg.k)
        for s, i in enumerate(mini_cfg.levels()):
            x = P[i]
            if i < mini_cfg.k:
                for _ in range(mini_cfg.k - i):
                    x = maxpool2d(x)
            else:
                for _ in range(i - mini_cfg.k):
                    x = bilinear_upsample_x2(x)
            assert np.array_equal(S.data[:, :, s], x.data), f"level {i}"


class TestScaleShift:
    def test_block_routing_levels_3_to_7(self):
        """Level-6 output blocks must come from levels 4, 5, 7, 3 for
        offsets -2, -1, +1, +2 (circulant wrap at the top)."""
        d, blk = 16, 2
        levels = list(range(3, 8))
        S = rand((1, d, 5, 4, 4), 10)
        out = scale_shift(S, blk)
        assert out.shape[1] == d + 4 * blk
        sources = {-2: 4, -1: 5, 1: 7, 2: 3}
        s_out = levels.index(6)
        for b, off in enumerate(SHIFT_OFFSETS):
            got = out.data[:, d + b * blk : d + (b + 1) * blk, s_out]
            want = S.data[:, b * blk : (b + 1) * blk, levels.index(sources[off])]
            assert np.array_equal(got, want), f"offset {off}"

    def test_original_channels_pass_through(self):
        S = rand((2, 8, 5, 3, 3), 11)
        out = scale_shift(S, 1)
        assert np.array_equal(out.data[:, :8], S.data)

    def test_no_shift_plan_is_identity(self):
        # no config yields block 0 (d > 0 and 4r | d give d / (4r) >= 1),
        # so a zero block is rejected rather than read as "no shift"
        S = rand((1, 8, 5, 3, 3), 12)
        with pytest.raises(ValueError, match="blocks of 0"):
            scale_shift(S, 0)

    def test_circulant_equivariance_all_rotations(self):
        S = rand((1, 8, 5, 3, 3), 13)
        base = scale_shift(S, 2).data
        for t in range(5):
            rolled = scale_shift(Tensor(np.roll(S.data, t, axis=2)), 2).data
            assert np.array_equal(rolled, np.roll(base, t, axis=2)), f"rotation {t}"

    def test_shifted_blocks_are_a_bijection(self):
        """Filling the shiftable channels with unique values, each value must
        appear exactly once among the shifted output blocks."""
        d, blk, n = 8, 2, 5
        data = np.zeros((1, d, n, 1, 1))
        data[0, : 4 * blk] = np.arange(4 * blk * n).reshape(4 * blk, n, 1, 1)
        out = scale_shift(Tensor(data), blk).data
        moved = out[0, d:, :, 0, 0]
        assert sorted(moved.ravel().tolist()) == list(range(4 * blk * n))

    def test_plan_validation(self):
        S = rand((1, 8, 5, 3, 3), 14)
        assert scale_shift(S, 2).shape[1] == 16  # 4 * block == d fits exactly
        with pytest.raises(ValueError, match="do not fit"):
            scale_shift(S, 3)  # 4 * 3 > 8 channels
        with pytest.raises(ValueError, match="do not fit"):
            scale_shift(rand((1, 8, 3, 3), 14), 1)  # not a 5-D stack


class TestShiftAggregate:
    def test_identity_at_init(self, mini_cfg):
        store = csn_params(mini_cfg)
        S = rand((1, mini_cfg.d, 5, 8, 8), 15)
        out = shift_aggregate(S, store, mini_cfg.shift_block)
        assert np.array_equal(out.data, S.data)

    def test_matches_fold_compose_oracle(self, mini_cfg):
        d = mini_cfg.d
        store = csn_params(mini_cfg).with_overrides({
            "aggregate/project/weight": SplitMix64(16).standard_normal((d, d, 1, 1)),
            "aggregate/project/bias": SplitMix64(17).standard_normal((d,)),
        })
        S = rand((2, d, 5, 4, 4), 18)
        shifted = scale_shift(S, mini_cfg.shift_block)
        got = shift_aggregate(S, store, mini_cfg.shift_block).data

        n_, c, s, h, w = shifted.shape
        x = reshape(transpose(shifted, (0, 2, 1, 3, 4)), (n_ * s, c, h, w))
        x = conv2d(x, store["aggregate/reduce/weight"], store["aggregate/reduce/bias"])
        x = relu(channel_norm(x, store["aggregate/norm/gamma"], store["aggregate/norm/beta"]))
        x = conv2d(x, store["aggregate/project/weight"], store["aggregate/project/bias"])
        x = transpose(reshape(x, (n_, s, d, h, w)), (0, 2, 1, 3, 4))
        want = S.data + x.data
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_channel_mismatch_rejected(self, mini_cfg):
        store = csn_params(mini_cfg)
        with pytest.raises(ValueError, match="channels"):
            # one channel per shifted block where the reduce conv expects two
            shift_aggregate(rand((1, mini_cfg.d, 5, 4, 4), 19), store, 1)


class TestDualGlobalContext:
    def test_identity_at_init(self, mini_cfg):
        store = csn_params(mini_cfg)
        Y = rand((1, mini_cfg.d, 5, 8, 8), 20)
        out = dual_global_context(Y, store)
        assert np.array_equal(out.data, Y.data)

    def test_constant_stack_uniform_weights(self, mini_cfg):
        store = csn_params(mini_cfg)
        Y = Tensor(np.full((1, mini_cfg.d, 5, 8, 8), 1.3))
        seen = {}
        with counting.probes(seen.__setitem__):
            dual_global_context(Y, store)
        a, a2 = seen["scale_weights"].data, seen["spatial_weights"].data
        assert np.max(np.abs(a - 1.0)) <= 1e-12
        assert np.max(np.abs(a2 - 1.0)) <= 1e-12

    def test_mean_weight_is_one(self, mini_cfg):
        store = csn_params(mini_cfg)
        Y = rand((2, mini_cfg.d, 5, 4, 4), 21)
        seen = {}
        with counting.probes(seen.__setitem__):
            dual_global_context(Y, store)
        assert np.max(np.abs(seen["scale_weights"].data.mean(axis=2) - 1.0)) <= 1e-12
        assert np.max(np.abs(seen["spatial_weights"].data.mean(axis=(2, 3)) - 1.0)) <= 1e-12

    def test_matches_step_by_step_oracle(self, mini_cfg):
        d = mini_cfg.d
        store = csn_params(mini_cfg).with_overrides({
            "context/scale/out/weight": SplitMix64(22).standard_normal((d, d, 1, 1)),
            "context/spatial/out/weight": SplitMix64(23).standard_normal((d, d, 1, 1)),
        })
        Y = rand((1, d, 5, 4, 4), 24)
        got = dual_global_context(Y, store).data

        def lin(x, name):  # pointwise channel mix, numpy side
            w = store[f"{name}/weight"].data[:, :, 0, 0]
            b = store[f"{name}/bias"].data
            return np.einsum("oc,bc...->bo...", w, x) + b.reshape((1, -1) + (1,) * (x.ndim - 2))

        u = Y.data.mean(axis=(3, 4))  # [N, d, n]
        v = lin(u, "context/scale/mid")
        e = np.exp(v - v.max(axis=2, keepdims=True))
        a = 5.0 * e / e.sum(axis=2, keepdims=True)
        y1 = Y.data * a[..., None, None]
        out1 = lin(y1.mean(axis=2), "context/scale/out")[:, :, None]

        m = Y.data.mean(axis=2)  # [N, d, h, w]
        v2 = lin(m, "context/spatial/mid")
        e2 = np.exp(v2 - v2.max(axis=(2, 3), keepdims=True))
        a2 = 16.0 * e2 / e2.sum(axis=(2, 3), keepdims=True)
        y2 = Y.data * a2[:, :, None]
        out2 = lin(y2.mean(axis=(3, 4)), "context/spatial/out")[..., None, None]

        assert np.max(np.abs(got - (Y.data + out1 + out2))) <= 1e-12


class TestScatter:
    def test_zero_stack_is_additive_identity(self, mini_cfg):
        P = random_pyramid(mini_cfg, seed=30)
        hk, wk = mini_cfg.resolution(mini_cfg.k)
        zeros = Tensor(np.zeros((1, mini_cfg.d, 5, hk, wk)))
        out = scatter_and_combine(zeros, P, mini_cfg.k)
        for i in mini_cfg.levels():
            assert np.array_equal(out[i].data, P[i].data)

    def test_reference_level_added_without_resampling(self, mini_cfg):
        P = random_pyramid(mini_cfg, seed=31)
        hk, wk = mini_cfg.resolution(mini_cfg.k)
        Yc = rand((1, mini_cfg.d, 5, hk, wk), 32)
        out = scatter_and_combine(Yc, P, mini_cfg.k)
        s = mini_cfg.k - mini_cfg.l_min
        want = P[mini_cfg.k].data + Yc.data[:, :, s]
        assert np.array_equal(out[mini_cfg.k].data, want)

    def test_matches_resize_add_composition(self, mini_cfg):
        P = random_pyramid(mini_cfg, seed=33)
        hk, wk = mini_cfg.resolution(mini_cfg.k)
        Yc = rand((1, mini_cfg.d, 5, hk, wk), 34)
        out = scatter_and_combine(Yc, P, mini_cfg.k)
        for s, i in enumerate(mini_cfg.levels()):
            x = Tensor(Yc.data[:, :, s])
            if i < mini_cfg.k:
                for _ in range(mini_cfg.k - i):
                    x = bilinear_upsample_x2(x)
            else:
                for _ in range(i - mini_cfg.k):
                    x = maxpool2d(x)
            assert np.array_equal(out[i].data, P[i].data + x.data), f"level {i}"


class TestCsnForward:
    def test_shapes_preserved(self, mini_cfg):
        P = random_pyramid(mini_cfg, seed=40)
        out = csn_forward(P, mini_cfg, csn_params(mini_cfg))
        for i in mini_cfg.levels():
            assert out[i].shape == P[i].shape

    def test_init_reduces_to_resize_roundtrip(self, mini_cfg):
        P = random_pyramid(mini_cfg, seed=41)
        out = csn_forward(P, mini_cfg, csn_params(mini_cfg))
        for i in mini_cfg.levels():
            x = P[i]
            steps = abs(mini_cfg.k - i)
            down_first = i < mini_cfg.k
            for _ in range(steps):
                x = maxpool2d(x) if down_first else bilinear_upsample_x2(x)
            for _ in range(steps):
                x = bilinear_upsample_x2(x) if down_first else maxpool2d(x)
            assert np.max(np.abs(out[i].data - (P[i].data + x.data))) <= 1e-12

    def test_top_level_reaches_bottom(self, mini_cfg):
        d = mini_cfg.d
        store = csn_params(mini_cfg).with_overrides(
            {"aggregate/project/weight": SplitMix64(42).standard_normal((d, d, 1, 1))}
        )
        P = random_pyramid(mini_cfg, seed=43)
        base = csn_forward(P, mini_cfg, store)
        top = P[7].data.copy()
        top[0, mini_cfg.shift_block, 0, 0] += 1.0
        moved = csn_forward(P.with_level(7, Tensor(top)), mini_cfg, store)
        assert not np.array_equal(base[3].data, moved[3].data)
