"""Seeded fixtures, the stem extension, and the FPZ1 container."""

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from rcnet import rng
from rcnet.config import desk_config, paper_width
from rcnet.fixtures import extend_stem, stem_params, synth_backbone
from rcnet.params import ParamStore
from rcnet.pyramid import (
    BadMagicError,
    BlobLengthError,
    ContainerError,
    FeaturePyramid,
    HeaderError,
    PayloadError,
    PyramidError,
    load_pyramid,
    pyramid_digest,
    save_pyramid,
)
from rcnet.rng import SplitMix64, fold_seed
from rcnet.tensor import Tensor, conv2d, pad2d, relu


class _OracleSplitMix64:
    """The stream's defining formula, one whole-array numpy expression a step."""

    def __init__(self, seed: int):
        self._seed = np.uint64(seed)
        self._drawn = 0

    def words(self, count):
        start = self._drawn + 1
        self._drawn += count
        z = self._seed + np.arange(start, start + count, dtype=np.uint64) * np.uint64(
            0x9E3779B97F4A7C15
        )
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))

    def uniforms(self, count):
        return ((self.words(count) >> np.uint64(11)).astype(np.float64) + 1.0) * (2.0**-53)

    def standard_normal(self, shape=()):
        n = int(np.prod(shape)) if shape else 1
        pairs = (n + 1) // 2
        u1 = self.uniforms(pairs)
        u2 = self.uniforms(pairs)
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.empty(2 * pairs, dtype=np.float64)
        z[0::2] = r * np.cos(theta)
        z[1::2] = r * np.sin(theta)
        return z[:n].reshape(shape)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


_B = rng._BLOCK
_T = rng._THREAD_MIN
# item counts (pairs, for normals) around a block boundary and on both sides
# of the switch to threads; 8191-8193 fall inside one block, and 131073 ends
# a threaded draw on a one-item block
_ITEMS = [1, 3, 8191, 8192, 8193, _B - 1, _B, _B + 1, _T - 1, _T, _T + 1, 131073]


class TestSplitMix:
    def test_batching_independence(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        joined = np.concatenate([a.words(3), a.words(4)])
        assert np.array_equal(joined, b.words(7))

    def test_known_words(self):
        # frozen from the documented recurrence; guards the stream definition
        assert list(SplitMix64(0).words(3)) == [
            16294208416658607535,
            7960286522194355700,
            487617019471545679,
        ]

    def test_known_normals(self):
        # frozen before the blocked kernel; guards the normal stream's bits
        first = SplitMix64(0).standard_normal((4,))
        assert [float(v).hex() for v in first] == [
            "0x1.f716c62582fc8p-2",
            "0x1.5156175ba95f4p-4",
            "0x1.465bb6990b426p+0",
            "-0x1.e311ef3c983efp-3",
        ]
        # pair 8192 of a 8193-pair draw, frozen when a block was 8192 pairs
        past = SplitMix64(0).standard_normal((16386,))
        assert float(past[16384]).hex() == "-0x1.ac1e0384bfda2p-5"
        assert float(past[16385]).hex() == "-0x1.3c2a1e0efaf33p-1"

    def test_fold_seed_separates_labels(self):
        assert fold_seed(7, "a") != fold_seed(7, "b")
        assert fold_seed(7, "a") == fold_seed(7, "a")

    def test_normals_reshape_row_major(self):
        flat = SplitMix64(5).standard_normal((6,))
        square = SplitMix64(5).standard_normal((2, 3))
        assert np.array_equal(flat.reshape(2, 3), square)

    @pytest.mark.parametrize("shape", [(-1,), (2, -3)])
    def test_negative_extent_rejected(self, shape):
        # a negative extent used to give an empty array; words(-1) raises too
        with pytest.raises(ValueError, match="negative extent"):
            SplitMix64(1).standard_normal(shape)

    def test_scalar_draw(self):
        assert SplitMix64(0).standard_normal(()).shape == ()
        assert SplitMix64(0).standard_normal(()) == SplitMix64(0).standard_normal((1,))[0]

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    @pytest.mark.parametrize("items", _ITEMS)
    def test_matches_the_formula_bitwise(self, seed, items, monkeypatch):
        # three threads share the large draws on any machine
        monkeypatch.setattr(rng, "_cpus", lambda: 3)
        for kind, arg in [
            ("words", items),
            ("standard_normal", (2 * items,)),
            ("standard_normal", (2 * items - 1,)),
        ]:
            got = getattr(SplitMix64(seed), kind)(arg)
            assert _same_bits(got, getattr(_OracleSplitMix64(seed), kind)(arg)), (kind, arg)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_small_shapes_match_the_formula_bitwise(self, seed):
        for shape in [(), (1,), (7,), (3, 5, 7), (0,)]:
            got = SplitMix64(seed).standard_normal(shape)
            assert _same_bits(got, _OracleSplitMix64(seed).standard_normal(shape)), shape

    def test_interleaved_draws_match_the_formula_bitwise(self):
        ours, oracle = SplitMix64(2**64 - 1), _OracleSplitMix64(2**64 - 1)
        for kind, arg in [
            ("standard_normal", (5,)), ("words", 3), ("words", _B + 1),
            ("standard_normal", (2, _B + 3)), ("words", _T + 5), ("standard_normal", ()),
            ("words", 2), ("standard_normal", (2 * _T + 3,)), ("words", 1),
        ]:
            got, want = getattr(ours, kind)(arg), getattr(oracle, kind)(arg)
            assert _same_bits(got, want), (kind, arg)

    @pytest.mark.parametrize(
        "step, dtype, width",
        [(rng._words_step, np.uint64, None), (rng._normals_step, np.float64, 2)],
    )
    def test_fill_bits_do_not_depend_on_the_split(self, step, dtype, width):
        n, seed, first = 3 * _B + 17, np.uint64(2**64 - 1), 12345
        shape = (n,) if width is None else (n, width)
        scratch = np.empty((4, _B), dtype=np.uint64)
        whole = np.empty(shape, dtype=dtype)
        rng._fill(step, whole, 0, n, seed, first, scratch)
        for cuts in [(1,), (_B, 2 * _B + 5), (2, 4099, 3 * _B)]:
            parts = np.zeros(shape, dtype=dtype)
            bounds = (0, *cuts, n)
            for lo, hi in reversed(list(zip(bounds, bounds[1:]))):
                rng._fill(step, parts, lo, hi, seed, first, scratch)
            assert _same_bits(parts, whole), cuts

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(rng, "_cpus", lambda: 2)
        main = threading.main_thread()

        def failing_step(out, a, b, seed, first, scratch):
            if threading.current_thread() is main:
                time.sleep(0.01)  # leave blocks for the worker to claim
            else:
                raise RuntimeError("worker failed")

        with pytest.raises(RuntimeError, match="worker failed"):
            rng._draw(failing_step, np.empty(_T), np.uint64(1), 1)

    def test_every_block_claimed_once_under_contention(self, monkeypatch):
        # more threads than cores, switching as often as the interpreter
        # allows: a lost or doubled claim would skip or repeat a block
        monkeypatch.setattr(rng, "_cpus", lambda: 8)
        claimed, normals_step = [], rng._normals_step

        def counting_step(out, a, b, seed, first, scratch):
            claimed.append(a)
            normals_step(out, a, b, seed, first, scratch)

        monkeypatch.setattr(rng, "_normals_step", counting_step)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = SplitMix64(3).standard_normal((2 * _T + 5,))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(claimed) == list(range(0, _T + 3, _B))
        assert _same_bits(got, _OracleSplitMix64(3).standard_normal((2 * _T + 5,)))

    def test_one_cpu_process_draws_the_same_bits(self, monkeypatch):
        # a child pinned to one CPU fills every draw on its calling thread;
        # the parent is made to share large draws among three threads
        if not hasattr(os, "sched_setaffinity"):
            pytest.skip("os.sched_setaffinity is not available")
        monkeypatch.setattr(rng, "_cpus", lambda: 3)
        cfg = paper_width(desk_config(seed=7))
        cpu = min(os.sched_getaffinity(0))
        child = subprocess.run(
            [sys.executable, "-c", _PINNED_DIGEST, str(cpu), json.dumps(cfg.to_dict())],
            capture_output=True, text=True, timeout=120, check=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert child.stdout.split() == ["1", _backbone_digest(cfg)]


def _backbone_digest(cfg) -> str:
    h = hashlib.sha256()
    for _, t in synth_backbone(cfg).items():
        h.update(t.data.tobytes())
    return h.hexdigest()


# the same digest, in a child process pinned to the CPU named by argv[1]
_PINNED_DIGEST = """
import hashlib, json, os, sys
os.sched_setaffinity(0, {int(sys.argv[1])})
from rcnet import rng
from rcnet.config import NeckConfig
from rcnet.fixtures import synth_backbone
h = hashlib.sha256()
for _, t in synth_backbone(NeckConfig(**json.loads(sys.argv[2]))).items():
    h.update(t.data.tobytes())
print(rng._cpus(), h.hexdigest())
"""


class TestSynthBackbone:
    def test_same_seed_bitwise_identical(self, mini_cfg):
        a = synth_backbone(mini_cfg)
        b = synth_backbone(mini_cfg)
        assert a.equal_bitwise(b)

    def test_different_seed_differs(self, mini_cfg):
        a = synth_backbone(mini_cfg)
        b = synth_backbone(mini_cfg.replace(seed=mini_cfg.seed + 1))
        assert not a.equal_bitwise(b)

    def test_level_shapes(self, mini_cfg):
        pyr = synth_backbone(mini_cfg)
        assert pyr.levels == [3, 4, 5]
        assert pyr[3].shape == (1, 8, 32, 32)
        assert pyr[5].shape == (1, 16, 8, 8)

    def test_sample_mean_within_statistical_bound(self, desk_cfg):
        pyr = synth_backbone(desk_cfg)
        for i in pyr.levels:
            data = pyr[i].data
            bound = 5.0 / np.sqrt(data.size)  # 5 sigma / sqrt(n) for unit normals
            assert abs(data.mean()) < bound, f"level {i} mean {data.mean():.4f}"


class TestExtendStem:
    def test_adds_two_halved_levels(self, mini_cfg):
        store = stem_params(ParamStore(1), mini_cfg)
        out = extend_stem(synth_backbone(mini_cfg), store, mini_cfg)
        assert out.levels == [3, 4, 5, 6, 7]
        assert out[6].shape == (1, 16, 4, 4)
        assert out[7].shape == (1, 16, 2, 2)

    def test_zero_weights_give_bias_maps(self, mini_cfg):
        store = ParamStore(1)
        store.constant("stem/c6/weight", (16, 16, 3, 3), 0.0)
        store.constant("stem/c6/bias", (16,), 0.25)
        store.constant("stem/c7/weight", (16, 16, 3, 3), 0.0)
        store.constant("stem/c7/bias", (16,), -0.5)
        out = extend_stem(synth_backbone(mini_cfg), store, mini_cfg)
        assert np.array_equal(out[6].data, np.full((1, 16, 4, 4), 0.25))
        assert np.array_equal(out[7].data, np.full((1, 16, 2, 2), -0.5))

    def test_matches_conv_composition_oracle(self, mini_cfg):
        store = stem_params(ParamStore(3), mini_cfg)
        C = synth_backbone(mini_cfg)
        out = extend_stem(C, store, mini_cfg)
        c6 = conv2d(
            pad2d(C[5], 1, 0, 1, 0), store["stem/c6/weight"], store["stem/c6/bias"], stride=2
        )
        c7 = conv2d(
            pad2d(relu(c6), 1, 0, 1, 0), store["stem/c7/weight"], store["stem/c7/bias"], stride=2
        )
        assert np.array_equal(out[6].data, c6.data)
        assert np.array_equal(out[7].data, c7.data)

    def test_existing_level_rejected(self, mini_cfg):
        store = stem_params(ParamStore(1), mini_cfg)
        extended = extend_stem(synth_backbone(mini_cfg), store, mini_cfg)
        with pytest.raises(ValueError, match="highest present level"):
            extend_stem(extended, store, mini_cfg)


class TestContainer:
    def test_roundtrip_bitwise(self, mini_cfg, tmp_path):
        pyr = synth_backbone(mini_cfg)
        path = tmp_path / "p.fpz"
        save_pyramid(str(path), pyr, seed=mini_cfg.seed, config=mini_cfg.to_dict())
        assert load_pyramid(str(path)).equal_bitwise(pyr)

    def test_bad_magic(self, mini_cfg, tmp_path):
        path = tmp_path / "bad.fpz"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(BadMagicError):
            load_pyramid(str(path))

    def test_malformed_header(self, mini_cfg, tmp_path):
        path = tmp_path / "hdr.fpz"
        junk = b"{not json"
        path.write_bytes(b"FPZ1" + len(junk).to_bytes(4, "little") + junk)
        with pytest.raises(HeaderError):
            load_pyramid(str(path))

    @pytest.mark.parametrize(
        "junk", [b"[" * 200000, b'{"levels": ' + b"7" * 5000 + b"}"], ids=["deep", "long_int"]
    )
    def test_header_past_the_json_limits(self, junk, tmp_path):
        # a nesting past the recursion limit, and an integer past Python's
        # int-string digit limit, are malformed headers like any other
        path = tmp_path / "hdr.fpz"
        path.write_bytes(b"FPZ1" + len(junk).to_bytes(4, "little") + junk)
        with pytest.raises(HeaderError):
            load_pyramid(str(path))

    def test_truncated_blob(self, mini_cfg, tmp_path):
        blob = _oracle_bytes(synth_backbone(mini_cfg))
        path = tmp_path / "trunc.fpz"
        path.write_bytes(blob[:-16])
        with pytest.raises(BlobLengthError):
            load_pyramid(str(path))

    def test_trailing_bytes(self, mini_cfg, tmp_path):
        blob = _oracle_bytes(synth_backbone(mini_cfg))
        path = tmp_path / "extra.fpz"
        path.write_bytes(blob + b"\x00" * 8)
        with pytest.raises(BlobLengthError):
            load_pyramid(str(path))

    def test_header_with_wrong_extents(self, mini_cfg, tmp_path):
        # keep the element count (so blob lengths still line up) but declare
        # extents that break the halving invariant
        blob = _oracle_bytes(synth_backbone(mini_cfg))
        head_len = int.from_bytes(blob[4:8], "little")
        header = json.loads(blob[8 : 8 + head_len])
        assert header["shapes"]["4"] == [1, 12, 16, 16]
        header["shapes"]["4"] = [1, 8, 16, 24]  # 12*16*16 == 8*16*24 elements
        head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path = tmp_path / "shape.fpz"
        path.write_bytes(b"FPZ1" + len(head).to_bytes(4, "little") + head + blob[8 + head_len :])
        with pytest.raises(PyramidError):
            load_pyramid(str(path))

    @pytest.mark.parametrize("which", ["mini", "desk", "transposed"])
    def test_bytes_and_digest_match_the_joined_serializer(self, which, mini_cfg, desk_cfg, tmp_path):
        if which == "transposed":  # a level that is a non-contiguous view
            base = SplitMix64(4).standard_normal((1, 3, 8, 8))
            pyr = FeaturePyramid(
                {3: Tensor(base.transpose(0, 1, 3, 2)), 4: Tensor(np.zeros((1, 3, 4, 4)))}
            )
            assert not pyr[3].data.flags.c_contiguous
            cfg = None
        else:
            cfg = mini_cfg if which == "mini" else desk_cfg
            pyr = synth_backbone(cfg)
        seed, config = (None, None) if cfg is None else (cfg.seed, cfg.to_dict())
        path = tmp_path / "p.fpz"
        save_pyramid(str(path), pyr, seed=seed, config=config)
        assert path.read_bytes() == _oracle_bytes(pyr, seed=seed, config=config)
        assert pyramid_digest(pyr) == hashlib.sha256(_oracle_bytes(pyr)).hexdigest()
        assert load_pyramid(str(path)).equal_bitwise(pyr)

    def test_pyramid_invariants_enforced(self):
        with pytest.raises(PyramidError, match="not consecutive"):
            FeaturePyramid({3: Tensor(np.zeros((1, 2, 8, 8))), 5: Tensor(np.zeros((1, 2, 2, 2)))})
        with pytest.raises(PyramidError, match="not half"):
            FeaturePyramid({3: Tensor(np.zeros((1, 2, 8, 8))), 4: Tensor(np.zeros((1, 2, 3, 3)))})
        with pytest.raises(PyramidError, match="batch"):
            FeaturePyramid({3: Tensor(np.zeros((1, 2, 8, 8))), 4: Tensor(np.zeros((2, 2, 4, 4)))})


class TestConfigValidation:
    def test_violations_enumerated(self):
        from rcnet.config import NeckConfig

        with pytest.raises(ValueError) as err:
            NeckConfig(
                l_min=3, l_max=6, d=30, backbone_channels=(8, 12), r=4, k=9,
                batch=0, base_resolution=(31, 32), seed=1,
            )
        message = str(err.value)
        for fragment in ["at least 5 levels", "divisible by 4*r", "k=9", "batch=0", "31"]:
            assert fragment in message

    def test_one_width_per_level_is_rejected(self, mini_cfg):
        # levels above 5 come from the stem only, so the backbone gives 3..5
        with pytest.raises(ValueError, match=r"backbone_channels has 5 entries; need 3"):
            mini_cfg.replace(backbone_channels=[8, 12, 16, 24, 24])

    def test_paper_width_gives_stages_below_level_2_the_neck_width(self):
        # ResNet has no stage width for level 1; --paper-width must still run
        cfg = desk_config(l_min=1, l_max=6, k=3, backbone_channels=(8, 8, 16, 32, 64))
        assert paper_width(cfg).backbone_channels == (256, 256, 512, 1024, 2048)


def _oracle_bytes(pyr: FeaturePyramid, seed=None, config=None) -> bytes:
    """The container as one joined bytes object, each level copied out by `tobytes`."""
    header = {
        "levels": pyr.levels,
        "shapes": {str(i): list(pyr[i].shape) for i in pyr.levels},
        "dtype": "f64le",
        "seed": seed,
        "config": config,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [b"FPZ1", len(head).to_bytes(4, "little"), head]
    for i in pyr.levels:
        parts.append(np.ascontiguousarray(pyr[i].data, dtype="<f8").tobytes())
    return b"".join(parts)


def _mini_container() -> bytes:
    return _oracle_bytes(
        FeaturePyramid(
            {3: Tensor(SplitMix64(1).standard_normal((1, 2, 4, 4))),
             4: Tensor(SplitMix64(2).standard_normal((1, 2, 2, 2)))}
        )
    )


def _split(blob: bytes) -> tuple[dict, bytes]:
    head_len = int.from_bytes(blob[4:8], "little")
    return json.loads(blob[8 : 8 + head_len]), blob[8 + head_len :]


def _join(header: dict, payload: bytes) -> bytes:
    head = json.dumps(header).encode()
    return b"FPZ1" + len(head).to_bytes(4, "little") + head + payload


class TestLoaderBoundary:
    """Malformed containers fail with a ContainerError or PyramidError subclass only."""

    def _load(self, tmp_path, blob: bytes):
        path = tmp_path / "case.fpz"
        path.write_bytes(blob)
        return load_pyramid(str(path))

    def test_shapes_list_rejected(self, tmp_path):
        header, payload = _split(_mini_container())
        header["shapes"] = [header["shapes"]["3"], header["shapes"]["4"]]
        with pytest.raises(HeaderError, match="shapes"):
            self._load(tmp_path, _join(header, payload))

    def test_int64_overflowing_extent_product_rejected(self, tmp_path):
        header, payload = _split(_mini_container())
        header["shapes"]["3"] = [1, 2**32, 2**32, 1]  # the product wraps to 0 in int64
        with pytest.raises(BlobLengthError, match="needs"):
            self._load(tmp_path, _join(header, payload))

    def test_level_larger_than_the_file_rejected_before_any_allocation(self, tmp_path):
        # a 1 MiB first level, then a level declared far larger than the file:
        # the lengths are checked before either level is allocated
        blob = _oracle_bytes(
            FeaturePyramid(
                {3: Tensor(np.ones((1, 2, 256, 256))), 4: Tensor(np.ones((1, 2, 128, 128)))}
            )
        )
        header, payload = _split(blob)
        header["shapes"]["4"] = [2**40, 1, 1, 1]
        path = tmp_path / "huge.fpz"
        path.write_bytes(_join(header, payload))
        del blob, payload
        tracemalloc.start()
        try:
            with pytest.raises(BlobLengthError, match=f"level 4 blob needs {2**43} bytes"):
                load_pyramid(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, peak

    def test_file_cut_short_after_its_size_was_read(self, tmp_path, monkeypatch):
        # the size the loader checks against is the whole container's, but
        # the last 16 bytes are gone when it reads the blobs
        blob = _mini_container()
        path = tmp_path / "short.fpz"
        path.write_bytes(blob[:-16])
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=len(blob)))
        with pytest.raises(BlobLengthError, match="level 4 blob needs 64 bytes, 48 remain"):
            load_pyramid(str(path))

    def test_negative_extent_rejected(self, tmp_path):
        header, payload = _split(_mini_container())
        header["shapes"]["3"] = [1, -2, 4, 4]
        with pytest.raises(HeaderError, match="non-negative"):
            self._load(tmp_path, _join(header, payload))

    def test_single_3d_level_rejected(self, tmp_path):
        header, payload = _split(_mini_container())
        header["levels"] = [3]
        header["shapes"] = {"3": [2, 4, 4]}
        with pytest.raises(PyramidError, match="4-D"):
            self._load(tmp_path, _join(header, payload[: 2 * 4 * 4 * 8]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected(self, tmp_path, bad):
        header, payload = _split(_mini_container())
        values = np.frombuffer(payload, dtype="<f8").copy()
        values[5] = bad
        with pytest.raises(PayloadError, match="NaN or Inf"):
            self._load(tmp_path, _join(header, values.tobytes()))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda h: h.update(levels="34"),
            lambda h: h.update(levels=[3, 3]),
            lambda h: h.update(levels=[3.0, 4]),
            lambda h: h["shapes"].update({"3": [1, 2, 4.0, 4]}),
            lambda h: h["shapes"].update({"3": [1, 2, True, 16]}),
            lambda h: h["shapes"].update({"3": 32}),
        ],
        ids=["levels-string", "levels-repeated", "level-float", "extent-float", "extent-bool",
             "shape-scalar"],
    )
    def test_malformed_header_fields_rejected(self, tmp_path, edit):
        header, payload = _split(_mini_container())
        edit(header)
        with pytest.raises(HeaderError):
            self._load(tmp_path, _join(header, payload))

    def test_header_that_is_not_an_object_rejected(self, tmp_path):
        with pytest.raises(HeaderError, match="object"):
            self._load(tmp_path, b"FPZ1" + (2).to_bytes(4, "little") + b"[]")

    def test_seeded_byte_fuzz_raises_only_documented_errors(self, tmp_path):
        """Mutate a valid container's header and blob bytes; only the documented errors escape."""
        valid = _mini_container()
        head_end = 8 + int.from_bytes(valid[4:8], "little")
        json_bytes = b'0123456789-+.eE[]{},:" ntrufalsl'
        words = iter(int(w) for w in SplitMix64(fold_seed(0, "fpz1-fuzz")).words(20_000))
        outcomes = {}
        for _ in range(1500):
            blob = bytearray(valid)
            for _ in range(1 + next(words) % 3):
                kind, a, b = next(words) % 6, next(words), next(words)
                payload = len(blob) - head_end
                if kind == 0 and len(blob) > 8:  # a header byte becomes a JSON character
                    blob[8 + a % (min(head_end, len(blob)) - 8)] = json_bytes[b % len(json_bytes)]
                elif kind == 1 and payload > 0:  # any payload byte
                    blob[head_end + a % payload] = b % 256
                elif kind == 2 and payload >= 8:  # a payload double's exponent bits all set
                    at = head_end + 8 * (a % (payload // 8))
                    blob[at + 6] |= 0xF0
                    blob[at + 7] |= 0x7F
                elif kind == 3:  # a byte of the header-length field
                    blob[4 + a % 4] = b % 256
                elif kind == 4:  # truncate
                    del blob[a % len(blob) :]
                elif kind == 5:  # insert a byte
                    blob.insert(a % (len(blob) + 1), json_bytes[b % len(json_bytes)])
            try:
                self._load(tmp_path, bytes(blob))
                outcome = "loaded"
            except (ContainerError, PyramidError) as err:
                outcome = type(err).__name__
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        # the mutations get past the JSON parser to the length and payload checks
        # (a PyramidError needs coordinated extent edits; the tests above make them)
        for name in ("loaded", "HeaderError", "BlobLengthError", "PayloadError"):
            assert outcomes.get(name, 0) > 0, outcomes
