"""The allocator rule: every `backward` sweep hands the free heap back to the OS.

Under glibc, `rcnet.tensor` pins malloc's mmap and trim thresholds, so
maps and im2col blocks come from the heap and a pass reuses its pages.
Each sweep then ends with one `malloc_trim(0)`, a sweep that raises
included, so the pages the freed tape leaves do not stay resident.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rcnet import tensor
from rcnet.tensor import NonFiniteError, Tape, TapeError, Tensor, backward, mul, relu, sqrt, tsum

MiB = 2**20


class _CountingLibc:
    """Stands in for glibc: records each `malloc_trim` call's pad."""

    def __init__(self):
        self.trims: list[int] = []

    def malloc_trim(self, pad: int) -> int:
        self.trims.append(pad)
        return 1


@pytest.fixture
def libc(monkeypatch):
    fake = _CountingLibc()
    monkeypatch.setattr(tensor, "_LIBC", fake)
    return fake


def test_each_sweep_gives_the_heap_back_once(libc):
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    relu(mul(x, x))  # a tape-free forward never gives it back
    assert libc.trims == []
    with Tape() as tape:
        loss = tsum(relu(mul(x, x)))
    assert libc.trims == []
    backward(tape, loss)
    assert libc.trims == [0]
    with pytest.raises(TapeError):  # a refused backward sweeps nothing
        backward(tape, loss)
    assert libc.trims == [0]
    with Tape() as tape:
        loss = tsum(mul(x, x))
    backward(tape, loss)
    assert libc.trims == [0, 0]


def test_a_sweep_that_raises_gives_the_heap_back(libc):
    # d sqrt(x)/dx is inf at x = 0, so the sweep ends in NonFiniteError
    x = Tensor([0.0, 4.0], requires_grad=True, name="x")
    with Tape() as tape:
        loss = tsum(sqrt(x))
    with np.errstate(divide="ignore"), pytest.raises(NonFiniteError, match="leaf 'x'"):
        backward(tape, loss)
    assert libc.trims == [0]


def test_no_c_library_handle_means_no_trim(monkeypatch):
    monkeypatch.setattr(tensor, "_LIBC", None)
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = tsum(mul(x, x))
    backward(tape, loss)
    assert np.array_equal(x.grad, [2.0, 4.0])


# One paper-train-shaped pass (paper width, seed 7, the benchmark's loss) in
# a fresh process; prints VmRSS growth from before the forward to after
# backward, and the bytes the caller still holds then.
_PASS = """
import json
from rcnet import csn, fixtures, revfp, tensor
from rcnet.config import desk_config, paper_width
from rcnet.rng import SplitMix64, fold_seed

def vmrss():
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024

cfg = paper_width(desk_config(seed=7))
rp, cp = revfp.revfp_params(cfg), csn.csn_params(cfg)
C = fixtures.prepare_inputs(cfg, rp)
projs = {
    i: tensor.Tensor(
        SplitMix64(fold_seed(cfg.seed, f"bench/proj/{i}")).standard_normal(
            (cfg.batch, cfg.d) + cfg.resolution(i)
        )
    )
    for i in cfg.levels()
}
before = vmrss()
with tensor.Tape() as tape:
    out = csn.rcnet_forward(C, cfg, rp, cp)
    loss = None
    for i in cfg.levels():
        term = tensor.tsum(tensor.mul(out[i], projs[i]))
        loss = term if loss is None else tensor.add(loss, term)
tensor.backward(tape, loss)
growth = vmrss() - before
grads = [t.grad for t in rp.tensors() + cp.tensors() if t.grad is not None]
live = sum(g.nbytes for g in grads) + sum(t.data.nbytes for _, t in out.items()) + loss.data.nbytes
print(json.dumps({"growth": growth, "live": live}))
"""


@pytest.mark.skipif(tensor._LIBC is None, reason="needs glibc: malloc_trim and /proc/self/status VmRSS")
def test_paper_width_pass_leaves_no_freed_tape_resident():
    # 141 MiB of growth against 58 MiB live while the freed heap stayed
    # resident after backward; 56 MiB with the sweep's trim (2-vCPU VM,
    # numpy 2.4.6, OpenBLAS 0.3.31)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(
        [sys.executable, "-c", _PASS], env=env, capture_output=True, text=True, timeout=300, check=False
    )
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout.splitlines()[-1])
    margin = 40 * MiB
    assert got["growth"] <= got["live"] + margin, {k: f"{v / MiB:.1f} MiB" for k, v in got.items()}
