"""Peak Python-heap bytes of one desk-width call, seed 7, and of one paper-width pass.

A forward binds no activation past its last read, so its peak is the
widest moment of the pass, not the sum of every stage it has run. Each
bound sits between the peak measured on the current code and the one
measured before the neck forwards and their checks dropped their dead
activations, so a stage that holds a stack-sized map again fails here.

`tracemalloc` counts every numpy buffer and repeats exactly run to run.
Parameters and inputs are built before tracing starts, except where the
call builds its own (the invariant checks).

`fpn_forward` (9.2 MiB) carries no bound: it peaks inside its bottom
level's 3x3 conv, where every live map is read later, so it never moved.
"""

import tracemalloc
import types
import weakref

import numpy as np
import pytest

from rcnet import csn, fixtures, revfp, tensor
from rcnet.checks import run_invariants
from rcnet.config import desk_config, paper_width
from rcnet.rng import SplitMix64

MiB = 2**20


@pytest.fixture(scope="module")
def desk():
    cfg = desk_config(seed=7)
    rp, cp = revfp.revfp_params(cfg), csn.csn_params(cfg)
    return cfg, rp, cp, fixtures.prepare_inputs(cfg, rp)


def _peak_mib(fn) -> float:
    """Largest growth of traced memory over its level at the call, in MiB."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - before) / MiB
    finally:
        if not tracing:
            tracemalloc.stop()


def test_revfp_forward_peak(desk):
    # 13.2 MiB while each fusion held both operands through its conv; 10.9 now
    cfg, rp, _, C = desk
    assert _peak_mib(lambda: revfp.revfp_forward(C, rp, cfg)) < 12.0


def test_rcnet_forward_peak(desk):
    # 23.6 MiB while every stage of the CSN stack stayed bound, 13.6 while
    # the aggregate's residual kept the widened stack alive; 13.0 now
    cfg, rp, cp, C = desk
    assert _peak_mib(lambda: csn.rcnet_forward(C, cfg, rp, cp)) < 14.0


@pytest.fixture(scope="module")
def projs(desk):
    cfg = desk[0]
    return {
        i: tensor.Tensor(SplitMix64(i).standard_normal((cfg.batch, cfg.d) + cfg.resolution(i)))
        for i in cfg.levels()
    }


def _rcnet_loss(desk, projs):
    """The taped rcnet forward under a loss like the paper-train workload's."""
    cfg, rp, cp, C = desk
    out = csn.rcnet_forward(C, cfg, rp, cp)
    loss = None
    for i in cfg.levels():
        term = tensor.tsum(tensor.mul(out[i], projs[i]))
        loss = term if loss is None else tensor.add(loss, term)
    return out, loss


def _pass(desk, projs):
    """One taped forward and backward; the parameters' grads are cleared after it."""
    with tensor.Tape() as tape:
        out, loss = _rcnet_loss(desk, projs)
    tensor.backward(tape, loss)
    _, rp, cp, _ = desk
    for t in rp.tensors() + cp.tensors():
        t.grad = None
    return out


def test_rcnet_forward_backward_peak(desk, projs):
    # 48.8 MiB while backward copied each grad that add hands to both
    # inputs or that tsum and the global pool broadcast, and formed a
    # broadcast operand's whole mul product only to sum it away; 43.9 while
    # the tape kept the outputs of mul, the blends, the norms under the max
    # pools and csn's relu instead of their recipes; 32.2 while it kept the
    # upsamples' outputs and a recipe ran once per read; 29.5 now
    peak = _peak_mib(lambda: _pass(desk, projs))
    assert peak < 31.0, f"{peak:.2f} MiB"


def test_paper_width_forward_backward_peak():
    # the largest pass the benchmark runs (paper-train, d = 256): 129.4 MiB
    # while the tape kept the upsamples' outputs, a recipe ran once per
    # read and each weight vjp held two im2col blocks; 116.4 while a
    # broadcast mul operand's vjp summed its product in slices; 116.6 now
    cfg = paper_width(desk_config(seed=7))
    rp, cp = revfp.revfp_params(cfg), csn.csn_params(cfg)
    desk = (cfg, rp, cp, fixtures.prepare_inputs(cfg, rp))
    projs = {
        i: tensor.Tensor(SplitMix64(i).standard_normal((cfg.batch, cfg.d) + cfg.resolution(i)))
        for i in cfg.levels()
    }
    peak = _peak_mib(lambda: _pass(desk, projs))
    assert peak <= 120.0, f"{peak:.2f} MiB"


def _array_bytes(obj, skip: set, seen: set) -> int:
    """Bytes of the distinct buffers reachable from `obj` through containers and closures.

    A view counts as its base buffer, once; buffers whose id is in `skip`
    are left out.
    """
    if isinstance(obj, np.ndarray):
        while isinstance(obj.base, np.ndarray):
            obj = obj.base
    if id(obj) in seen or id(obj) in skip:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, tensor._Recipe):
        inner = [obj.build, obj.rebuilt]
    elif isinstance(obj, types.FunctionType):
        inner = [c.cell_contents for c in obj.__closure__ or ()]
    elif isinstance(obj, (list, tuple)):
        inner = obj
    else:
        return 0
    return sum(_array_bytes(o, skip, seen) for o in inner)


def test_rcnet_tape_bytes_after_the_forward(desk, projs):
    # what the tape alone keeps, less the parameters and the inputs: 37.8
    # MiB while it kept the fusion blends, the guided maps, the revfp
    # outputs under the max pools and csn's relu output; 26.0 while it kept
    # the upsamples' outputs; 21.3 while the vjps of the loss's constant
    # projections, which never run, kept the rcnet outputs; 20.7 now
    _, rp, cp, C = desk
    leaves = [t.data for t in rp.tensors() + cp.tensors()] + [C[i].data for i in C.levels]
    leaves += [t.data for t in projs.values()]
    skip = {id(a.base if isinstance(a.base, np.ndarray) else a) for a in leaves}
    with tensor.Tape() as tape:
        out, loss = _rcnet_loss(desk, projs)
    del out, loss
    held = _array_bytes(tape._nodes, skip, set()) / MiB
    assert held < 21.0, f"{held:.2f} MiB"


def test_each_recipe_runs_a_fixed_number_of_times_per_backward(desk, projs, monkeypatch):
    # a recipe read by several vjps, or by the recipes of a chain on it
    # (the revfp blend on the guided upsample, the gather's chained
    # upsamples), keeps its rebuild from its first read until the last
    # node or recipe that holds it is freed: no rebuild outlives the sweep
    runs: list[int] = []
    built: list[weakref.ref] = []
    real = tensor._with_recipe

    def counted(out, build):
        k = len(runs)
        runs.append(0)

        def run():
            runs[k] += 1
            arr = build()
            built.append(weakref.ref(arr))
            return arr

        return real(out, run)

    monkeypatch.setattr(tensor, "_with_recipe", counted)
    with tensor.Tape() as tape:
        _, loss = _rcnet_loss(desk, projs)
    assert runs and not any(runs)  # the forward runs none
    tensor.backward(tape, loss)
    _, rp, cp, _ = desk
    for t in rp.tensors() + cp.tensors():
        t.grad = None
    assert max(runs) <= 1, sorted(runs)[-5:]
    assert built and not any(ref() is not None for ref in built)


@pytest.mark.parametrize(
    "check, bound",
    [
        # 27.8 MiB with the full forward's dead stacks; 17.1 now
        ("determinism_forward", 21.0),
        # 22.7 MiB with two bumped pyramids held at once, 20.3 with each
        # fusion's operands held through its conv; 18.0 now
        ("revfp_bidirectional", 19.5),
        ("revfp_locality", 18.5),
        # 22.7 MiB while the probes kept every blend and operand pair; 14.85 now
        ("fusion_convexity", 14.9),
        # 20.2 MiB while the probes kept every probed map; 14.85 now
        ("boundary_rules", 14.9),
    ],
)
def test_invariant_check_peak(check, bound):
    cfg = desk_config(seed=7)
    peak = _peak_mib(lambda: run_invariants(cfg, [check]))
    assert peak < bound, f"{check}: {peak:.2f} MiB"
