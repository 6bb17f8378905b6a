"""Peak Python-heap bytes of one desk-width call, seed 7.

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

import pytest

from rcnet import csn, fixtures, revfp, tensor
from rcnet.checks import run_invariants
from rcnet.config import desk_config
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


def test_rcnet_forward_backward_peak(desk):
    # a loss like the paper-train workload's; 48.8 MiB while backward
    # copied each grad that add hands to both inputs or that tsum and the
    # global pool broadcast, and formed a broadcast operand's whole mul
    # product only to sum it away; 43.9 now
    cfg, rp, cp, C = desk
    projs = {
        i: SplitMix64(i).standard_normal((cfg.batch, cfg.d) + cfg.resolution(i))
        for i in cfg.levels()
    }
    params = rp.tensors() + cp.tensors()

    def pass_():
        with tensor.Tape() as tape:
            out = csn.rcnet_forward(C, cfg, rp, cp)
            loss = None
            for i in cfg.levels():
                term = tensor.tsum(tensor.mul(out[i], tensor.Tensor(projs[i])))
                loss = term if loss is None else tensor.add(loss, term)
        tensor.backward(tape, loss)
        return out

    peak = _peak_mib(pass_)
    for t in params:
        t.grad = None
    assert peak < 46.5, f"{peak:.2f} MiB"


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
