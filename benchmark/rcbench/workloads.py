"""The three workloads: their set-up, one pass, and the outputs a pass is checked by.

Each is a closed loop with one caller: the next pass starts only after
the previous one returned. Calls into rcnet go through module attributes
(`csn.rcnet_forward`, `tensor.backward`, ...) so the traced run sees them.
"""

from __future__ import annotations

import ctypes
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from rcnet import checks, config, csn, fixtures, fpn, pyramid, revfp, tensor
from rcnet.rng import SplitMix64, fold_seed


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: Callable  # seed -> the NeckConfig the workload runs at
    setup: Callable  # (cfg, tracer, workdir) -> state
    run: Callable  # (state, tracer) -> raw result of one pass
    outputs: Callable  # (state, raw) -> {name: array or check report}
    setup_reps: int  # setup_s is the median of this many set-ups
    warmup: int  # passes run before timing starts, reported apart


# ---------------------------------------------------------------------------
# set-up shared by all workloads


def _init_params(cfg, tracer, *makers):
    with tracer.span("params.init"):
        stores = [make(cfg) for make in makers]
    tracer.count("params.count", sum(s.param_count() for s in stores))
    return stores


def _backbone(cfg, tracer, workdir: Path):
    """Synthetic backbone stages, passed through an FPZ1 file and read back."""
    with tracer.span("fixtures.synth_backbone"):
        C = fixtures.synth_backbone(cfg)
    fd, path = tempfile.mkstemp(suffix=".fpz", dir=workdir)
    os.close(fd)
    try:
        with tracer.span("pyramid.save"):
            pyramid.save_pyramid(path, C, seed=cfg.seed, config=cfg.to_dict())
        tracer.count("pyramid.bytes", os.path.getsize(path))
        with tracer.span("pyramid.load"):
            back = pyramid.load_pyramid(path)
    finally:
        os.unlink(path)
    if not back.equal_bitwise(C):
        raise RuntimeError("FPZ1 round trip changed the backbone")
    return back


def _levels(prefix: str, pyr) -> dict:
    return {f"{prefix}P{i}": t.data for i, t in pyr.items()}


# ---------------------------------------------------------------------------
# paper-train: one rcnet forward + backward at paper width


def _paper_config(seed: int):
    return config.paper_width(config.desk_config(seed=seed))


def _paper_setup(cfg, tracer, workdir):
    rp, cp = _init_params(cfg, tracer, revfp.revfp_params, csn.csn_params)
    C = fixtures.extend_stem(_backbone(cfg, tracer, workdir), rp, cfg)
    projs = {
        i: tensor.Tensor(
            SplitMix64(fold_seed(cfg.seed, f"bench/proj/{i}")).standard_normal(
                (cfg.batch, cfg.d) + cfg.resolution(i)
            )
        )
        for i in cfg.levels()
    }
    return {"cfg": cfg, "rp": rp, "cp": cp, "C": C, "projs": projs}


try:
    _malloc_trim = ctypes.CDLL("libc.so.6").malloc_trim
except (OSError, AttributeError):  # not glibc: freed heap pages may stay counted
    _malloc_trim = None


def _vmrss_bytes() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise RuntimeError("VmRSS missing from /proc/self/status")


def _paper_run(st, tracer):
    cfg = st["cfg"]
    for t in st["rp"].tensors() + st["cp"].tensors():
        t.grad = None
    rss_before = 0
    if tracer.active:
        if _malloc_trim is not None:
            _malloc_trim(0)  # else the heap kept from earlier passes hides this tape
        rss_before = _vmrss_bytes()
    with tensor.Tape() as tape:
        out = csn.rcnet_forward(st["C"], cfg, st["rp"], st["cp"])
        loss = None
        for i in cfg.levels():
            term = tensor.tsum(tensor.mul(out[i], st["projs"][i]))
            loss = term if loss is None else tensor.add(loss, term)
    if tracer.active:
        tracer.count("tensor.tape_rss_bytes", _vmrss_bytes() - rss_before)
    tensor.backward(tape, loss)
    return out, loss


def _paper_outputs(st, raw):
    out, loss = raw
    res = _levels("", out)
    res["loss"] = loss.data
    for label in ("rp", "cp"):
        grads = [t.grad if t.grad is not None else np.zeros_like(t.data) for t in st[label].tensors()]
        res[f"grad.{label}"] = np.concatenate([g.ravel() for g in grads])
    return res


# ---------------------------------------------------------------------------
# desk-infer: fpn, revfp and rcnet forwards at desk width, no tape


def _desk_setup(cfg, tracer, workdir):
    fp, rp, cp = _init_params(cfg, tracer, fpn.fpn_params, revfp.revfp_params, csn.csn_params)
    C = _backbone(cfg, tracer, workdir)
    return {
        "cfg": cfg, "fp": fp, "rp": rp, "cp": cp,
        "Cf": fixtures.extend_stem(C, fp, cfg),
        "Cr": fixtures.extend_stem(C, rp, cfg),
    }


def _desk_run(st, tracer):
    cfg = st["cfg"]
    return (
        fpn.fpn_forward(st["Cf"], st["fp"], cfg),
        revfp.revfp_forward(st["Cr"], st["rp"], cfg),
        csn.rcnet_forward(st["Cr"], cfg, st["rp"], st["cp"]),
    )


def _desk_outputs(st, raw):
    res = {}
    for prefix, pyr in zip(("fpn.", "revfp.", "rcnet."), raw):
        res.update(_levels(prefix, pyr))
    return res


# ---------------------------------------------------------------------------
# verify: the per-op gradient checks and the invariant checks
#
# The suite's end-to-end check (`gradient_end_to_end_check`) is left out:
# its finite difference straddles a relu/max-pool kink on some seeds and
# the check then fails although the taped gradient is right, so a
# workload that includes it cannot pass at every seed.


def _verify_setup(cfg, tracer, workdir):
    # the checks build their own fixtures inside the pass; set-up times the
    # desk-width fixtures the invariants are derived from
    rp, cp = _init_params(cfg, tracer, revfp.revfp_params, csn.csn_params)
    fixtures.extend_stem(_backbone(cfg, tracer, workdir), rp, cfg)
    return {"cfg": cfg}


def _verify_run(st, tracer):
    cfg = st["cfg"]
    return checks.gradient_op_checks(cfg.seed) + checks.run_invariants(cfg)


def _verify_outputs(st, raw):
    return {c.name: c.to_dict() for c in raw}


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-train",
            "paper-width rcnet forward+backward: big BLAS convs, the backward sweep and tape memory dominate",
            _paper_config, _paper_setup, _paper_run, _paper_outputs, setup_reps=3, warmup=1,
        ),
        Workload(
            "desk-infer",
            "desk-width fpn, revfp and rcnet forwards from an FPZ1 input, no tape: forward kernels and op dispatch",
            lambda seed: config.desk_config(seed=seed),
            _desk_setup, _desk_run, _desk_outputs, setup_reps=5, warmup=3,
        ),
        Workload(
            "verify",
            "per-op gradient checks plus invariant checks: the verification path, ~8.5k op calls a pass on small graphs, many small convs",
            lambda seed: config.desk_config(seed=seed),
            _verify_setup, _verify_run, _verify_outputs, setup_reps=5, warmup=1,
        ),
    )
}
