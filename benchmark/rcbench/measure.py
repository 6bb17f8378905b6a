"""Closed-loop runs of one workload: the timed run and the traced run."""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

from rcnet.accounting import count_all
from rcnet.bench import bench_shift

from . import gate as gates
from .metrics import END_TO_END, layer_metrics, scope_table
from .stats import median_or_zero, tail_percentile
from .tracer import NullTracer, Tracer, installed
from .workloads import Workload

NULL = NullTracer()
MAX_ERRORS_SHOWN = 5


@dataclass
class Run:
    """Everything one run of a workload observed."""

    reference: str = ""
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    warmup_ms: list[float] = field(default_factory=list)
    pass_ms: list[float] = field(default_factory=list)

    def end_to_end(self) -> dict:
        values = {
            "pass_ms_p50": median_or_zero(self.pass_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": median_or_zero(self.setup_s),
        }
        return {name: {"value": float(values[name]), "unit": unit} for name, unit in END_TO_END.items()}

    def report(self) -> dict:
        """What the metric list leaves out: tail, sample counts, failures, warm-up."""
        return {
            "passes": len(self.pass_ms),
            "pass_ms_p90": tail_percentile(self.pass_ms, 0.9),
            "fail_ratio": self.failed / self.attempted if self.attempted else None,
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors[:MAX_ERRORS_SHOWN],
            "warmup_ms": self.warmup_ms,
            "setup_s_all": self.setup_s,
            "output_reference": self.reference,
        }


def _one_pass(wl: Workload, state, gate: gates.Gate, tracer, run: Run, times: list) -> dict | None:
    """Run, time and check one pass; a failure is counted, never dropped.

    A pass that raises has no time and returns None. A pass that completes
    keeps its time and returns its outputs even when the gate fails it;
    `failed` and `correct` carry the verdict.
    """
    run.attempted += 1
    t0 = time.perf_counter()
    try:
        raw = wl.run(state, tracer)
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        outputs = wl.outputs(state, raw)
    except Exception as err:  # any raising pass is a failed pass; keep measuring
        run.failed += 1
        run.errors.append(f"{type(err).__name__}: {err}")
        return None
    times.append(elapsed_ms)
    found = gate.check(outputs)
    if found:
        run.failed += 1
        run.errors.append("; ".join(found[:MAX_ERRORS_SHOWN]))
    return outputs


def _loop(wl, state, gate, tracer, run, times, seconds: float, on_pass=None):
    """Passes back to back until `seconds` have passed; at least one."""
    start = time.perf_counter()
    while True:
        outputs = _one_pass(wl, state, gate, tracer, run, times)
        if on_pass is not None:
            on_pass(outputs)
        if time.perf_counter() - start >= seconds:
            return


def _setup(wl: Workload, cfg, tracer, workdir: Path, run: Run, units: list | None = None):
    state = None
    for _ in range(wl.setup_reps):
        state = None  # free the previous set-up before building the next
        t0 = time.perf_counter()
        state = wl.setup(cfg, tracer, workdir)
        run.setup_s.append(time.perf_counter() - t0)
        if units is not None:
            units.append(tracer.take())
    return state


def timed_run(wl: Workload, seed: int, seconds: float, workdir: Path) -> Run:
    run = Run()
    state = _setup(wl, wl.config(seed), NULL, workdir, run)
    gate = gates.Gate(seed, gates.load_frozen(wl.name))
    run.reference = gate.reference
    for _ in range(wl.warmup):
        _one_pass(wl, state, gate, NULL, run, run.warmup_ms)
    _loop(wl, state, gate, NULL, run, run.pass_ms, seconds)
    return run


def accounting_problems(reports) -> list[str]:
    """Each traced collection must bill exactly the MACs `count_all` bills.

    Rows are compared by their path below the root. A stem call is
    compared with the stem rows of revfp's report; a neck call with the
    neck's rows minus the stem, which its callers run beforehand.
    """
    refs: dict = {}
    problems = []
    for root, cfg, report in reports:
        key = cfg.replace(seed=0)  # MACs depend on shapes only
        if key not in refs:
            refs[key] = count_all(key)
        source = "revfp" if root == "fixtures" else root
        want = {
            name[len(source):]: row.macs
            for name, row in refs[key].rows.items()
            if name == source or name.startswith(source + "/")
        }
        if root == "fixtures":
            want = {k: v for k, v in want.items() if k.startswith("/stem/")}
        else:
            want = {k: v for k, v in want.items() if not k.startswith("/stem/")}
        got = {name[len(root):]: row.macs for name, row in report.rows.items()}
        if root == "fixtures":
            got.pop("", None)
        if got != want or sum(got.values()) != sum(want.values()):
            problems.append(f"{root} at {key}: traced MACs {got} != count_all {want}")
        if root == "csn" and got.get("/scale_shift") != 0:
            problems.append(f"csn/scale_shift billed {got.get('/scale_shift')} MACs, expected 0")
    return problems


@dataclass
class TracedRun:
    run: Run
    metrics: dict
    table: list
    problems: list


def traced_run(wl: Workload, seed: int, seconds: float, workdir: Path) -> TracedRun:
    """Untraced passes for a reference, then traced passes, then the cross-checks."""
    run = Run()
    cfg = wl.config(seed)
    tracer = Tracer()
    setup_units: list = []
    with installed(tracer):
        state = _setup(wl, cfg, tracer, workdir, run, setup_units)
    gate = gates.Gate(seed, gates.load_frozen(wl.name))
    run.reference = gate.reference
    for _ in range(wl.warmup):
        _one_pass(wl, state, gate, NULL, run, run.warmup_ms)
    _loop(wl, state, gate, NULL, run, run.pass_ms, seconds / 2)
    untraced_digest = gates.digest(gate.first) if gate.first is not None else None

    traced_ms: list = []
    pass_units: list = []
    digests: set = set()

    def keep(outputs):
        unit = tracer.take()
        if outputs is not None:
            pass_units.append(unit)
            digests.add(gates.digest(outputs))

    with installed(tracer):
        tracer.take()
        _loop(wl, state, gate, tracer, run, traced_ms, seconds / 2, keep)

    problems = accounting_problems(tracer.reports)
    if untraced_digest is None or digests != {untraced_digest}:
        problems.append(f"traced output digests {sorted(digests)} != untraced {untraced_digest}")
    if not pass_units:
        problems.append("no traced pass completed")
    if problems:
        return TracedRun(run, {}, [], problems)
    ratio = bench_shift(cfg, reps=10).ratio
    metrics = layer_metrics(setup_units, pass_units, run.pass_ms, traced_ms, ratio)
    return TracedRun(run, metrics, scope_table(pass_units), [])
