"""Outside-in tracing of rcnet: wrap its public functions, change no source.

`installed(tracer)` replaces, in every loaded `rcnet` module, the names
that refer to

* the tensor ops (except inside `rcnet.tensor`, whose ops call each other):
  each call adds its time, its count and its output bytes to an op family;
* `backward`: a span, plus the tape length it sweeps;
* `counting.scope`: a span carrying the scope name, so spans nest exactly
  like the `count` report's rows;
* `counting.add_macs`: the program's own MAC count, credited to the
  innermost open span;
* the neck forwards and the stem: a root span, run under
  `counting.collect` when no collection is active so the accounting
  cross-check can compare each call with `count_all`;
* the gradient-suite parts and `run_invariants`: a span each.

Every replaced name is put back when the block exits, also on error.
"""

from __future__ import annotations

import importlib
import pkgutil
import time
from contextlib import ExitStack, contextmanager, nullcontext

import rcnet
from rcnet import checks, counting, csn, fixtures, fpn, revfp, tensor
from rcnet.config import NeckConfig

#: op name in rcnet.tensor -> the family its time is reported under
OP_FAMILIES = {
    "conv2d": "conv2d",
    "bilinear_upsample_x2": "upsample",
    "maxpool2d": "maxpool",
    "channel_norm": "norm",
    "softmax": "softmax",
    **{n: "layout" for n in ("concat", "narrow", "roll", "reshape", "transpose", "pad2d", "broadcast_to")},
    **{
        n: "elementwise"
        for n in (
            "add", "sub", "mul", "div", "scale", "add_scalar", "neg", "exp", "sqrt",
            "sigmoid", "relu", "tsum", "tmean", "global_avg_pool",
        )
    },
}

#: functions whose calls open a root span (and a counting collection)
ROOTS = {
    (fpn, "fpn_forward"): "fpn",
    (revfp, "revfp_forward"): "revfp",
    (csn, "csn_forward"): "csn",
    (fixtures, "extend_stem"): "fixtures",
}

#: verification entry points timed as one span each
CHECK_SPANS = {
    (checks, "gradient_op_checks"): "gradcheck.op_checks",
    (checks, "run_invariants"): "checks.invariants",
}

BACKWARD_SPAN = "tensor.backward"


class NullTracer:
    """What the timed runs use: spans and counts cost nothing."""

    active = False

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, n: int):
        pass


class Tracer:
    """Spans, op families and counts of the current unit of work.

    A unit is one setup or one pass; `take()` returns its records and
    starts the next. Count reports of the collections this tracer opened
    accumulate in `reports` for the whole run.
    """

    active = True

    def __init__(self):
        self._open: list[list] = []  # [path, start_ns, child_ns] per open span
        self.reports: list[tuple[str, NeckConfig, counting.CountReport]] = []
        self._unit = self._new_unit()

    @staticmethod
    def _new_unit() -> dict:
        # spans: path -> [calls, total_ns, self_ns, macs]; ops: family -> [calls, ns, out_bytes]
        return {"spans": {}, "ops": {}, "counts": {}}

    def take(self) -> dict:
        unit, self._unit = self._unit, self._new_unit()
        return unit

    @contextmanager
    def span(self, name: str):
        path = (self._open[-1][0] if self._open else ()) + (name,)
        frame = [path, time.perf_counter_ns(), 0]
        self._open.append(frame)
        try:
            yield
        finally:
            self._open.pop()
            dur = time.perf_counter_ns() - frame[1]
            rec = self._span_record(path)
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - frame[2]
            if self._open:
                self._open[-1][2] += dur

    def _span_record(self, path) -> list:
        spans = self._unit["spans"]
        if path not in spans:
            spans[path] = [0, 0, 0, 0]
        return spans[path]

    def count(self, name: str, n: int):
        counts = self._unit["counts"]
        counts[name] = counts.get(name, 0) + n

    # -- wrappers ------------------------------------------------------------

    def _op(self, fn, family: str):
        def op(*args, **kwargs):
            t0 = time.perf_counter_ns()
            out = fn(*args, **kwargs)
            dt = time.perf_counter_ns() - t0
            ops = self._unit["ops"]
            rec = ops.get(family)
            if rec is None:
                rec = ops[family] = [0, 0, 0]
            rec[0] += 1
            rec[1] += dt
            rec[2] += out.data.nbytes
            return out

        return op

    def _backward(self, fn):
        def backward(tape, loss):
            self.count("tensor.tape_nodes", len(tape))
            with self.span(BACKWARD_SPAN):
                return fn(tape, loss)

        return backward

    def _scope(self, fn):
        @contextmanager
        def scope(name):
            with self.span(name), fn(name):
                yield

        return scope

    def _add_macs(self, fn):
        def add_macs(n):
            self.count("tensor.conv2d.macs", int(n))
            self._span_record(self._open[-1][0] if self._open else ())[3] += int(n)
            fn(n)

        return add_macs

    def _root(self, fn, root: str):
        def traced(*args, **kwargs):
            cfg = next(v for v in (*args, *kwargs.values()) if isinstance(v, NeckConfig))
            report = counting.CountReport()
            with self.span(root), ExitStack() as stack:
                try:
                    stack.enter_context(counting.collect(report, root))
                except RuntimeError:  # the caller (count_all) is already collecting
                    report = None
                out = fn(*args, **kwargs)
            if report is not None:
                self.reports.append((root, cfg, report))
            return out

        return traced

    def _spanned(self, fn, name: str):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrappers(self) -> dict[int, tuple[object, object]]:
        """id(original) -> (original, replacement) for every traced function."""
        pairs = [(getattr(tensor, n), self._op(getattr(tensor, n), fam)) for n, fam in OP_FAMILIES.items()]
        pairs.append((tensor.backward, self._backward(tensor.backward)))
        pairs.append((counting.scope, self._scope(counting.scope)))
        pairs.append((counting.add_macs, self._add_macs(counting.add_macs)))
        for (mod, name), root in ROOTS.items():
            pairs.append((getattr(mod, name), self._root(getattr(mod, name), root)))
        for (mod, name), label in CHECK_SPANS.items():
            pairs.append((getattr(mod, name), self._spanned(getattr(mod, name), label)))
        return {id(orig): (orig, new) for orig, new in pairs}


def rcnet_modules() -> list:
    names = [m.name for m in pkgutil.iter_modules(rcnet.__path__)]
    return [rcnet] + [importlib.import_module(f"rcnet.{n}") for n in names]


@contextmanager
def installed(tracer: Tracer):
    """Route every rcnet reference to a traced function through `tracer`."""
    table = tracer.wrappers()
    replaced = []
    try:
        for mod in rcnet_modules():
            for name, value in list(vars(mod).items()):
                hit = table.get(id(value))  # the table holds the originals, so ids are unique
                if hit is None:
                    continue
                if mod is tensor and name in OP_FAMILIES:
                    continue  # ops calling ops inside the core are part of the outer op
                replaced.append((mod, name, value))
                setattr(mod, name, hit[1])
        yield tracer
    finally:
        for mod, name, value in reversed(replaced):
            setattr(mod, name, value)
