"""Scopes and probes: the one instrumentation mechanism of the forwards.

`scope(name)` names the operator whose ops execute inside it. The open
names form one path per thread, read by two recorders that do nothing
outside their blocks. Inside `probes(on_probe)`, `probe(name, value)`
hands `on_probe` the key "path/name", the path counted from the block
and never holding a collection's root, and the value, as it fires. The
block keeps nothing, so a check reduces each value as it fires instead
of holding every activation a forward probes; a caller that wants them
all passes `seen.__setitem__`. Inside `collect()`, a forward is
counted: convolutions report their MACs, named parameters are
attributed (once) to the scope that consumes them, and every entered
scope gets a row even when it costs nothing. Only conv2d (1x1 "linear"
convs too) contributes MACs; elementwise ops, pooling, softmax,
normalization and index rearrangements all count 0, so zero-cost claims
are crisp.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class CountRow:
    params: int = 0
    macs: int = 0


@dataclass
class CountReport:
    """Per-operator rows plus derived totals; rows never double-count."""

    rows: dict[str, CountRow] = field(default_factory=dict)

    def row(self, name: str) -> CountRow:
        if name not in self.rows:
            self.rows[name] = CountRow()
        return self.rows[name]

    def total(self, prefix: str) -> tuple[int, int]:
        p = m = 0
        for name, row in self.rows.items():
            if name == prefix or name.startswith(prefix + "/"):
                p += row.params
                m += row.macs
        return p, m

    def module_totals(self) -> dict[str, dict[str, int]]:
        modules = sorted({name.split("/", 1)[0] for name in self.rows})
        out = {}
        for mod in modules:
            p, m = self.total(mod)
            out[mod] = {"params": p, "macs": m}
        return out

    def to_dict(self) -> dict:
        return {
            "rows": {k: {"params": v.params, "macs": v.macs} for k, v in self.rows.items()},
            "totals": self.module_totals(),
        }


#: the names of the scopes open in this thread (or other execution context)
_PATH: ContextVar[tuple[str, ...]] = ContextVar("rcnet_counting_path", default=())


class _Collector:
    def __init__(self, report: CountReport, root: str):
        self.report = report
        self.root = (root,)
        self.base = len(_PATH.get())  # scopes open outside the collection are not its rows
        self.seen_params: set[int] = set()

    def row(self) -> CountRow:
        return self.report.row("/".join(self.root + _PATH.get()[self.base:]))


#: the collection recording in this thread (or other execution context)
_ACTIVE: ContextVar[_Collector | None] = ContextVar("rcnet_counting_collector", default=None)
#: the probe sink of this context and the path length when it was opened
_PROBES: ContextVar[tuple[Callable, int] | None] = ContextVar("rcnet_counting_probes", default=None)


@contextmanager
def collect(report: CountReport, root: str):
    """Trace one forward pass into `report`, with all rows under `root/`.

    One collection may be active at a time in each thread; a second one
    inside the first raises `RuntimeError`.
    """
    if _ACTIVE.get() is not None:
        raise RuntimeError("a counting collection is already active")
    report.row(root)
    _ACTIVE.set(_Collector(report, root))
    try:
        yield report
    finally:
        _ACTIVE.set(None)


@contextmanager
def scope(name: str):
    """Name the operator whose ops execute inside this block."""
    token = _PATH.set(_PATH.get() + (name,))
    try:
        collector = _ACTIVE.get()
        if collector is not None:
            collector.row()
        yield
    finally:
        _PATH.reset(token)


@contextmanager
def probes(on_probe: Callable[[str, object], None]):
    """Hand each probe inside this block to `on_probe(scope path/name, value)`."""
    token = _PROBES.set((on_probe, len(_PATH.get())))
    try:
        yield
    finally:
        _PROBES.reset(token)


def probe(name: str, value):
    """Hand `value` to the open `probes()` block under the scope path; else nothing."""
    active = _PROBES.get()
    if active is not None:
        record, base = active
        record("/".join(_PATH.get()[base:] + (name,)), value)


def add_macs(n: int):
    collector = _ACTIVE.get()
    if collector is not None:
        collector.row().macs += int(n)


def saw_param(tensor):
    """Attribute a named parameter to the current scope, once per collection."""
    collector = _ACTIVE.get()
    if collector is None:
        return
    key = id(tensor)
    if key in collector.seen_params:
        return
    collector.seen_params.add(key)
    collector.row().params += int(tensor.size)
