"""Parameter and multiply-accumulate accounting.

A forward pass executed inside `collect()` is traced: convolutions report
their MAC counts, named parameter tensors are attributed (once) to the
operator scope that consumes them, and every entered scope gets a report
row even when it costs nothing. The convention is deliberately narrow so
zero-cost claims are crisp: only conv2d (including 1x1 "linear" convs)
contributes MACs; elementwise ops, pooling, softmax, normalization, and
index rearrangements all count 0.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field


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

    def total(self, prefix: str = "") -> tuple[int, int]:
        p = m = 0
        for name, row in self.rows.items():
            if name == prefix or name.startswith(prefix + "/") or not prefix:
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

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


class _Collector:
    def __init__(self, report: CountReport):
        self.report = report
        self.stack: list[str] = []
        self.seen_params: set[int] = set()

    def path(self) -> str:
        return "/".join(self.stack)


#: the collection recording in this thread (or other execution context)
_ACTIVE: ContextVar[_Collector | None] = ContextVar("rcnet_counting_collector", default=None)


@contextmanager
def collect(report: CountReport, root: str):
    """Trace one forward pass into `report`, with all rows under `root/`.

    One collection may be active at a time in each thread; a second one
    inside the first raises `RuntimeError`.
    """
    if _ACTIVE.get() is not None:
        raise RuntimeError("a counting collection is already active")
    collector = _Collector(report)
    collector.stack.append(root)
    report.row(root)
    _ACTIVE.set(collector)
    try:
        yield report
    finally:
        _ACTIVE.set(None)


@contextmanager
def scope(name: str):
    """Name the operator whose ops execute inside this block."""
    collector = _ACTIVE.get()
    if collector is None:
        yield
        return
    collector.stack.append(name)
    collector.report.row(collector.path())
    try:
        yield
    finally:
        collector.stack.pop()


def add_macs(n: int):
    collector = _ACTIVE.get()
    if collector is not None:
        collector.report.row(collector.path()).macs += int(n)


def saw_param(tensor):
    """Attribute a named parameter to the current scope, once per collection."""
    collector = _ACTIVE.get()
    if collector is None:
        return
    key = id(tensor)
    if key in collector.seen_params:
        return
    collector.seen_params.add(key)
    collector.report.row(collector.path()).params += int(tensor.size)
