"""Metric names, units, and how the traced records turn into per-layer metrics."""

from __future__ import annotations

from .stats import median_or_zero
from .tracer import BACKWARD_SPAN, ROOTS

#: reported by every timed run (--trace 0)
END_TO_END = {
    "pass_ms_p50": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

#: scope families (the `count` report's row names, levels summed) -> has convs
SCOPE_FAMILIES = {
    "fpn.lateral": True,
    "fpn.output": True,
    "revfp.lateral": True,
    "revfp.fgu": True,
    **{f"revfp.{site}.{part}": part in ("head", "conv") for site in ("pre", "post") for part in ("head", "conv", "norm", "blend")},
    "csn.gather": False,
    "csn.scale_shift": False,
    "csn.aggregate": True,
    "csn.context": True,
    "csn.scatter": False,
}

OP_METRICS = ("upsample", "maxpool", "norm", "softmax", "layout", "elementwise")

#: reported by every traced run (--trace 1)
PER_LAYER = {
    "tensor.conv2d.ms": "ms",
    "tensor.conv2d.calls": "count",
    "tensor.conv2d.gmac_per_s": "GMAC/s",
    **{f"tensor.{fam}.ms": "ms" for fam in OP_METRICS},
    "tensor.out_mib": "MiB",
    "tensor.op_calls": "count",
    "tensor.us_per_op": "us",
    "tensor.backward.ms": "ms",
    "tensor.tape_nodes": "count",
    "tensor.tape_rss_mib": "MiB",
    "params.init_ms": "ms",
    "params.count": "count",
    "fixtures.synth_backbone_ms": "ms",
    "fixtures.stem.self_ms": "ms",
    "pyramid.save_ms": "ms",
    "pyramid.load_ms": "ms",
    "pyramid.bytes": "bytes",
}
for _fam, _convs in SCOPE_FAMILIES.items():
    PER_LAYER[f"{_fam}.self_ms"] = "ms"
    if _convs:
        PER_LAYER[f"{_fam}.macs"] = "MAC"
        PER_LAYER[f"{_fam}.gmac_per_s"] = "GMAC/s"
PER_LAYER.update({
    "csn.shift_dense_ratio": "ratio",
    "gradcheck.op_checks_ms": "ms",
    "checks.invariants_ms": "ms",
    "trace.overhead_pct": "%",
})

_ROOT_NAMES = set(ROOTS.values())
_MS = 1e-6  # ns -> ms


def scope_family(path: tuple) -> str | None:
    """`count`-style family of a span path, e.g. (..., 'revfp', 'pre/3', 'conv') -> 'revfp.pre.conv'."""
    for j in range(len(path) - 1, -1, -1):
        if path[j] in _ROOT_NAMES:
            break
    else:
        return None
    parts = [p for seg in path[j + 1:] for p in seg.split("/") if not p.isdigit()]
    if not parts:
        return None  # the root's own time outside any scope
    if parts[0] == "stem":
        return "fixtures.stem"
    if parts[0] in ("pre", "post"):
        return f"{path[j]}.{parts[0]}.{parts[1] if len(parts) > 1 else 'blend'}"
    return f"{path[j]}.{parts[0]}"


def _gmac_per_s(macs: float, ns: float) -> float:
    return macs / ns if ns else 0.0  # MAC per ns is GMAC per s


def _span_ns(unit: dict, name: str) -> int:
    return sum(rec[1] for path, rec in unit["spans"].items() if path[-1] == name)


def _families(unit: dict) -> dict[str, list[int]]:
    fams: dict[str, list[int]] = {}
    for path, (_, _, self_ns, macs) in unit["spans"].items():
        fam = scope_family(path)
        if fam is not None:
            rec = fams.setdefault(fam, [0, 0])
            rec[0] += self_ns
            rec[1] += macs
    return fams


def setup_values(unit: dict) -> dict[str, float]:
    counts = unit["counts"]
    return {
        "params.init_ms": _span_ns(unit, "params.init") * _MS,
        "params.count": counts.get("params.count", 0),
        "fixtures.synth_backbone_ms": _span_ns(unit, "fixtures.synth_backbone") * _MS,
        "fixtures.stem.self_ms": _families(unit).get("fixtures.stem", [0, 0])[0] * _MS,
        "pyramid.save_ms": _span_ns(unit, "pyramid.save") * _MS,
        "pyramid.load_ms": _span_ns(unit, "pyramid.load") * _MS,
        "pyramid.bytes": counts.get("pyramid.bytes", 0),
    }


def pass_values(unit: dict) -> dict[str, float]:
    ops, counts = unit["ops"], unit["counts"]
    zero = [0, 0, 0]
    conv = ops.get("conv2d", zero)
    calls = sum(rec[0] for rec in ops.values())
    op_ns = sum(rec[1] for rec in ops.values())
    out = {
        "tensor.conv2d.ms": conv[1] * _MS,
        "tensor.conv2d.calls": conv[0],
        "tensor.conv2d.gmac_per_s": _gmac_per_s(counts.get("tensor.conv2d.macs", 0), conv[1]),
        **{f"tensor.{fam}.ms": ops.get(fam, zero)[1] * _MS for fam in OP_METRICS},
        "tensor.out_mib": sum(rec[2] for rec in ops.values()) / 2**20,
        "tensor.op_calls": calls,
        "tensor.us_per_op": op_ns / calls / 1e3 if calls else 0.0,
        "tensor.backward.ms": _span_ns(unit, BACKWARD_SPAN) * _MS,
        "tensor.tape_nodes": counts.get("tensor.tape_nodes", 0),
        "tensor.tape_rss_mib": counts.get("tensor.tape_rss_bytes", 0) / 2**20,
        "gradcheck.op_checks_ms": _span_ns(unit, "gradcheck.op_checks") * _MS,
        "checks.invariants_ms": _span_ns(unit, "checks.invariants") * _MS,
    }
    fams = _families(unit)
    for fam, convs in SCOPE_FAMILIES.items():
        self_ns, macs = fams.get(fam, [0, 0])
        out[f"{fam}.self_ms"] = self_ns * _MS
        if convs:
            out[f"{fam}.macs"] = macs
            out[f"{fam}.gmac_per_s"] = _gmac_per_s(macs, self_ns)
    return out


def layer_metrics(setup_units, pass_units, untraced_ms, traced_ms, shift_ratio) -> dict:
    """Per-layer metrics: the median over units of each per-unit value."""
    per_name: dict[str, list[float]] = {}
    for values in [setup_values(u) for u in setup_units] + [pass_values(u) for u in pass_units]:
        for name, v in values.items():
            per_name.setdefault(name, []).append(v)
    out = {name: median_or_zero(vs) for name, vs in per_name.items()}
    out["csn.shift_dense_ratio"] = shift_ratio
    base = median_or_zero(untraced_ms)
    out["trace.overhead_pct"] = (median_or_zero(traced_ms) / base - 1.0) * 100.0 if base else 0.0
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics without a value: {sorted(missing)}")
    return {name: {"value": float(out[name]), "unit": unit} for name, unit in PER_LAYER.items()}


def scope_table(pass_units) -> list[dict]:
    """Every span path with its per-pass median self time, calls and MACs."""
    rows: dict[tuple, list[list]] = {}
    for unit in pass_units:
        for path, (calls, _, self_ns, macs) in unit["spans"].items():
            rows.setdefault(path, []).append([calls, self_ns, macs])
    table = []
    for path, recs in rows.items():
        self_ms = median_or_zero([r[1] for r in recs]) * _MS
        macs = median_or_zero([r[2] for r in recs])
        table.append({
            "scope": "/".join(path),
            "calls": median_or_zero([r[0] for r in recs]),
            "self_ms": self_ms,
            "macs": macs,
            "gmac_per_s": _gmac_per_s(macs, self_ms / _MS),
        })
    table.sort(key=lambda r: -r["self_ms"])
    return table

