"""Golden `count` and `invariants` reports: what a refactor must leave alone.

The `rcnet count` rows (names in order, parameters, MACs) at desk and at
paper width are compared exactly. The 20 `invariants` verdicts are
compared exactly, and their numeric measurements at 1e-10 relative to
max(1, |v|), the benchmark gate's rule; a text measurement is covered by
its verdict. Timings are not part of the reference.

Regenerate only for a change that alters what the program computes or
counts on purpose:

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
from pathlib import Path

import pytest

from rcnet.cli import main

GOLDEN = Path(__file__).with_name("golden_reports.json")
TOL = 1e-10

COMMANDS = {
    "count": ["count"],
    "count_paper_width": ["count", "--paper-width"],
    "invariants": ["invariants"],
}


def run_report(argv: list[str], out: Path) -> dict:
    assert main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))


def essentials(name: str, doc: dict) -> list:
    """Rows of a count report; [verdict, numeric measurement or None] per check."""
    if name.startswith("count"):
        return [[row, v["params"], v["macs"]] for row, v in doc["counts"]["rows"].items()]
    return [
        [check, v["pass"], v["measured"] if isinstance(v["measured"], float) else None]
        for check, v in doc["checks"].items()
    ]


def write_golden(tmp: Path) -> None:
    """One JSON line per row or check, so a diff of the file reads row by row."""
    blocks = []
    for name, argv in COMMANDS.items():
        lines = ",\n  ".join(json.dumps(e) for e in essentials(name, run_report(argv, tmp / f"{name}.json")))
        blocks.append(f' "{name}": [\n  {lines}\n ]')
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", ["count", "count_paper_width"])
def test_count_rows_unchanged(name, golden, tmp_path):
    got = essentials(name, run_report(COMMANDS[name], tmp_path / "count.json"))
    assert got == golden[name]


def test_invariants_unchanged(golden, tmp_path):
    got = essentials("invariants", run_report(COMMANDS["invariants"], tmp_path / "inv.json"))
    want = golden["invariants"]
    assert len(want) == 20
    assert [g[:2] for g in got] == [w[:2] for w in want]
    for (check, _, g), (_, _, w) in zip(got, want):
        if w is None:
            assert g is None, check
        else:
            assert abs(g - w) <= TOL * max(1.0, abs(w)), f"{check}: {g!r} != golden {w!r}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        write_golden(Path(tmp))
