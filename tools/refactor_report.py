"""Print the two figures a behaviour-preserving refactor is judged by.

1. Code lines per module of `src/rcnet`: lines that hold a token which is
   neither a comment nor a docstring (a token spanning several lines counts
   each of them), found with `ast` and `tokenize`.
2. The sha256 of one `paper-train`-shaped pass at seeds 3, 7 and 11: a
   paper-width (d=256) rcnet forward, the loss sum_i <P_i, proj_i> with the
   benchmark's projections, and backward. The digest runs over every output
   level, the loss and every leaf grad of the revfp and csn stores (zeros
   for a leaf no gradient reached), in store order.

Both figures must match between a refactor and its parent; the script only
prints them. Run from the repo root:

    PYTHONPATH=src python3 tools/refactor_report.py
"""

from __future__ import annotations

import ast
import hashlib
import io
import tokenize
from pathlib import Path

import numpy as np

from rcnet.config import desk_config, paper_width
from rcnet.csn import csn_params, rcnet_forward
from rcnet.fixtures import extend_stem, synth_backbone
from rcnet.revfp import revfp_params
from rcnet.rng import SplitMix64, fold_seed
from rcnet.tensor import Tape, Tensor, add, backward, mul, tsum

SRC = Path(__file__).resolve().parents[1] / "src" / "rcnet"
SEEDS = (3, 7, 11)
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Lines of `source` holding a token that is not a comment or docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.add((first.lineno, first.col_offset))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def pass_digest(seed: int) -> str:
    """sha256 of one paper-train-shaped forward+backward at `seed`."""
    cfg = paper_width(desk_config(seed=seed))
    rp, cp = revfp_params(cfg), csn_params(cfg)
    C = extend_stem(synth_backbone(cfg), rp, cfg)
    with Tape() as tape:
        out = rcnet_forward(C, cfg, rp, cp)
        loss = None
        for i in cfg.levels():
            proj = SplitMix64(fold_seed(cfg.seed, f"bench/proj/{i}")).standard_normal(
                (cfg.batch, cfg.d) + cfg.resolution(i)
            )
            term = tsum(mul(out[i], Tensor(proj)))
            loss = term if loss is None else add(loss, term)
    backward(tape, loss)
    digest = hashlib.sha256()
    for i in cfg.levels():
        digest.update(out[i].data.tobytes())
    digest.update(loss.data.tobytes())
    for t in rp.tensors() + cp.tensors():
        digest.update((np.zeros_like(t.data) if t.grad is None else t.grad).tobytes())
    return digest.hexdigest()


def main():
    counts = {p.name: code_lines(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    print("code lines in src/rcnet (lines holding a token that is not a comment or docstring)")
    for name, n in counts.items():
        print(f"  {name:<16} {n:>5}")
    print(f"  {'total':<16} {sum(counts.values()):>5}")
    print("paper-train pass sha256 (outputs, loss, every leaf grad)")
    for seed in SEEDS:
        print(f"  seed {seed:<3} {pass_digest(seed)}")


if __name__ == "__main__":
    main()
