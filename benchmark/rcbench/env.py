"""The benchmark's fixed execution environment, and a record of it.

`pin` must run before numpy is imported: OpenBLAS reads its thread count
once, when the library loads. Nothing here imports numpy at module level.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from pathlib import Path

#: OpenBLAS threads per workload process; never more than the machine has.
BLAS_THREADS_MAX = 2

#: scratch space inside the checkout: the FPZ1 round trip and the
#: container check of `verify` write here instead of the system temp dir
WORK_DIR = ".bench_work"


def checkout_root() -> Path:
    return Path(__file__).resolve().parents[2]


def pin() -> Path:
    """Pin BLAS threads, keep temp files in the checkout, put `src` first on the path.

    Returns the work directory. Raises FileNotFoundError when the checkout
    has no `src/rcnet` package to benchmark.
    """
    src = checkout_root() / "src"
    if not (src / "rcnet" / "__init__.py").is_file():
        raise FileNotFoundError(f"no rcnet package under {src}; run from a full checkout")
    os.environ["OPENBLAS_NUM_THREADS"] = str(max(1, min(BLAS_THREADS_MAX, os.cpu_count() or 1)))
    work = checkout_root() / WORK_DIR
    work.mkdir(exist_ok=True)
    os.environ["TMPDIR"] = str(work)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    return work


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    root = checkout_root()
    if not (root / ".git").exists():
        return "unavailable (not a git checkout)"
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
    )
    return done.stdout.strip() if done.returncode == 0 else "unavailable (git failed)"


def describe() -> dict:
    """Machine, interpreter and library versions the numbers were taken with."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "git_commit": _git_commit(),
    }
