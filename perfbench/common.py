"""Measurement plumbing shared by every benchmark process.

Importing this module pins ``OPENBLAS_NUM_THREADS=1`` before numpy can load,
so each process the benchmark starts imports it first. It also puts the
checkout's ``src/`` on the import path: the benchmark always measures the
sources next to it, never an installed copy.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for datasets, stores and trace files; listed in .gitignore.
OUT_DIR = BENCH_DIR / "out"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


def sources_present() -> bool:
    return (SRC / "woodwatch" / "__init__.py").is_file()


def vm_hwm_mb() -> float:
    """This process's own peak resident set (VmHWM), in MB.

    ``ru_maxrss`` is not used: on Linux a child inherits its parent's peak
    across fork+exec, so it overstates a server started by a busy parent.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def percentile_with_tail(values, q: float, min_tail: int = 10) -> float | None:
    """The q-quantile (0 < q < 1) when at least ``min_tail`` samples lie beyond it."""
    if len(values) * (1.0 - q) < min_tail:
        return None
    return float(statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1])


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "blas": blas,
        "python": sys.version.split()[0],
    }


def emit_detail(payload: dict) -> None:
    """One human-oriented JSON line; the result line always comes last."""
    print(json.dumps({"detail": payload}, sort_keys=True), flush=True)
