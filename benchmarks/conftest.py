"""Shared infrastructure for the benchmark scripts.

The paper's figures and tables are measured and checked by
``python -m benchmarks.claims``; the ``bench_*.py`` scripts measure the
extensions and write ``BENCH_*.json`` snapshots.  Both persist their
rendered tables under ``benchmarks/results/``.
"""

from __future__ import annotations

import os
import pathlib
import platform
import subprocess
import time

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def environment() -> dict:
    """What a ``BENCH_*.json`` snapshot was measured on, and when, and
    from which commit (``git describe --always --dirty``)."""
    done = subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        cwd=pathlib.Path(__file__).parent,
        capture_output=True,
        text=True,
    )
    return {
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "date": time.strftime("%Y-%m-%d", time.gmtime()),
        "sha": done.stdout.strip() or "unknown",
    }


def write_result(name: str, text: str) -> pathlib.Path:
    """Persist a rendered experiment table for EXPERIMENTS.md."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return path
