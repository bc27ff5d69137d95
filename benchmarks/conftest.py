"""Shared infrastructure for the benchmark harness.

Every benchmark module reproduces one table or figure of the paper's
evaluation: a module-scoped fixture runs the experiment driver, writes
the rendered table(s) to ``benchmarks/results/<experiment>.txt``, and
the benchmark tests measure the core operations that experiment leans
on while asserting the reproduced *shape* (who wins, rough factors).

Run with::

    pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import os
import pathlib
import platform
import subprocess
import time

import pytest

from repro.analysis.experiments import run_pressure

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def pressure_sweep():
    """The Figures 10-11 pool-size sweep, shared across bench modules."""
    return run_pressure()


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
