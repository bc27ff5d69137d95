"""The benchmark driver's contract: ``BENCHMARK.json`` and ``run.py``.

Two rules of the driver's schema decide what can be bounded there:

1. ``BENCHMARK.json`` has exactly six keys and an ``end_to_end`` entry
   exactly ``name``/``unit``/``better``/``bound``: there is no place for
   a metric's applicable workloads, its baseline or its observed spread.
2. With ``--trace 0`` every workload reports *every* ``end_to_end``
   metric, and a metric may never be 0.

Of the ledger's end-to-end metrics only ``setup_s``, ``peak_rss_mb`` and
``work_per_s`` are defined and non-zero on all five workloads
(``keepalive_control`` has no data plane, ``dataplane_ops`` no requests
and no simulated clock, and ``failed_fraction`` is 0 at baseline; the
driver reads failures from ``attempted``/``failed`` instead).  Those
three are the bounded list.  The other metrics ride unbounded in
``per_layer`` as ``e2e.<name>`` (0 where they do not apply); what holds
them to their bounds is the ledger's own same-seed comparison
(``python -m benchmarks.ledger``).

``work_per_s`` is on the reference clock (``calibrate.py``), not the
wall clock: the driver refused the wall-clock throughput (best of three
runs a call) because ten calls of the same code spread by 0.19-0.32 of
their median on four of the five workloads, against a bound of 0.25.
The wall-clock throughputs are still reported, as
``e2e.replay_req_per_s``, ``e2e.dedup_pages_per_s`` and
``e2e.restore_pages_per_s``.
"""

from __future__ import annotations

import statistics
import time

from . import report
from .metrics import END_TO_END, per_layer_units
from .runner import run_worker
from .workloads import WORKLOADS

#: Seconds of timed body one ``--trace 0`` call aims for (``run_seconds``).
RUN_SECONDS = 15
#: Fewest timed runs per ``--trace 0`` call, when they fit.
CALL_REPS = 3
#: Most timed runs per ``--trace 0`` call.  Each draws its own inputs,
#: from seed ``SEEDS_PER_CALL * --seed + run``: calls of different seeds
#: share none.  On the Medes replays what the seed draws moves the work
#: per request (``ladder_faulted``: ten seeds measured twice correlated
#: 0.85), so three runs of one seed would steady the box's part of the
#: spread only.
SEEDS_PER_CALL = 8
#: Set-up-only runs before each timed run of a ``--trace 0`` call.  A
#: set-up lasts a third of a second, so one in three is badly disturbed:
#: over 144 back-to-back set-ups the fastest of every 3 spread (IQR /
#: median) by 0.13, the fastest of every 9 by 0.07.
SETUPS_PER_REP = 2
#: Wall seconds a ``--trace 0`` call aims to stay within.  The driver
#: caps the total of all its calls (30 s each on average).  Sizes are
#: fixed, so when the box is slow the call measures fewer runs rather
#: than smaller ones.
CALL_BUDGET_S = 27.0
#: Wall seconds after which any call gives up without a result (the
#: driver kills a call at 180 s).  A ``--trace 1`` call needs a timed, a
#: traced and a profiled run of a fixed-size workload, 25-60 s in all.
CALL_DEADLINE_S = 170.0

#: Bounded metrics: (name, unit, better, bound).  The driver compares
#: medians over ten different seeds measured minutes apart, so these
#: bounds cover the seeds' different work and what drift of the box the
#: reference clock leaves in (README, "Noise"); the ledger's same-seed
#: bounds are tighter (10 %, 10 %, 0.5 s).
CONTRACT_END_TO_END = (
    ("work_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
)

_BOUNDED = {name for name, _unit, _better, _bound in CONTRACT_END_TO_END}
_HIGHER = ("hit_ratio", "_per_s", "savings_fraction", "segments_shared_ratio")


def per_layer_entries() -> list[dict]:
    """The unbounded list: per-layer metrics, then the end-to-end metrics
    that cannot be bounded (the wall-clock throughputs among them)."""
    entries = [
        {"name": name, "unit": unit, "better": _direction(name)}
        for name, unit in per_layer_units().items()
    ]
    entries += [
        {"name": f"e2e.{metric.name}", "unit": metric.unit, "better": metric.better}
        for metric in END_TO_END
        if metric.name not in _BOUNDED
    ]
    return entries


def _direction(name: str) -> str:
    return "higher" if name.endswith(_HIGHER) else "lower"


def benchmark_document() -> dict:
    """The ``BENCHMARK.json`` this package defines."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in CONTRACT_END_TO_END
        ],
        "per_layer": per_layer_entries(),
    }


def measure_end_to_end(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    """``--trace 0``: timed runs, each a fresh process that sets up afresh
    on inputs of its own, and before each a few runs that only set up."""
    started = time.perf_counter()
    runs: list[dict] = []
    setups: list[float] = []
    measured = 0.0
    while len(runs) < SEEDS_PER_CALL and (len(runs) < CALL_REPS or measured < seconds):
        elapsed = time.perf_counter() - started
        if runs and elapsed + elapsed / len(runs) > CALL_BUDGET_S:
            break
        run_seed = SEEDS_PER_CALL * seed + len(runs)
        for mode in ("setup",) * SETUPS_PER_REP + ("plain",):
            run = run_worker(
                workload, run_seed, mode, timeout_s=deadline - time.perf_counter()
            )
            setups.append(run["e2e"]["setup_s"])
        runs.append(run)
        measured += run["body_s"]
    values = {
        # What the reference clock leaves in goes both ways: the median.
        "work_per_s": statistics.median(run["e2e"]["work_per_s"] for run in runs),
        "peak_rss_mb": statistics.median(run["e2e"]["peak_rss_mb"] for run in runs),
        # Set-up is on the wall clock (see worker.py).  Noise on a shared
        # box only ever slows a run, so the fastest set-up is the one
        # least disturbed.
        "setup_s": min(setups),
    }
    metrics = {
        name: {"value": values[name], "unit": unit}
        for name, unit, _better, _bound in CONTRACT_END_TO_END
    }
    return {
        "correct": all(run["gate"]["correct"] for run in runs),
        "attempted": sum(run["gate"]["attempted"] for run in runs),
        "failed": sum(run["gate"]["failed"] for run in runs),
        "metrics": metrics,
    }


def measure_per_layer(workload: str, seed: int, deadline: float) -> dict:
    """``--trace 1``: one plain, one traced and one counted run."""
    plain, traced, counted = (
        run_worker(workload, seed, mode, timeout_s=deadline - time.perf_counter())
        for mode in ("plain", "traced", "counted")
    )
    entry = report.aggregate(workload, [plain], traced, counted)
    metrics = {}
    for spec in per_layer_entries():
        name = spec["name"]
        if name.startswith("e2e."):
            value = entry["end_to_end"].get(name[len("e2e."):], 0.0)
        else:
            value = entry["per_layer"][name]
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return {
        "correct": entry["correct"],
        "attempted": entry["attempted"],
        "failed": entry["failed"],
        "metrics": metrics,
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    deadline = started + CALL_DEADLINE_S
    if trace:
        result = measure_per_layer(workload, seed, deadline)
    else:
        result = measure_end_to_end(workload, seed, seconds, deadline)
    result["elapsed_s"] = time.perf_counter() - started
    return result
