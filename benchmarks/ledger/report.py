"""Aggregate worker results into the ledger: values, noise, provenance."""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import statistics
import subprocess

from .metrics import (
    E2E_BY_NAME,
    END_TO_END,
    EXACT_E2E,
    LAYER_COLUMNS,
    LAYER_COUNTERS,
    per_layer_units,
)
from .runner import ROOT
from .tracer import LAYERS

#: End-to-end metrics timed on the host: noisy, so summarised over runs.
HOST_E2E = tuple(
    metric.name for metric in END_TO_END if metric.clock in ("host", "reference")
)


def environment_stamp(**extra) -> dict:
    """Where and on what a result was measured."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    stamp = {
        "when_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_sha": sha or "unknown",
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }
    stamp.update(extra)
    return stamp


def noise_summary(values: list[float], better: str) -> dict:
    """best / median / quartiles / n of one host metric's repetitions.

    Neighbour noise on a shared box is one-sided (it only ever slows a
    run), so *best* is the estimate of the undisturbed wall-clock value;
    the rest says how disturbed the repetitions were.  The error left
    in a reference-clock value goes both ways: its estimate is *median*.
    """
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _q2, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "best": ordered[-1] if better == "higher" else ordered[0],
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "n": len(ordered),
    }


def host_metrics(plain_runs: list[dict]) -> dict[str, dict]:
    """Noise summary of every host metric the plain runs report;
    ``value`` is the estimate the ledger reports."""
    summaries = {}
    for name in HOST_E2E:
        if name in plain_runs[0]["e2e"]:
            metric = E2E_BY_NAME[name]
            summary = noise_summary([run["e2e"][name] for run in plain_runs], metric.better)
            summary["value"] = summary["median" if metric.clock == "reference" else "best"]
            summaries[name] = summary
    return summaries


def exact_values(run: dict) -> dict[str, float]:
    """The numbers of one run that must repeat exactly for its seed."""
    values = {name: run["e2e"][name] for name in EXACT_E2E if name in run["e2e"]}
    values["sim.events"] = run["counters"].get("sim.events", 0)
    if "py_calls" in run:
        values["py_calls"] = run["py_calls"]["total"]
        for layer, calls in run["py_calls"]["layers"].items():
            values[f"{layer}.py_calls"] = calls
    return values


def exact_metrics(runs: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Exact values of the first run, and the names later runs change."""
    first = exact_values(runs[0])
    disagree = {
        name
        for run in runs[1:]
        for name, value in exact_values(run).items()
        if name in first and first[name] != value
    }
    return first, sorted(disagree)


def per_layer(traced: dict | None, counted: dict | None, best_body_s: float | None) -> dict[str, float]:
    """Every per-layer metric by name (0 where a layer did not run)."""
    values = dict.fromkeys(per_layer_units(), 0.0)
    if traced is not None:
        trace = traced["trace"]
        wall = trace["wall_s"]
        for layer, totals in trace["layers"].items():
            if layer in LAYERS:
                values[f"{layer}.calls"] = totals["calls"]
                values[f"{layer}.self_s"] = totals["self_s"]
                values[f"{layer}.share"] = totals["self_s"] / wall if wall else 0.0
        for name in LAYER_COUNTERS:
            if name in traced["counters"]:
                values[name] = traced["counters"][name]
        # Time no named layer covers: the root's own, plus callbacks
        # defined outside every layer.
        other = trace["layers"].get("other", {"self_s": 0.0})["self_s"]
        values["trace.untraced_share"] = (trace["untraced_s"] + other) / wall if wall else 0.0
        if best_body_s:
            values["trace.overhead_ratio"] = traced["body_s"] / best_body_s
    if counted is not None:
        for layer, calls in counted["py_calls"]["layers"].items():
            if layer in LAYERS:
                values[f"{layer}.py_calls"] = calls
    return values


def aggregate(
    workload: str,
    plain_runs: list[dict],
    traced: dict | None = None,
    counted: dict | None = None,
) -> dict:
    """One workload's ledger entry from its runs."""
    all_runs = plain_runs + [run for run in (traced, counted) if run is not None]
    host = host_metrics(plain_runs)
    exact, disagree = exact_metrics(all_runs)
    end_to_end: dict[str, float] = {name: s["value"] for name, s in host.items()}
    end_to_end.update({k: v for k, v in exact.items() if k in E2E_BY_NAME})
    if counted is not None:
        unit = "py_calls_per_page" if workload == "dataplane_ops" else "py_calls_per_req"
        end_to_end[unit] = counted["py_calls"]["total"] / counted["units"]
    problems = [p for run in all_runs for p in run["gate"]["problems"]]
    if disagree:
        problems.append(f"not deterministic across runs: {', '.join(disagree)}")
    best_body = min((run["body_s"] for run in plain_runs), default=None)
    entry = {
        "workload": workload,
        "correct": not problems,
        "problems": problems,
        "attempted": plain_runs[0]["gate"]["attempted"],
        "failed": max((run["gate"]["failed"] for run in all_runs), default=0),
        "end_to_end": end_to_end,
        "host_noise": host,
        "per_layer": per_layer(traced, counted, best_body),
    }
    if traced is not None:
        entry["top_spans_self_s"] = traced["trace"]["names"]
    if counted is not None:
        entry["py_calls_total"] = counted["py_calls"]["total"]
    return entry


# ---------------------------------------------------------------- rendering


def _fmt(value: float) -> str:
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value):,}"
    if abs(value) >= 1000:
        return f"{value:,.1f}"
    return f"{value:.4g}"


def render(entries: list[dict], stamp: dict, set_spread: dict | None = None) -> str:
    """The ledger as text: every metric by name with its unit."""
    lines = [
        "Performance ledger  "
        + "  ".join(f"{key}={stamp[key]}" for key in ("git_sha", "seed", "reps", "nproc", "python", "numpy"))
        + f"  loadavg={stamp['loadavg'][0]:.2f}",
    ]
    for entry in entries:
        lines.append("")
        status = "ok" if entry["correct"] else "FAILED: " + "; ".join(entry["problems"])
        lines.append(
            f"== {entry['workload']}  attempted={entry['attempted']} "
            f"failed={entry['failed']}  [{status}]"
        )
        lines.append("-- end to end (host values are best-of-reps, work_per_s the median)")
        for metric in END_TO_END:
            if metric.name not in entry["end_to_end"]:
                continue
            value = entry["end_to_end"][metric.name]
            line = f"  {metric.name:<28}{_fmt(value):>14} {metric.unit:<9}{metric.better:<7}[{metric.bound}]"
            noise = entry["host_noise"].get(metric.name)
            if noise:
                line += (
                    f"  median {_fmt(noise['median'])}  q1 {_fmt(noise['q1'])}"
                    f"  q3 {_fmt(noise['q3'])}  n={noise['n']}"
                )
                spread = (set_spread or {}).get(entry["workload"], {}).get(metric.name)
                if spread is not None:
                    line += f"  set-to-set {spread:+.1%}"
            lines.append(line)
        lines.append("-- per layer: calls / self_s / share / py_calls")
        for layer in LAYERS:
            # Every layer is printed: zeros say a workload bypasses it.
            calls, self_s, share, py_calls = (
                entry["per_layer"][f"{layer}.{column}"] for column in LAYER_COLUMNS
            )
            lines.append(
                f"  {layer:<20}{_fmt(calls):>10} count{self_s:>10.3f} s"
                f"{share:>8.1%}{_fmt(py_calls):>13} count"
            )
        units = per_layer_units()
        for name in LAYER_COUNTERS:
            lines.append(f"  {name:<42}{_fmt(entry['per_layer'][name]):>14} {units[name]}")
    return "\n".join(lines)


# ------------------------------------------------------------------ outputs


def write_outputs(out_dir: pathlib.Path, document: dict) -> pathlib.Path:
    """One JSON per invocation plus an appended ``history.jsonl`` line."""
    out_dir.mkdir(parents=True, exist_ok=True)
    stamp = document["stamp"]
    when = stamp["when_utc"].replace(":", "").replace("-", "").replace("+0000", "Z")
    path = out_dir / f"ledger_{when}_{stamp['git_sha']}.json"
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    summary = {
        "stamp": stamp,
        "file": path.name,
        "workloads": {
            entry["workload"]: {
                "correct": entry["correct"],
                "end_to_end": entry["end_to_end"],
            }
            for entry in document["workloads"]
        },
    }
    with open(out_dir / "history.jsonl", "a", encoding="utf-8") as history:
        history.write(json.dumps(summary) + "\n")
    return path
