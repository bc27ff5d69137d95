"""One run of one workload, in its own process.

``python -m benchmarks.ledger.worker --workload W --seed N --mode M``
prints one JSON object on the last line of stdout.  A fresh process per
run means no interned state shared between runs, no reach into the
process-global sandbox/checkpoint id counters, and an honest
``ru_maxrss``.  Modes:

* ``plain``   — tracing off; the only source of end-to-end numbers.
* ``setup``   — set-up only (imports, generation, build), then exit.
* ``traced``  — spans at every layer boundary (see ``tracer.py``).
* ``counted`` — under ``cProfile`` for exact per-layer call counts.

In a ``plain`` run the speed calibrator (``calibrate.py``) samples
alongside the timed body, about 1 % of it, to put ``work_per_s`` on the
reference clock.  Set-up stays on the wall clock: most of it is imports,
long stretches of C that no sample interrupts, and its reference time
came out less steady than its wall time.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time


def run(
    workload: str,
    seed: int,
    mode: str,
    smoke: bool = False,
    dump_dir: str | None = None,
) -> dict:
    started = time.perf_counter()
    # Imports are part of set-up: work moved to import time must show.
    from . import metrics as ledger_metrics
    from .calibrate import Calibrator
    from .workloads import BY_NAME

    tracer = None
    if mode == "traced":
        from .tracer import Tracer

        tracer = Tracer()
        tracer.install()

    prepared = BY_NAME[workload].prepare(seed, smoke)
    setup_s = time.perf_counter() - started

    result: dict = {"workload": workload, "seed": seed, "mode": mode, "smoke": smoke}
    if mode == "setup":
        result["e2e"] = {"setup_s": setup_s}
        return result
    body_started = time.perf_counter()
    if mode == "plain":
        calibrator = Calibrator()
        calibrator.start()
        try:
            prepared.execute()
        finally:
            calibrator.stop()
    elif mode == "traced":
        with tracer.root() as root_index:
            prepared.execute()
        tracer.uninstall()
    elif mode == "counted":
        import cProfile

        profile = cProfile.Profile()
        profile.enable()
        try:
            prepared.execute()
        finally:
            profile.disable()
    else:
        raise ValueError(f"unknown mode {mode!r}")
    body_s = time.perf_counter() - body_started

    gate = prepared.gate()
    e2e = ledger_metrics.end_to_end(prepared)
    e2e.update(
        setup_s=setup_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        failed_fraction=gate.failed / gate.attempted,
    )
    if mode == "plain":
        reference_s = calibrator.reference_seconds(prepared.work_intervals)
        e2e["work_per_s"] = prepared.units / reference_s if reference_s else 0.0
    result.update(
        body_s=body_s,
        units=prepared.units,
        gate={
            "correct": gate.correct,
            "attempted": gate.attempted,
            "failed": gate.failed,
            "problems": gate.problems,
        },
        e2e=e2e,
        counters=ledger_metrics.counters(prepared),
    )

    if tracer is not None:
        from .tracer import LAYERS, summarize, write_chrome_trace, write_jsonl

        spans = tracer.spans  # every span has ended: the stack is empty
        wall, untraced, layers, names = summarize(spans, root_index)
        result["trace"] = {
            "wall_s": wall,
            "untraced_s": untraced,
            "spans": len(spans),
            "layers": {
                layer: {"calls": layers[layer].calls, "self_s": layers[layer].self_s}
                for layer in (*LAYERS, "other")
                if layer in layers
            },
            "names": dict(sorted(names.items(), key=lambda kv: -kv[1])[:40]),
        }
        result["counters"].update(
            ledger_metrics.traced_counters(dict(tracer.counters), names)
        )
        if dump_dir is not None:
            write_jsonl(spans, f"{dump_dir}/trace_{workload}.jsonl")
            write_chrome_trace(spans, f"{dump_dir}/trace_{workload}.chrome.json")
    if mode == "counted":
        from .counts import layer_calls

        total, by_layer = layer_calls(profile)
        result["py_calls"] = {"total": total, "layers": by_layer}
    return _finite(result)


def _finite(value):
    """NaN (a percentile over no samples) is not JSON; report it as 0."""
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return 0.0
    return value


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "setup", "traced", "counted"), default="plain")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--dump-dir", default=None)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.mode, args.smoke, args.dump_dir)
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    gate = result.get("gate")  # a set-up-only run has nothing to check
    return 0 if gate is None or gate["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
