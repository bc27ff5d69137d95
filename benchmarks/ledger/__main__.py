"""``PYTHONPATH=src python -m benchmarks.ledger`` — run the ledger.

Runs the five workloads, checks their outputs, prints every metric by
name with its unit, and writes the result to ``--out``.  Exits non-zero
if any correctness check fails.  Three kinds of run per workload, each a
fresh process: two back-to-back sets of ``--reps`` timed runs (tracing
off, interleaved round-robin across workloads so a slow minute on a
shared box hits all of them), one traced run and one counted run.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from . import report
from .runner import exit_on_sigterm, run_worker
from .workloads import WORKLOADS

DEFAULT_OUT = pathlib.Path(__file__).resolve().parent / "out"
#: Back-to-back sets of timed runs; the noise report is the change of
#: each host metric's value from the first set to the second.
SETS = 2
#: Fewest timed runs per set a best-of-reps may rest on.
MIN_REPS = 3
#: Hash seeds of the two runs ``--check-determinism`` compares.
DETERMINISM_HASH_SEEDS = (0, 4242)


def _say(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def check_determinism(names: list[str], seed: int, smoke: bool) -> int:
    """Two counted runs per workload under different hash seeds must
    agree bit for bit on every exact number (the exact half of "two sets
    of runs agree")."""
    failures = 0
    for name in names:
        runs = [
            run_worker(name, seed, "counted", smoke=smoke, hash_seed=hash_seed)
            for hash_seed in DETERMINISM_HASH_SEEDS
        ]
        values, disagree = report.exact_metrics(runs)
        if disagree:
            failures += 1
            print(f"{name}: NOT deterministic: {', '.join(disagree)}")
            for key in disagree:
                pair = [report.exact_values(run).get(key) for run in runs]
                print(f"    {key}: {pair[0]!r} != {pair[1]!r}")
        else:
            print(
                f"{name}: {len(values)} exact values identical under PYTHONHASHSEED="
                f"{DETERMINISM_HASH_SEEDS[0]} and {DETERMINISM_HASH_SEEDS[1]}"
                f" (py_calls={values['py_calls']:,}, sim.events={values['sim.events']:,})"
            )
    return 1 if failures else 0


def set_to_set_spread(sets: list[dict[str, list[dict]]]) -> dict:
    """Relative change of each host metric's value between the two
    back-to-back sets of timed runs."""
    spread: dict[str, dict[str, float]] = {}
    for name in sets[0]:
        first = report.host_metrics(sets[0][name])
        second = report.host_metrics(sets[1][name])
        spread[name] = {
            metric: second[metric]["value"] / first[metric]["value"] - 1.0
            for metric in first
            if metric in second and first[metric]["value"]
        }
    return spread


def main(argv: list[str] | None = None) -> int:
    names = [workload.name for workload in WORKLOADS]
    parser = argparse.ArgumentParser(prog="python -m benchmarks.ledger", description=__doc__)
    parser.add_argument("--seed", type=int, default=17)
    parser.add_argument("--reps", type=int, default=7, help="timed runs per set (>= 3)")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    parser.add_argument("--smoke", action="store_true", help="1/10-size workloads")
    parser.add_argument("--check-determinism", action="store_true")
    args = parser.parse_args(argv)
    exit_on_sigterm()
    if args.reps < MIN_REPS:
        parser.error(f"--reps must be at least {MIN_REPS}")
    if args.check_determinism:
        return check_determinism(args.workloads, args.seed, args.smoke)

    args.out.mkdir(parents=True, exist_ok=True)
    stamp = report.environment_stamp(seed=args.seed, reps=args.reps, smoke=args.smoke)
    sets: list[dict[str, list[dict]]] = []
    for set_index in range(SETS):
        runs: dict[str, list[dict]] = {name: [] for name in args.workloads}
        for rep in range(args.reps):
            for name in args.workloads:
                _say(f"timed  set {set_index + 1}/{SETS} rep {rep + 1}/{args.reps}  {name}")
                runs[name].append(run_worker(name, args.seed, "plain", smoke=args.smoke))
        sets.append(runs)
    entries = []
    for name in args.workloads:
        _say(f"traced {name}")
        traced = run_worker(name, args.seed, "traced", smoke=args.smoke, dump_dir=str(args.out))
        _say(f"counted {name}")
        counted = run_worker(name, args.seed, "counted", smoke=args.smoke)
        plain = [run for runs in sets for run in runs[name]]
        entries.append(report.aggregate(name, plain, traced, counted))

    spread = set_to_set_spread(sets)
    stamp["loadavg_end"] = report.environment_stamp()["loadavg"]
    print(report.render(entries, stamp, spread))
    path = report.write_outputs(
        args.out, {"stamp": stamp, "set_to_set_spread": spread, "workloads": entries}
    )
    print(f"\nwrote {path} (+ history.jsonl)")
    return 0 if all(entry["correct"] for entry in entries) else 1


if __name__ == "__main__":
    raise SystemExit(main())
