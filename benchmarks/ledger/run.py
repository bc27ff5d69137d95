"""Entry point the benchmark driver calls (see ``BENCHMARK.json``).

``python3 benchmarks/ledger/run.py --workload W --seed N --seconds S
--trace 0|1`` from the root of a checkout.  Prints, as the last line of
stdout, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exits non-zero without a result when the program under
``src/`` is missing, and with a result when a correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: nothing to measure, {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from benchmarks.ledger.contract import measure
    from benchmarks.ledger.runner import exit_on_sigterm
    from benchmarks.ledger.workloads import BY_NAME

    exit_on_sigterm()

    if args.workload not in BY_NAME:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(BY_NAME)}")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    elapsed = result.pop("elapsed_s")
    print(f"run.py: {args.workload} seed={args.seed} trace={args.trace} took {elapsed:.1f} s", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
