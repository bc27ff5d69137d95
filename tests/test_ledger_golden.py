"""The ledger's exact numbers at ``--smoke`` size, frozen (ROADMAP 1(i)).

Replays the five BENCHMARK.json workloads in-process at seed 17 and
diffs every number that repeats exactly for a seed — simulated-clock
latencies and fractions, event and op counts, registry size — by its
BENCHMARK.json name against ``tests/golden/ledger_exact.json``.  Which
numbers are exact is the ledger's own statement (``report.exact_values``
plus every counter whose declared unit is not seconds), not a list kept
here.  A PR that means to move a number edits the JSON in the same
diff; ``python -m tests.test_ledger_golden --write`` regenerates it
through the same :func:`exact_numbers` the test calls.

Limit: at smoke size nothing is under memory pressure.
``controller.evictions`` is 0 on all four replays, ``ladder_faulted``
does 0 dedup ops and 0 restores, and ``template_forks`` does 0 forks.
This golden guards codec / fingerprint / registry / synthesis outputs
and the event count, not placement or eviction —
``tests/platform/test_control_plane_equivalence.py`` guards those.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from benchmarks.ledger import metrics as ledger_metrics
from benchmarks.ledger import report
from benchmarks.ledger.worker import _finite
from benchmarks.ledger.workloads import BY_NAME

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "ledger_exact.json"
SEED = 17


def exact_numbers(workload: str) -> dict[str, float]:
    """One smoke run's exact numbers, as the ledger would report them."""
    prepared = BY_NAME[workload].prepare(SEED, True)
    prepared.execute()
    gate = prepared.gate()
    assert gate.correct, gate.problems
    e2e = ledger_metrics.end_to_end(prepared)
    e2e["failed_fraction"] = gate.failed / gate.attempted
    counters = ledger_metrics.counters(prepared)
    values = report.exact_values({"e2e": e2e, "counters": counters})
    values.update(
        (name, value)
        for name, value in counters.items()
        if ledger_metrics.LAYER_COUNTERS[name] != "s"
    )
    return _finite(values)


@pytest.mark.parametrize("workload", list(BY_NAME))
def test_smoke_replay_matches_golden(workload):
    golden = json.loads(GOLDEN.read_text())
    assert exact_numbers(workload) == golden[workload]


def main(argv: list[str]) -> int:
    if argv != ["--write"]:
        print(f"usage: python -m {__spec__.name} --write", file=sys.stderr)
        return 2
    runs = {workload: exact_numbers(workload) for workload in BY_NAME}
    GOLDEN.write_text(json.dumps(runs, indent=1) + "\n")
    print(f"wrote {GOLDEN} ({sum(map(len, runs.values()))} numbers)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
