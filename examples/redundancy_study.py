#!/usr/bin/env python3
"""The Section-2 measurement study: how much memory do sandboxes share?

Reproduces the paper's motivation figures on synthetic sandbox images:
same-function redundancy across chunk sizes (with and without ASLR) and
the cross-function redundancy matrix, then estimates the achievable
memory savings on a keep-alive platform (Figure 2).

Run:
    python examples/redundancy_study.py
"""

from __future__ import annotations

from repro.analysis.study import (
    cross_function_matrix,
    measure_function_savings,
    render_redundancy,
    same_function_redundancy,
    savings_timeline,
)
from repro.analysis.tables import render_matrix
from repro.workload.azure import AzureTraceGenerator
from repro.workload.functionbench import FunctionBenchSuite


def main() -> None:
    suite = FunctionBenchSuite.default()

    print("Measuring same-function redundancy (Fig 1a/1b)...\n")
    for aslr in (False, True):
        data = same_function_redundancy(suite, aslr=aslr)
        label = "enabled" if aslr else "disabled"
        print(render_redundancy(data, f"Same-function redundancy, ASLR {label}"))
        print()

    print("Measuring cross-function redundancy (Fig 1c)...\n")
    matrix = cross_function_matrix(suite)
    print(render_matrix(list(suite.names()), matrix,
                        title="Cross-function redundancy @64B chunks"))
    print()

    print("Estimating keep-alive memory savings (Fig 2)...\n")
    trace = AzureTraceGenerator(seed=2).generate(30, suite.names())
    savings = measure_function_savings(suite)
    points = savings_timeline(trace, suite, savings=savings)
    busy = [p for p in points if p.keep_alive_mb > 0]
    mean_saving = sum(1 - p.after_dedup_mb / p.keep_alive_mb for p in busy) / len(busy)
    peak_saving = max(1 - p.after_dedup_mb / p.keep_alive_mb for p in busy)
    print(f"Mean achievable saving over the trace: {mean_saving * 100:.1f}%")
    print(f"Peak achievable saving:                {peak_saving * 100:.1f}%")
    print("(the paper's Figure 2 reports savings of up to ~30%)")


if __name__ == "__main__":
    main()
