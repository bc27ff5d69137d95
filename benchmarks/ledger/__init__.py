"""Performance ledger: five named workloads, two clocks, per-layer trace.

``PYTHONPATH=src python -m benchmarks.ledger`` runs the ledger;
``python3 benchmarks/ledger/run.py`` is the entry the benchmark driver
calls (see ``BENCHMARK.json`` and ``README.md``).  Imports only ``repro``,
numpy and the standard library.
"""
