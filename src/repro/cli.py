"""Command-line entry point: run any reproduced experiment from a shell.

Examples::

    medes-repro list
    medes-repro quickstart
    medes-repro study --aslr
    medes-repro experiment fig7
    medes-repro experiment fig12 --duration 10
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis import experiments, study, tables
from repro.platform import ClusterConfig, PlatformKind, build_platform
from repro.workload import AzureTraceGenerator, FunctionBenchSuite
from repro.workload.trace_io import dump_trace

#: Experiment id -> (description, driver).
_EXPERIMENTS = {
    "fig7": ("Figure 7: e2e latency improvements vs both baselines (P1)", experiments.run_fig7),
    "fig8": ("Figure 8: dedup-start breakdown vs cold start", experiments.run_fig8),
    "fig9": ("Figure 9: cluster memory usage under the P2 policy", experiments.run_fig9),
    "fig10": ("Figures 10-11: cold starts/latency under memory pressure", experiments.run_pressure),
    "fig12": ("Figure 12: keep-alive period sweep vs Medes", experiments.run_fig12),
    "fig13": ("Figure 13: emulated Catalyzer with and without Medes", experiments.run_fig13),
    "fig14": ("Figure 14: RSC chunk-size sensitivity", experiments.run_fig14),
    "fig15": ("Figure 15: keep-dedup period sensitivity", experiments.run_fig15),
    "fig16": ("Figure 16: fingerprint cardinality sensitivity", experiments.run_fig16),
    "sec77": ("Section 7.7: dedup agent and controller overheads", experiments.run_overheads),
}


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = sorted((name, description) for name, (description, _) in _EXPERIMENTS.items())
    print(tables.render_table(["id", "description"], rows))
    return 0


def _cmd_quickstart(args: argparse.Namespace) -> int:
    suite = FunctionBenchSuite.default()
    trace = AzureTraceGenerator(seed=args.seed).generate(args.duration, suite.names())
    config = ClusterConfig(nodes=args.nodes, node_memory_mb=args.node_memory_mb)
    print(f"Replaying {len(trace)} requests on {config.nodes} nodes "
          f"({config.node_memory_mb:.0f} MB each)...\n")
    for kind in (PlatformKind.FIXED_KEEP_ALIVE, PlatformKind.MEDES):
        report = build_platform(kind, config, suite).run(trace)
        print(report.summary())
        print()
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    suite = FunctionBenchSuite.default()
    redundancy = study.same_function_redundancy(suite, aslr=args.aslr)
    label = "ASLR on" if args.aslr else "ASLR off"
    print(study.render_redundancy(redundancy, f"Fig 1: same-function memory redundancy ({label})"))
    print()
    matrix = study.cross_function_matrix(suite)
    print(
        tables.render_matrix(
            list(suite.names()), matrix, title="Fig 1c: cross-function redundancy @64B"
        )
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    suite = FunctionBenchSuite.default()
    names = suite.names() if args.functions is None else tuple(args.functions.split(","))
    for name in names:
        suite.get(name)  # validate
    trace = AzureTraceGenerator(seed=args.seed).generate(args.duration, names)
    dump_trace(trace, args.output)
    print(f"wrote {len(trace)} requests ({args.duration:g} min, "
          f"{len(names)} functions) to {args.output}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    name = args.name
    if name not in _EXPERIMENTS:
        print(f"unknown experiment {name!r}; see `medes-repro list`", file=sys.stderr)
        return 2
    kwargs = {}
    if args.duration is not None and name not in ("fig8", "sec77"):
        kwargs["duration_min"] = args.duration
    result = _EXPERIMENTS[name][1](**kwargs)
    print(result.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="medes-repro",
        description="Medes (EuroSys '22) reproduction experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible experiments").set_defaults(
        func=_cmd_list
    )

    quick = sub.add_parser("quickstart", help="small Medes-vs-baseline comparison")
    quick.add_argument("--duration", type=float, default=10.0, help="trace minutes")
    quick.add_argument("--seed", type=int, default=42)
    quick.add_argument("--nodes", type=int, default=2)
    quick.add_argument("--node-memory-mb", type=float, default=1024.0)
    quick.set_defaults(func=_cmd_quickstart)

    st = sub.add_parser("study", help="Section-2 redundancy measurement study")
    st.add_argument("--aslr", action="store_true", help="enable ASLR effects")
    st.set_defaults(func=_cmd_study)

    exp = sub.add_parser("experiment", help="run one evaluation experiment")
    exp.add_argument("name", help="experiment id (see `list`)")
    exp.add_argument("--duration", type=float, default=None, help="trace minutes")
    exp.set_defaults(func=_cmd_experiment)

    tr = sub.add_parser("trace", help="generate an Azure-style trace CSV")
    tr.add_argument("output", help="CSV file to write")
    tr.add_argument("--duration", type=float, default=30.0, help="trace minutes")
    tr.add_argument("--seed", type=int, default=0)
    tr.add_argument(
        "--functions",
        default=None,
        help="comma-separated FunctionBench names (default: all ten)",
    )
    tr.set_defaults(func=_cmd_trace)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
