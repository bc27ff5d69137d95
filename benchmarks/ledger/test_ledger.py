"""Self-test of the ledger harness (run explicitly; not part of tier 1):

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q
"""

from __future__ import annotations

import json
import pathlib
import sys
import time
import types

import pytest

from benchmarks.ledger import calibrate, report, tracer
from benchmarks.ledger.contract import CONTRACT_END_TO_END, benchmark_document
from benchmarks.ledger.metrics import END_TO_END, per_layer_units
from benchmarks.ledger.runner import ROOT, run_worker
from benchmarks.ledger.workloads import WORKLOADS

NAMES = [workload.name for workload in WORKLOADS]


# ------------------------------------------------------- self-time arithmetic


class FakeClock:
    """A clock the fake layers advance by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def test_self_time_of_nested_fake_layers():
    clock = FakeClock()
    trace = tracer.Tracer(clock=clock)

    def leaf():
        clock.spend(3.0)

    traced_leaf = trace.wrap("memory.patch", "leaf", leaf)

    def middle():
        clock.spend(1.0)
        traced_leaf()
        clock.spend(1.0)
        traced_leaf()

    traced_middle = trace.wrap("core.agent", "middle", middle)

    def outer():
        clock.spend(0.5)
        traced_middle()
        traced_leaf()  # same layer reached from two parents

    traced_outer = trace.wrap("controller", "outer", outer)
    with trace.root() as root_index:
        clock.spend(0.25)  # untraced harness time
        traced_outer()

    wall, untraced, layers, names = tracer.summarize(trace.spans, root_index)
    assert wall == pytest.approx(11.75)
    assert untraced == pytest.approx(0.25)
    assert layers["controller"].self_s == pytest.approx(0.5)
    assert layers["core.agent"].self_s == pytest.approx(2.0)
    assert layers["memory.patch"].self_s == pytest.approx(9.0)
    assert layers["memory.patch"].calls == 3
    assert names["leaf"] == pytest.approx(9.0)
    # Self times partition the root: nothing is counted twice or lost.
    total = untraced + sum(totals.self_s for totals in layers.values())
    assert total == pytest.approx(wall)


def test_span_survives_an_exception():
    clock = FakeClock()
    trace = tracer.Tracer(clock=clock)

    def boom():
        clock.spend(2.0)
        raise ValueError("x")

    with trace.root() as root_index, pytest.raises(ValueError):
        trace.wrap("faults", "boom", boom)()
    _wall, _untraced, layers, _names = tracer.summarize(trace.spans, root_index)
    assert layers["faults"].self_s == pytest.approx(2.0)


# ------------------------------------------------------------- installation


def test_every_table_row_resolves_to_a_public_callable():
    """A rename under ``src/`` must fail here, not silently drop a layer."""
    assert len(set(tracer.LAYER_TABLE)) == len(tracer.LAYER_TABLE)
    for layer, module, attr in tracer.LAYER_TABLE:
        assert layer in tracer.LAYERS, (layer, module, attr)
        tracer.resolve_row(module, attr)  # raises LookupError when gone
    for (module, attr) in tracer.COUNT_HOOKS:
        assert any(row[1:] == (module, attr) for row in tracer.LAYER_TABLE), (module, attr)
    assert {row[0] for row in tracer.LAYER_TABLE} == set(tracer.LAYERS)


def test_resolve_row_rejects_private_and_missing_names():
    with pytest.raises(LookupError):
        tracer.resolve_row("repro.memory.patch", "_anchor_ops")
    with pytest.raises(LookupError):
        tracer.resolve_row("repro.memory.patch", "no_such_function")
    with pytest.raises(LookupError):
        tracer.resolve_row("repro.sim.engine", "Simulator.no_such_method")


def _bindings():
    """Every (owner, name) -> object the tracer may rebind."""
    from repro.sim.engine import Simulator

    seen = {}
    for _layer, module, attr in tracer.LAYER_TABLE:
        owner, name, raw = tracer.resolve_row(module, attr)
        seen[(id(owner), name)] = (owner, name, raw)
    for name in ("at", "every"):
        seen[(id(Simulator), name)] = (Simulator, name, vars(Simulator)[name])
    for module_name, module in list(sys.modules.items()):
        if isinstance(module, types.ModuleType) and module_name.startswith("repro"):
            for name, value in vars(module).items():
                if isinstance(value, types.FunctionType):
                    seen[(id(module), name)] = (module, name, value)
    return seen


def test_install_rebinds_imported_names_and_uninstall_restores_them():
    import repro.core.agent as agent_module
    import repro.memory.patch as patch_module
    from repro.sim.engine import Simulator

    before = _bindings()
    trace = tracer.Tracer()
    trace.install()
    try:
        # ``from repro.memory.patch import compute_patches`` in core/agent.py
        assert agent_module.compute_patches is patch_module.compute_patches
        assert agent_module.compute_patches is not before[(id(agent_module), "compute_patches")][2]
        assert vars(Simulator)["at"] is not before[(id(Simulator), "at")][2]
        with pytest.raises(RuntimeError):
            trace.install()
    finally:
        trace.uninstall()
    assert not trace.installed
    for owner, name, original in before.values():
        assert vars(owner)[name] is original, (owner, name)


def test_scheduled_callbacks_become_spans_of_their_module():
    from repro.sim.engine import Simulator

    trace = tracer.Tracer()
    trace.install()
    try:
        sim = Simulator()
        fired = []
        with trace.root() as root_index:
            sim.after(5.0, lambda: fired.append(sim.now))
            sim.run_until(10.0)
    finally:
        trace.uninstall()
    assert fired == [5.0]
    _wall, _untraced, layers, names = tracer.summarize(trace.spans, root_index)
    assert layers["sim"].calls == 1  # run_until
    assert layers["other"].calls == 1  # this test module is no layer
    assert any("<lambda>" in name for name in names)


# ------------------------------------------------------------------ catalogue


def test_benchmark_json_matches_the_package():
    document = benchmark_document()
    assert [w["name"] for w in document["workloads"]] == NAMES
    assert 1 <= len(document["per_layer"]) <= 128
    assert "setup_s" in {m["name"] for m in document["end_to_end"]}
    assert all(m["bound"] <= 0.25 for m in document["end_to_end"])
    names = [m["name"] for m in document["end_to_end"] + document["per_layer"]]
    assert len(names) == len(set(names))
    assert all(len(w["why"]) <= 200 for w in document["workloads"])
    assert set(per_layer_units()) <= set(names)
    assert {f"e2e.{m.name}" for m in END_TO_END} - set(names) == {
        "e2e.setup_s",
        "e2e.work_per_s",
        "e2e.peak_rss_mb",
    }
    committed = ROOT / "BENCHMARK.json"
    if committed.exists():
        assert json.loads(committed.read_text()) == document


def test_call_counts_keep_same_named_generated_functions_apart():
    """Every dataclass ``__init__`` is ``<string>:2:__init__``; merging
    them by label (as pstats does) drops all but one."""
    import cProfile
    from dataclasses import dataclass

    from benchmarks.ledger.counts import layer_calls

    @dataclass
    class First:
        value: int

    @dataclass
    class Second:
        value: int

    def total_calls(firsts: int, seconds: int) -> int:
        profile = cProfile.Profile()
        profile.enable()
        for value in range(firsts):
            First(value)
        for value in range(seconds):
            Second(value)
        profile.disable()
        total, by_layer = layer_calls(profile)
        assert by_layer == {"other": total}  # nothing here is a layer
        return total

    assert total_calls(5, 70) - total_calls(5, 7) == 63
    assert total_calls(50, 7) - total_calls(5, 7) == 45


def test_call_counts_do_not_depend_on_the_profiler_table_order():
    """Helpers that call each other are split between the layers that
    call them; the profiler's tables are address-ordered, so the split
    must come out the same whichever order they are read in."""
    import cProfile

    from benchmarks.ledger.counts import layer_calls

    helpers: dict = {}
    exec(
        compile(
            "def ping(n):\n    return n and pong(n - 1)\n"
            "def pong(n):\n    return n and ping(n - 1)\n",
            "<helpers>",
            "exec",
        ),
        helpers,
    )
    layers = {}
    for path, name, times in (
        ("/x/repro/memory/patch.py", "encode", 3),
        ("/x/repro/sim/engine.py", "step", 1),
    ):
        source = f"def {name}():\n    for _ in range({times}):\n        ping(5)\n        pong(4)\n"
        scope = dict(helpers)
        exec(compile(source, path, "exec"), scope)
        layers[name] = scope[name]

    profile = cProfile.Profile()
    profile.enable()
    layers["encode"]()
    layers["step"]()
    profile.disable()

    class Reordered:
        def __init__(self, stats):
            self.stats = stats

        def getstats(self):
            return self.stats

    stats = profile.getstats()
    total, by_layer = layer_calls(profile)
    assert by_layer["memory.patch"] > by_layer["sim"] > 0
    assert layer_calls(Reordered(stats[::-1])) == (total, by_layer)
    assert layer_calls(Reordered(sorted(stats, key=lambda e: e.callcount))) == (total, by_layer)


def test_reference_seconds_credit_work_at_the_sampled_speed():
    kernel_s = calibrate.REFERENCE_KERNEL_S
    calibrator = calibrate.Calibrator()
    calibrator._started = 10.0
    # The handler ran over 12-12.5 at half speed and over 16-17 at full
    # speed: work over 10-12 counts half, all other work in full, and
    # the handler's own time not at all.
    calibrator._samples = [(12.0, 12.5, 2 * kernel_s), (16.0, 17.0, kernel_s)]
    assert calibrator.reference_seconds([(10.0, 20.0)]) == pytest.approx(1.0 + 3.5 + 3.0)
    assert calibrator.reference_seconds([(11.0, 12.25)]) == pytest.approx(0.5)
    assert calibrator.reference_seconds([(12.1, 12.4)]) == pytest.approx(0.0)
    assert calibrator.reference_seconds([(11.0, 13.0), (16.5, 18.0)]) == pytest.approx(2.0)
    calibrator._samples = []  # shorter than one period: wall time
    assert calibrator.reference_seconds([(10.0, 12.0), (13.0, 14.0)]) == pytest.approx(3.0)


def test_calibrator_samples_while_work_runs_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGALRM)
    calibrator = calibrate.Calibrator()
    calibrator.start()
    begin = time.perf_counter()
    while time.perf_counter() - begin < 0.1:
        calibrate.kernel()
    end = time.perf_counter()
    calibrator.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert len(calibrator._samples) >= 10
    # A disturbed box runs below the reference speed, never far above it.
    assert 0.0 < calibrator.reference_seconds([(begin, end)]) < 1.2 * (end - begin)


def test_noise_summary_best_follows_direction():
    values = [5.0, 4.0, 9.0, 4.5]
    assert report.noise_summary(values, "lower")["best"] == 4.0
    assert report.noise_summary(values, "higher")["best"] == 9.0
    assert report.noise_summary([3.0], "lower") == {
        "best": 3.0, "median": 3.0, "q1": 3.0, "q3": 3.0, "n": 1
    }
    runs = [{"e2e": {"work_per_s": v, "peak_rss_mb": v}} for v in values]
    summary = report.host_metrics(runs)
    assert summary["work_per_s"]["value"] == 4.75  # reference clock: the median
    assert summary["peak_rss_mb"]["value"] == 4.0  # wall clock: the best


# ---------------------------------------------------------------- smoke pass


@pytest.fixture(scope="module")
def smoke_runs():
    """All five workloads at 1/10 size, plain + traced, in fresh processes."""
    started = time.perf_counter()
    runs = {
        name: {
            "plain": run_worker(name, 17, "plain", smoke=True),
            "traced": run_worker(name, 17, "traced", smoke=True),
        }
        for name in NAMES
    }
    return runs, time.perf_counter() - started


def test_smoke_pass_is_correct_and_quick(smoke_runs):
    runs, elapsed = smoke_runs
    for name, by_mode in runs.items():
        for run in by_mode.values():
            assert run["gate"]["correct"], (name, run["gate"]["problems"])
            assert run["gate"]["attempted"] > 0
            assert run["e2e"]["failed_fraction"] == 0.0
    assert elapsed < 30.0, f"smoke pass took {elapsed:.1f} s"


@pytest.mark.parametrize("name", NAMES)
def test_tracing_leaves_simulated_results_identical(smoke_runs, name):
    runs, _elapsed = smoke_runs
    _values, disagree = report.exact_metrics([runs[name]["plain"], runs[name]["traced"]])
    assert disagree == []


@pytest.mark.parametrize("name", NAMES)
def test_untraced_share_is_small(smoke_runs, name):
    runs, _elapsed = smoke_runs
    entry = report.aggregate(name, [runs[name]["plain"]], runs[name]["traced"])
    assert entry["per_layer"]["trace.untraced_share"] < 0.05
    shares = sum(entry["per_layer"][f"{layer}.share"] for layer in tracer.LAYERS)
    assert shares == pytest.approx(1.0 - entry["per_layer"]["trace.untraced_share"], abs=1e-6)


def test_keepalive_control_bypasses_the_data_plane(smoke_runs):
    runs, _elapsed = smoke_runs
    layers = runs["keepalive_control"]["traced"]["trace"]["layers"]
    for layer in layers:
        assert not layer.startswith("memory."), layer
        assert layer not in ("core.agent", "core.registry"), layer
    assert max(layers, key=lambda layer: layers[layer]["self_s"]) == "controller"


def test_contract_metrics_exist_on_every_workload():
    by_name = {metric.name: metric for metric in END_TO_END}
    for name, _unit, _better, bound in CONTRACT_END_TO_END:
        assert 0 < bound <= 0.25, name
        assert set(by_name[name].workloads) == set(NAMES), name
    assert pathlib.Path(ROOT / "benchmarks" / "ledger" / "run.py").is_file()
