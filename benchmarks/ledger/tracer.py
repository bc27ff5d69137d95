"""Outside-in layer tracer: spans at the public boundary of each layer.

Nothing under ``src/`` knows about tracing.  :data:`LAYER_TABLE` lists
``(layer, module, public attribute)`` rows; :meth:`Tracer.install` wraps
each one — methods on their class, functions on their module *and* on
every loaded ``repro.*`` module that imported the original by name (so
``from repro.memory.patch import compute_patches`` inside
``core/agent.py`` is covered).  ``Simulator.at``/``every`` are wrapped so
each scheduled callback becomes a span attributed to the layer of the
module that defines the callback; arrivals come in through the wrapped
``ClusterController.submit``.

A span is ``(name, layer, start, end, parent)``.  Spans stay in memory
until the run ends.  A layer's self time is the duration of its spans
minus the part covered by their child spans, so nested calls within and
across layers never double count, and the self times of all spans under
a root sum to the root's duration exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

from repro._util import PAGE_SIZE

#: Layers, named after the repo's modules, in report order.
LAYERS: tuple[str, ...] = (
    "sim",
    "sim.network",
    "controller",
    "core.policy",
    "core.agent",
    "core.registry",
    "memory.synth",
    "memory.fingerprint",
    "memory.patch",
    "sandbox",
    "platform.metrics",
    "storage",
    "templates",
    "faults",
    "workload",
)

#: Module prefix -> layer, longest prefix wins.  Attributes scheduled
#: callbacks (by their defining module) and profiler call counts (by the
#: file a function lives in).  Modules outside any prefix are "other".
MODULE_LAYERS: tuple[tuple[str, str], ...] = (
    ("repro.sim.network", "sim.network"),
    ("repro.sim", "sim"),
    ("repro.controller.baselines", "core.policy"),
    ("repro.controller", "controller"),
    ("repro.core.policy", "core.policy"),
    ("repro.core.optimizer", "core.policy"),
    ("repro.tenancy", "core.policy"),
    ("repro.core.registry", "core.registry"),
    ("repro.core", "core.agent"),  # agent, basemgr, costs
    ("repro.parallel", "core.agent"),
    ("repro.memory.fingerprint", "memory.fingerprint"),
    ("repro.memory.chunks", "memory.fingerprint"),
    ("repro.memory.patch", "memory.patch"),
    ("repro.memory", "memory.synth"),  # image, synth, layout
    ("repro.sandbox", "sandbox"),
    ("repro.platform", "platform.metrics"),
    ("repro.storage", "storage"),
    ("repro.templates", "templates"),
    ("repro.faults", "faults"),
    ("repro.workload", "workload"),
)


def layer_of_module(module: str | None) -> str:
    """Layer owning ``module`` (dotted name), or ``"other"``."""
    if module:
        for prefix, layer in MODULE_LAYERS:
            if module == prefix or module.startswith(prefix + "."):
                return layer
    return "other"


def _rows(layer: str, module: str, *attrs: str) -> list[tuple[str, str, str]]:
    return [(layer, module, attr) for attr in attrs]


#: ``(layer, module, public attribute)``; ``Class.method`` for methods.
#: Only boundaries coarse enough to time are listed: per-page getters
#: and properties stay inside their caller's self time.
LAYER_TABLE: tuple[tuple[str, str, str], ...] = tuple(
    _rows("sim", "repro.sim.engine", "Simulator.run_until", "Simulator.schedule_stream")
    + _rows(
        "sim.network",
        "repro.sim.network",
        "RdmaFabric.read_ms",
        "RdmaFabric.batch_read_ms",
        "RdmaFabric.require_peer",
        "RdmaFabric.fail_peer",
        "RdmaFabric.restore_peer",
    )
    + _rows(
        "controller",
        "repro.controller.controller",
        "ClusterController.submit",
        "ClusterController.spawn_prewarmed",
        "ClusterController.on_node_crash",
        "ClusterController.on_fault_heal",
        "ClusterController.sandbox_census",
        "ClusterController.used_bytes",
        "ClusterController.build_view",
    )
    + _rows(
        "core.policy",
        "repro.core.policy",
        "MedesPolicy.keep_alive_ms",
        "MedesPolicy.idle_period_ms",
        "MedesPolicy.keep_dedup_ms",
        "MedesPolicy.on_arrival",
        "MedesPolicy.prewarm_delay_ms",
        "MedesPolicy.decide_idle",
        "FunctionStats.record_dedup_start",
        "FunctionStats.record_retained_fraction",
    )
    + _rows("core.policy", "repro.controller.baselines", "FixedKeepAlivePolicy.decide_idle")
    + _rows("core.policy", "repro.core.optimizer", "solve")
    + _rows(
        "core.agent",
        "repro.core.agent",
        "DedupAgent.dedup",
        "DedupAgent.restore",
        "DedupAgent.templatize",
        "DedupAgent.fork_restore",
    )
    + _rows(
        "core.agent",
        "repro.core.basemgr",
        "BaseSandboxManager.needs_new_base",
        "BaseSandboxManager.add_base",
        "BaseSandboxManager.note_dedup",
        "BaseSandboxManager.remove_base",
        "BaseSandboxManager.retire_unreferenced",
    )
    + [
        ("core.registry", "repro.core.registry", f"{cls}.{method}")
        for cls in ("FingerprintRegistry", "ShardedFingerprintRegistry")
        for method in (
            "register_page",
            "register_pages",
            "deregister_checkpoint",
            "register_page_location",
            "page_replicas",
            "replicas_for",
            "lookup",
            "lookup_batch",
            "choose_base_page",
            "choose_base_pages",
            "memory_bytes",
        )
    ]
    + _rows(
        "memory.synth",
        "repro.workload.functionbench",
        "FunctionProfile.synthesize",
        "FunctionProfile.layout",
    )
    + _rows("memory.synth", "repro.memory.image", "synthesize_image", "MemoryImage.checksum")
    + _rows(
        "memory.synth",
        "repro.memory.synth",
        "build_region",
        "base_region_content",
        "template_region_content",
    )
    + _rows("memory.synth", "repro.memory.layout", "ImageLayout.place", "standard_layout")
    + _rows(
        "memory.fingerprint",
        "repro.memory.fingerprint",
        "page_fingerprint",
        "image_fingerprints",
        "nonzero_page_mask",
        "batch_page_fingerprints",
        "batch_fingerprint_arrays",
        "fingerprints_from_arrays",
    )
    + _rows(
        "memory.patch",
        "repro.memory.patch",
        "compute_patches",
        "compute_patch",
        "build_anchor_index",
        "apply_patch",
        "apply_patch_into",
    )
    + _rows(
        "sandbox",
        "repro.sandbox.node",
        "Node.admit",
        "Node.remove",
        "Node.pin_checkpoint",
        "Node.unpin_checkpoint",
        "Node.pin_template",
        "Node.unpin_template",
        "Node.recharge_sandbox",
        "Node.recharge_checkpoint",
        "Node.eviction_candidates",
        "rank_victims",
    )
    + _rows(
        "sandbox",
        "repro.sandbox.checkpoint",
        "CheckpointStore.add",
        "CheckpointStore.remove",
        "CheckpointStore.for_function",
    )
    + _rows(
        "platform.metrics",
        "repro.platform.metrics",
        "RunMetrics.on_arrival",
        "RunMetrics.on_completion",
        "RunMetrics.start_counts",
    )
    + _rows(
        "storage",
        "repro.storage.store",
        "TieredCheckpointStore.demote_checkpoint",
        "TieredCheckpointStore.promote_checkpoint",
        "TieredCheckpointStore.fetch_cost_ms",
        "TieredCheckpointStore.remove",
        "TieredCheckpointStore.demote_table",
        "TieredCheckpointStore.promote_table",
        "TieredCheckpointStore.release_table",
        "TieredCheckpointStore.tier_used_bytes",
    )
    + _rows(
        "storage",
        "repro.storage.prefetch",
        "WorkingSetRecorder.lookup",
        "WorkingSetRecorder.record",
        "WorkingSetRecorder.note_prefetch",
    )
    + _rows(
        "templates",
        "repro.templates.catalog",
        "TemplateCatalog.shareable_regions",
        "TemplateCatalog.ensure_segments",
        "TemplateCatalog.retire",
        "TemplateCatalog.acquire",
        "TemplateCatalog.release",
        "TemplateCatalog.add_sharers",
        "TemplateCatalog.drop_sharers",
        "TemplateCatalog.missing_on",
        "TemplateCatalog.promote",
        "TemplateCatalog.evictable_replicas",
        "TemplateCatalog.drop_replica",
        "TemplateCatalog.drop_replicas",
        "TemplateCatalog.replica_bytes",
    )
    + _rows("templates", "repro.templates.delta", "build_delta_table", "reconstruct_image")
    + _rows("faults", "repro.faults.injector", "FaultInjector.arm")
    + _rows("faults", "repro.faults.retry", "TransientFaults.plan")
    + _rows(
        "workload",
        "repro.workload.azure",
        "AzureTraceGenerator.generate",
        "ClusterTraceGenerator.generate",
        "sample_arrivals",
    )
    + _rows(
        "workload",
        "repro.workload.trace",
        "Trace.from_arrivals",
        "Trace.from_arrays",
        "Trace.with_tenants",
    )
)


# ------------------------------------------------------------ work counts
#
# Counts taken at the same boundaries as the spans, from arguments and
# return values: ``hook(counters, args, kwargs, result)``.


def _pages(nbytes: int) -> float:
    return nbytes / PAGE_SIZE


def _count_encode_batch(counters, args, kwargs, result) -> None:
    counters["memory.patch.pages_encoded"] += _pages(sum(len(t) for t in args[0]))
    counters["memory.patch.patch_bytes"] += sum(p.size_bytes for p in result)


def _count_encode_one(counters, args, kwargs, result) -> None:
    counters["memory.patch.pages_encoded"] += _pages(len(args[0]))
    counters["memory.patch.patch_bytes"] += result.size_bytes


def _count_apply(counters, args, kwargs, result) -> None:
    counters["memory.patch.pages_applied"] += _pages(args[0].target_len)


def _count_image(counters, args, kwargs, result) -> None:
    counters["memory.synth.images"] += 1
    counters["memory.synth.bytes"] += result.nbytes


def _count_fingerprints(counters, args, kwargs, result) -> None:
    counters["memory.fingerprint.pages"] += len(result)


def _count_dedup(counters, args, kwargs, result) -> None:
    stats, timings = result.table.stats, result.timings
    counters["core.agent.pages"] += stats.total_pages
    counters["core.agent.pages_parked"] += stats.total_pages
    counters["core.agent.pages_patched"] += stats.patched_pages
    counters["core.agent.dedup_timed"] += 1
    for stage in DEDUP_STAGES:
        counters[f"core.agent.sim_dedup_ms.{stage}"] += getattr(timings, f"{stage}_ms")


def _count_restore(counters, args, kwargs, result) -> None:
    timings = result.timings
    counters["core.agent.pages"] += len(args[1].entries)
    counters["core.agent.restore_timed"] += 1
    for stage in ("base_read", "compute", "restore", "retry"):
        counters[f"core.agent.sim_restore_ms.{stage}"] += getattr(timings, f"{stage}_ms")


def _count_templatize(counters, args, kwargs, result) -> None:
    counters["core.agent.pages"] += result.table.num_pages
    counters["core.agent.pages_parked"] += result.table.num_pages
    counters["core.agent.pages_patched"] += result.table.patched_pages


def _count_fork(counters, args, kwargs, result) -> None:
    counters["core.agent.pages"] += args[1].num_pages


#: Simulated Fig-8 stages of a dedup op (``DedupTimings.<stage>_ms``).
DEDUP_STAGES = ("checkpoint", "fingerprint", "lookup", "base_read", "patch")

COUNT_HOOKS: dict[tuple[str, str], Callable] = {
    ("repro.memory.patch", "compute_patches"): _count_encode_batch,
    ("repro.memory.patch", "compute_patch"): _count_encode_one,
    ("repro.memory.patch", "apply_patch"): _count_apply,
    ("repro.memory.patch", "apply_patch_into"): _count_apply,
    ("repro.memory.image", "synthesize_image"): _count_image,
    ("repro.memory.fingerprint", "batch_page_fingerprints"): _count_fingerprints,
    ("repro.memory.fingerprint", "image_fingerprints"): _count_fingerprints,
    ("repro.core.agent", "DedupAgent.dedup"): _count_dedup,
    ("repro.core.agent", "DedupAgent.restore"): _count_restore,
    ("repro.core.agent", "DedupAgent.templatize"): _count_templatize,
    ("repro.core.agent", "DedupAgent.fork_restore"): _count_fork,
}


# ----------------------------------------------------------------- tracer


def resolve_row(module: str, attr: str):
    """``(owner, name, raw attribute)`` of one table row.

    ``raw`` is what sits in the owner's ``__dict__`` (a function, or a
    ``classmethod``/``staticmethod`` wrapper).  Raises ``LookupError``
    when the row no longer names a public callable defined there — a
    rename in ``src/`` must fail loudly, not silently drop a layer.
    """
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{module}.{attr}: no attribute {part!r}")
    if name.startswith("_"):
        raise LookupError(f"{module}.{attr}: not a public attribute")
    raw = vars(owner).get(name)
    target = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
    if not callable(target) or isinstance(target, type):
        raise LookupError(f"{module}.{attr}: not a function defined on {owner!r}")
    return owner, name, raw


class Tracer:
    """Records spans for the wrapped callables while installed."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[tuple | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._callback_layers: dict[str | None, str] = {}

    # ------------------------------------------------------------ wrapping

    def wrap(
        self,
        layer: str,
        name: str,
        fn: Callable,
        hook: Callable | None = None,
        *,
        copy_metadata: bool = True,
    ):
        """``fn`` as a span of ``layer``; ``hook`` counts work at the boundary."""
        spans, stack, clock, counters = self.spans, self._stack, self.clock, self.counters

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, layer, start, end, parent)
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return functools.wraps(fn)(traced) if copy_metadata else traced

    @contextlib.contextmanager
    def root(self, name: str = "timed"):
        """The span every share is measured against (layer ``root``);
        yields its index in ``spans`` for :func:`summarize`."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = self.clock()
        try:
            yield index
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[index] = (name, "root", start, end, parent)

    def _wrap_callback(self, callback: Callable) -> Callable:
        """A scheduled callback as a span of its defining module's layer."""
        module = getattr(callback, "__module__", None)
        layer = self._callback_layers.get(module)
        if layer is None:
            layer = self._callback_layers[module] = layer_of_module(module)
        name = getattr(callback, "__qualname__", None) or type(callback).__name__
        # One closure per scheduled event: skip functools.wraps' copying.
        return self.wrap(layer, name, callback, copy_metadata=False)

    # -------------------------------------------------------- installation

    def _set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self) -> None:
        """Wrap every row of the layer table and the simulator's scheduling."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        rebinds: dict[int, tuple[object, object]] = {}
        for layer, module, attr in LAYER_TABLE:
            owner, name, raw = resolve_row(module, attr)
            hook = COUNT_HOOKS.get((module, attr))
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self.wrap(layer, attr, raw.__func__, hook))
            else:
                wrapped = self.wrap(layer, attr, raw, hook)
                if owner.__name__ == module:  # a module-level function
                    rebinds[id(raw)] = (raw, wrapped)
            self._set(owner, name, wrapped)
        # Names bound by ``from module import function`` elsewhere in repro.
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "repro" or module_name.startswith("repro.")
            ):
                continue
            for name, value in list(vars(module).items()):
                hit = rebinds.get(id(value))
                if hit is not None and value is hit[0]:
                    self._set(module, name, hit[1])
        self._install_scheduler()

    def _install_scheduler(self) -> None:
        from repro.sim.engine import Simulator

        original_at = Simulator.at
        original_every = Simulator.every
        wrap_callback = self._wrap_callback

        @functools.wraps(original_at)
        def at(sim, time, callback):
            return original_at(sim, time, wrap_callback(callback))

        @functools.wraps(original_every)
        def every(sim, interval, callback):
            return original_every(sim, interval, wrap_callback(callback))

        self._set(Simulator, "at", at)
        self._set(Simulator, "every", every)

    def uninstall(self) -> None:
        """Restore every rebound name (reverse order)."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    @property
    def installed(self) -> bool:
        return bool(self._undo)


# --------------------------------------------------------------- analysis


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0


def self_times(spans: list[tuple]) -> list[float]:
    """Per-span self time: duration minus time covered by child spans."""
    own = [span[3] - span[2] for span in spans]
    for span in spans:
        parent = span[4]
        if parent >= 0:
            own[parent] -= span[3] - span[2]
    return own


def summarize(spans: list[tuple], root_index: int) -> tuple[float, float, dict[str, LayerTotals], dict[str, float]]:
    """Attribute the time under span ``root_index`` to layers.

    Returns ``(root wall, root self time, per-layer totals, per-name self
    time)``.  The root's self time is the *untraced* part: wall time no
    wrapped callable covers.
    """
    own = self_times(spans)
    inside = [False] * len(spans)
    inside[root_index] = True
    layers: dict[str, LayerTotals] = defaultdict(LayerTotals)
    names: dict[str, float] = defaultdict(float)
    # Spans are appended in start order, so a parent precedes its children.
    for index in range(root_index + 1, len(spans)):
        name, layer, _start, _end, parent = spans[index]
        if parent >= 0 and inside[parent]:
            inside[index] = True
            totals = layers[layer]
            totals.calls += 1
            totals.self_s += own[index]
            names[name] += own[index]
    root = spans[root_index]
    return root[3] - root[2], own[root_index], layers, names


def write_jsonl(spans: list[tuple], path) -> None:
    """One span per line, microseconds relative to the first span."""
    origin = spans[0][2] if spans else 0.0
    with open(path, "w", encoding="utf-8") as out:
        for index, (name, layer, start, end, parent) in enumerate(spans):
            out.write(
                json.dumps(
                    {
                        "id": index,
                        "parent": parent,
                        "name": name,
                        "layer": layer,
                        "start_us": round((start - origin) * 1e6, 3),
                        "end_us": round((end - origin) * 1e6, 3),
                    }
                )
                + "\n"
            )


def write_chrome_trace(spans: list[tuple], path) -> None:
    """Chrome / Perfetto ``traceEvents`` JSON (complete events)."""
    origin = spans[0][2] if spans else 0.0
    with open(path, "w", encoding="utf-8") as out:
        out.write('{"displayTimeUnit": "ms", "traceEvents": [\n')
        for index, (name, layer, start, end, _parent) in enumerate(spans):
            event = {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
            }
            out.write(("," if index else "") + json.dumps(event) + "\n")
        out.write("]}\n")
