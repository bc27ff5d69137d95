"""The cluster controller: scheduling, lifecycle, and dedup orchestration.

One :class:`ClusterController` drives a whole platform run on the event
simulator.  It implements the paper's Section-3 workflows:

* **dispatch** — an incoming request goes to an idle warm sandbox of its
  function if one exists, else to a dedup sandbox (restore op), else a
  new sandbox is spawned cold on the least-used node (evicting idle
  sandboxes under memory pressure, queueing if nothing can fit);
* **lifecycle** — after execution a sandbox turns warm; at idle-period
  expiry the policy is consulted (keep warm / deduplicate / demarcate as
  base); keep-alive and keep-dedup expiries purge sandboxes;
* **dedup plumbing** — base-checkpoint creation and registration,
  refcount acquire/release around dedup tables, and base retirement.

The same controller runs the baselines: their policies simply never ask
for deduplication (``idle_period_ms`` is None) and may request
pre-warmed spawns (the adaptive policy).

Scheduling state is **indexed**: candidate sets, population counters
and the placement order are maintained incrementally (see
:mod:`repro.controller.index`), so per-request control-plane work is
independent of the sandbox population.  The scan paths this replaced
were last proven bit-identical at ``48cbd51``, where
``tests/golden/control_plane_runs.json`` was frozen from both.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

from repro._util import SeededLognormal, hash_bytes, stable_seed
from repro.controller.index import NodeUsageIndex, SandboxIndex
from repro.core.agent import DedupAgent, PageKind
from repro.core.basemgr import BaseSandboxManager
from repro.core.policy import ClusterView, Decision, FunctionStats, LifecyclePolicy
from repro.core.registry import FingerprintRegistry, PageRef
from repro.faults.health import RegistryUnavailable
from repro.faults.retry import RetryExhausted
from repro.memory.fingerprint import batch_page_fingerprints
from repro.platform.config import ClusterConfig
from repro.platform.metrics import (
    BaseOpRecord,
    DedupOpRecord,
    RequestRecord,
    RestoreOpRecord,
    RunMetrics,
    StartType,
    TemplateForkRecord,
    TemplateOpRecord,
    TierOpRecord,
)
from repro.sandbox.checkpoint import BaseCheckpoint, CheckpointStore
from repro.sandbox.node import EvictionOrder, Node, rank_victims
from repro.sandbox.sandbox import Sandbox
from repro.sandbox.state import SandboxState
from repro.sim.engine import Simulator, Timer
from repro.sim.network import PeerUnavailable
from repro.storage.store import TieredCheckpointStore
from repro.storage.tiers import StorageTier, TierAccount
from repro.templates.catalog import TemplateCatalog, TemplatePoolFull
from repro.templates.delta import TemplateDeltaTable
from repro.workload.functionbench import FunctionBenchSuite
from repro.workload.trace import Request

if TYPE_CHECKING:
    from repro.core.agent import DedupPageTable
    from repro.faults.health import FaultRuntime


#: A queued request older than this may evict unpinned base sandboxes.
STARVATION_MS = 5_000.0

#: Sentinel ``busy_request_id`` marking a sandbox mid-base-demarcation
#: (checkpoint + registry registration); real request ids are >= 0.
_BASE_OP_BUSY = -1


@dataclass
class _SandboxTimers:
    idle: Timer | None = None
    keep_alive: Timer | None = None
    keep_dedup: Timer | None = None

    def cancel_all(self) -> None:
        for timer in (self.idle, self.keep_alive, self.keep_dedup):
            if timer is not None:
                timer.cancel()
        self.idle = self.keep_alive = self.keep_dedup = None


class ClusterController:
    """Controller + node daemons for one platform run."""

    def __init__(
        self,
        *,
        sim: Simulator,
        config: ClusterConfig,
        suite: FunctionBenchSuite,
        policy: LifecyclePolicy,
        metrics: RunMetrics,
        nodes: list[Node],
        agents: dict[int, DedupAgent],
        registry: FingerprintRegistry,
        store: CheckpointStore,
        basemgr: BaseSandboxManager,
        stats: dict[str, FunctionStats] | None = None,
        faults: "FaultRuntime | None" = None,
        templates: TemplateCatalog | None = None,
    ):
        self.sim = sim
        self.config = config
        self.suite = suite
        self.policy = policy
        self.metrics = metrics
        self.nodes = nodes
        self.agents = agents
        self.registry = registry
        self.store = store
        self.basemgr = basemgr
        self.stats = stats or {}
        self._faults = faults
        self.templates = templates
        """Cluster-wide template catalog (DESIGN.md §14; None unless
        ``template_sharing`` is on — every template code path below is
        gated on it, so the off configuration is bit-identical)."""
        #: request_id -> (completion timer, sandbox, request, record) of
        #: every request with a scheduled future event (startup or exec);
        #: a node crash cancels and re-dispatches the affected entries.
        self._inflight: dict[int, tuple[Timer, Sandbox, Request, RequestRecord]] = {}
        #: Node mid-crash-reconciliation (suppresses demote-on-purge of
        #: checkpoints whose device just died with the node).
        self._crashed_node: int | None = None
        self._by_function: dict[str, dict[int, Sandbox]] = {}
        self._timers: dict[int, _SandboxTimers] = {}
        self._queue: list[tuple[Request, RequestRecord]] = []
        self._pending_dedups: dict[int, tuple[Timer, object]] = {}
        self._instance_counter = 0
        self._draining = False
        self.tiering = config.checkpoint_tiering
        self.tiered_store: TieredCheckpointStore | None = (
            store if isinstance(store, TieredCheckpointStore) else None
        )
        if self.tiering and self.tiered_store is None:
            raise ValueError("checkpoint_tiering requires a TieredCheckpointStore")
        self._cold: dict[int, Sandbox] = {}
        """Dedup sandboxes whose table is parked on SSD, in demote order
        (the SSD-pressure LRU; tiering only)."""
        self._spilled: dict[int, Sandbox] = {}
        """Template sandboxes whose delta is parked on local SSD
        ("template-cold"), in spill order — the SSD-pressure LRU
        (template sharing only)."""
        self._delta_ssd: dict[int, TierAccount] = {}
        """Per-node SSD capacity accounts for spilled template deltas
        (template sharing only; built lazily on first spill)."""
        self._index = SandboxIndex()
        self._usage = NodeUsageIndex(nodes)
        for node in nodes:
            node.on_used_changed = self._usage.update
        # Coalesced starvation machinery: the pending desperation
        # deadlines of queued requests (monotone, hence a deque) with a
        # single armed timer for the earliest — instead of one heap
        # event per queued request.
        self._starvation_deadlines: deque[float] = deque()
        self._starvation_timer: Timer | None = None
        # Tenancy (DESIGN.md §15): tenant label and dedup domain per
        # function, learned from each function's first request.  A
        # function belongs to exactly one tenant — sandboxes are
        # per-function, so a function served for two tenants would
        # itself merge their memory; submit() enforces the invariant.
        self._tenant_of: dict[str, str] = {}
        self._function_domain: dict[str, str] = {}
        self._exec_draws = SeededLognormal("exec-time")

    def _domain_for(self, function: str, tenant: str) -> str:
        """Learn/validate the function's tenant; return its dedup domain."""
        known = self._tenant_of.setdefault(function, tenant)
        if known != tenant:
            raise ValueError(
                f"function {function!r} belongs to tenant {known!r}; "
                f"got a request labelled {tenant!r}"
            )
        try:
            return self._function_domain[function]
        except KeyError:
            domain = self._function_domain[function] = (
                self.config.dedup_domains.domain_of(tenant)
            )
            return domain

    # ------------------------------------------------------------ helpers

    def _function_sandboxes(self, function: str) -> dict[int, Sandbox]:
        return self._by_function.setdefault(function, {})

    def _timers_for(self, sandbox: Sandbox) -> _SandboxTimers:
        timers = self._timers.get(sandbox.sandbox_id)
        if timers is None:
            timers = self._timers[sandbox.sandbox_id] = _SandboxTimers()
        return timers

    def _next_instance_seed(self) -> int:
        self._instance_counter += 1
        return stable_seed("instance", self.config.seed, self._instance_counter)

    def _ensure_image(self, sandbox: Sandbox) -> None:
        """Lazily synthesize the (post-execution) memory image.

        Images are only materialized when content actually matters — a
        dedup op or base demarcation — which keeps long runs cheap.
        """
        if sandbox.image is None:
            sandbox.image = sandbox.profile.synthesize(
                sandbox.instance_seed,
                content_scale=self.config.content_scale,
                aslr=self.config.aslr,
                executed=True,
            )

    def prime_exec_times(self, requests: Sequence[Request]) -> None:
        """Seed the execution-time draws of upcoming ``requests`` in one
        batch (the platform passes each chunk of arrivals it schedules)."""
        self._exec_draws.prime([(r.request_id, r.function) for r in requests])

    def _exec_ms(self, request: Request) -> float:
        """Execution time for a request: identical across platforms.

        Seeded only from the request identity (not the platform), so
        Medes and every baseline replay the same work per request and
        Figure-7a's paired comparison is apples to apples: the draw is
        ``rng_for("exec-time", request_id, function).lognormal(...)``.
        """
        profile = self.suite.get(request.function)
        sigma = profile.exec_cv
        sample = self._exec_draws.draw(
            (request.request_id, request.function), -0.5 * sigma * sigma, sigma
        )
        return profile.exec_time_ms * sample

    def used_bytes(self) -> int:
        return sum(node.used_bytes() for node in self.nodes)

    def live_counts(self) -> tuple[dict[str, int], dict[str, int]]:
        """Per-function (serving-capable count, dedup count)."""
        return dict(self._index.live_count), dict(self._index.dedup_count)

    def build_view(self) -> ClusterView:
        live, dedup = self.live_counts()
        now = self.sim.now
        rates = {fn: st.mean_rate(now) for fn, st in self.stats.items()}
        total_rate = sum(rates.values())
        shares = (
            {fn: rate / total_rate for fn, rate in rates.items()} if total_rate > 0 else {}
        )
        return ClusterView(
            now=now,
            live_counts=live,
            dedup_counts=dedup,
            used_bytes=self.used_bytes(),
            capacity_bytes=self.config.cluster_capacity_bytes,
            rate_shares=shares,
            registry_available=(
                self._faults is None or self._faults.health.registry_available()
            ),
            templates_available=self.templates is not None,
        )

    @property
    def cold_parked_tables(self) -> int:
        """Dedup sandboxes whose patch table is parked on SSD (tiering).

        Public read for observability (the platform's tier sampler);
        keeps callers off the controller's private LRU structures.
        """
        return len(self._cold)

    def sandbox_census(self) -> tuple[int, int, int]:
        """(warm-ish, dedup, total) sandbox counts for memory sampling."""
        index = self._index
        return index.warm_census, index.dedup_census, index.total

    # ----------------------------------------------------------- dispatch

    def submit(self, request: Request) -> None:
        """Entry point: a client request arrives at the controller."""
        now = self.sim.now
        record = self.metrics.on_arrival(request.request_id, request.function, now)
        self._domain_for(request.function, request.tenant)
        self.policy.on_arrival(request.function, now)
        if request.function in self.stats:
            self.stats[request.function].record_arrival(now)
        if not self._try_dispatch(request, record):
            self._enqueue(request, record)

    def _enqueue(self, request: Request, record: RequestRecord) -> None:
        """Queue a request nothing could serve and record its
        desperation deadline, giving the starvation path (last-resort
        base eviction) a chance even if no other event frees memory
        meanwhile.

        One timer is armed for the earliest pending deadline; later
        deadlines wait in the deque instead of each occupying an event
        on the simulator heap (arrivals are monotone, so appends keep
        the deque sorted).
        """
        self._queue.append((request, record))
        self._starvation_deadlines.append(self.sim.now + STARVATION_MS + 1.0)
        if self._starvation_timer is None or not self._starvation_timer.pending:
            self._starvation_timer = self.sim.at(
                self._starvation_deadlines[0], self._fire_starvation_timer
            )

    def _fire_starvation_timer(self) -> None:
        """Drain once per due deadline, then re-arm for the next one."""
        self._starvation_timer = None
        while self._starvation_deadlines and self._starvation_deadlines[0] <= self.sim.now:
            self._starvation_deadlines.popleft()
            self._drain_queue()
        if self._starvation_deadlines:
            self._starvation_timer = self.sim.at(
                self._starvation_deadlines[0], self._fire_starvation_timer
            )

    def _dispatch_candidates(
        self, function: str
    ) -> tuple[list[Sandbox], list[Sandbox], list[Sandbox]]:
        """(idle-warm, restorable-dedup, abortable-deduping) candidates
        of ``function``, read from the maintained candidate sets;
        callers apply the orderings."""
        warm = list(self._index.idle_warm.get(function, {}).values())
        restorable = list(self._index.restorable.get(function, {}).values())
        abortable = (
            list(self._index.abortable.get(function, {}).values())
            if self.config.enable_dedup_abort
            else []
        )
        return warm, restorable, abortable

    def _try_dispatch(
        self, request: Request, record: RequestRecord, *, desperate: bool = False
    ) -> bool:
        function = request.function
        warm_candidates, dedup_candidates, deduping = self._dispatch_candidates(function)

        if warm_candidates:
            sandbox = max(warm_candidates, key=lambda s: (s.last_used_at, s.sandbox_id))
            self._start_warm(sandbox, request, record)
            return True

        dedup_candidates.sort(key=lambda s: (s.last_used_at, s.sandbox_id), reverse=True)
        if self.templates is not None:
            # Template forks are the cheaper restore (no base fetches),
            # so they outrank dedup restores in the start ladder: warm >
            # template > dedup > cold.  Stable partition, so within each
            # flavour the MRU order above is preserved.
            dedup_candidates = [
                s
                for s in dedup_candidates
                if isinstance(s.dedup_table, TemplateDeltaTable)
            ] + [
                s
                for s in dedup_candidates
                if not isinstance(s.dedup_table, TemplateDeltaTable)
            ]
        failed_dedup = False
        for sandbox in dedup_candidates:
            if isinstance(sandbox.dedup_table, TemplateDeltaTable):
                started = self._start_template(sandbox, request, record)
            else:
                started = self._start_dedup(sandbox, request, record)
            if started:
                return True
            failed_dedup = True
            # That candidate's restore failed (retry storm, partition,
            # or unreachable bases past rehoming); try the next intact
            # dedup sandbox before the remaining options.

        # A sandbox mid-dedup is cheaper to reclaim than a cold start:
        # abort the (background) dedup op and serve the request warm.
        if deduping:
            sandbox = max(deduping, key=lambda s: (s.last_used_at, s.sandbox_id))
            self._abort_dedup(sandbox)
            self._start_warm(sandbox, request, record)
            return True

        started = self._start_cold(request, record, desperate=desperate)
        if started and failed_dedup:
            # The restore fallback chain bottomed out at a cold start.
            self.metrics.restore_cold_fallbacks += 1
        return started

    def _start_warm(self, sandbox: Sandbox, request: Request, record: RequestRecord) -> None:
        now = self.sim.now
        self._timers_for(sandbox).cancel_all()
        sandbox.busy_request_id = request.request_id
        sandbox.transition(SandboxState.RUNNING, now)
        record.start_type = StartType.WARM
        record.queued_ms = now - record.arrival_ms
        record.startup_ms = self.config.costs.warm_start_ms + record.retry_penalty_ms
        self._run_request(sandbox, request, record)

    def _start_dedup(self, sandbox: Sandbox, request: Request, record: RequestRecord) -> bool:
        """Serve ``request`` by restoring a dedup sandbox.

        Returns False when the restore cannot proceed, after walking the
        fallback chain (DESIGN.md §11): transient fetch failures already
        retried inside the agent; a dead base peer triggers one rehoming
        attempt onto surviving replicas of the same pages
        (``max_refs_per_digest`` gives the candidates); only then is the
        broken dedup sandbox purged (its state cannot be reconstructed)
        and the caller falls through to another start path (Section
        4.1.3's base-unavailability concern).
        """
        assert sandbox.dedup_table is not None
        agent = self.agents[sandbox.node_id]
        promote_ms = 0.0
        if self.tiering:
            # Read a parked ("dedup-cold") table back from SSD and bring
            # hot demoted checkpoints home before the restore proper.
            promote_ms += self._promote_table(sandbox)
            promote_ms += self._promote_checkpoints(sandbox.dedup_table)
        rehome_attempted = False
        while True:
            try:
                outcome = agent.restore(
                    sandbox.dedup_table, verify=self.config.verify_restores
                )
            except RetryExhausted as exc:
                # Transient RPC storm: the attempts' time is real latency
                # the request pays on whatever start path succeeds next.
                # The sandbox itself is intact — keep it restorable.
                record.retry_penalty_ms += exc.charged_ms
                return False
            except PeerUnavailable as exc:
                if self._faults is not None and self._faults.health.node_up(exc.peer):
                    # Link partition, not a dead node: the base state
                    # still exists, so keep the sandbox for post-heal.
                    return False
                dead = self._unreachable_refs(sandbox.dedup_table)
                if (
                    not rehome_attempted
                    and dead
                    and self._try_rehome(sandbox, dead)
                ):
                    rehome_attempted = True
                    continue
                self._purge(sandbox, reason="base-unavailable")
                return False
            else:
                break
        self._timers_for(sandbox).cancel_all()
        sandbox.busy_request_id = request.request_id
        sandbox.transition(SandboxState.RESTORING, self.sim.now)
        timings = outcome.timings
        startup_ms = timings.total_ms + promote_ms + record.retry_penalty_ms
        self.metrics.restore_ops.append(
            RestoreOpRecord(
                function=sandbox.function,
                sandbox_id=sandbox.sandbox_id,
                started_ms=self.sim.now,
                base_read_ms=timings.base_read_ms,
                compute_ms=timings.compute_ms,
                restore_ms=timings.restore_ms,
                prefetched=timings.prefetched,
                miss_read_ms=timings.miss_read_ms,
                prefetch_hit_pages=timings.prefetch_hit_pages,
                prefetch_miss_pages=timings.prefetch_miss_pages,
                promote_ms=promote_ms,
                overlap_workers=timings.overlap.workers if timings.overlap else 0,
                overlap_batches=timings.overlap.batches if timings.overlap else 0,
                retry_ms=timings.retry_ms,
                retries=timings.retries,
            )
        )
        if sandbox.function in self.stats:
            self.stats[sandbox.function].record_dedup_start(startup_ms)
        record.start_type = StartType.DEDUP
        record.queued_ms = self.sim.now - record.arrival_ms
        record.startup_ms = startup_ms

        def finish_restore() -> None:
            table = sandbox.dedup_table
            assert table is not None
            sandbox.image = outcome.image
            # Transition out of RESTORING while the table is still set:
            # accounting observers recompute memory_bytes() on every
            # transition, and a table-less RESTORING sandbox has no
            # defined footprint.
            sandbox.transition(SandboxState.RUNNING, self.sim.now)
            sandbox.dedup_table = None
            self._release_base_refs(table)
            self.basemgr.note_dedup(sandbox.function, -1)
            self._run_request(sandbox, request, record, already_started=True)

        timer = self.sim.after(startup_ms, finish_restore)
        self._inflight[request.request_id] = (timer, sandbox, request, record)
        return True

    def _start_template(
        self, sandbox: Sandbox, request: Request, record: RequestRecord
    ) -> bool:
        """Serve ``request`` by forking a template-parked sandbox.

        The fork promotes any segment the node lacks (charged pool read,
        pinned to the node's DRAM as a fork cache) and applies the
        per-function delta over the replicas.  Returns False when the
        promote's transient-RPC plan is exhausted — the sandbox stays
        parked and intact, and the caller walks down the ladder
        (another candidate, then dedup, then cold).
        """
        table = sandbox.dedup_table
        assert isinstance(table, TemplateDeltaTable)
        assert self.templates is not None
        agent = self.agents[sandbox.node_id]
        try:
            outcome = agent.fork_restore(
                table, now=self.sim.now, verify=self.config.verify_restores
            )
        except RetryExhausted as exc:
            record.retry_penalty_ms += exc.charged_ms
            self.metrics.template_fork_fallbacks += 1
            return False
        # A spilled ("template-cold") delta reads back from the pool
        # first — charged into the fork's promote leg, after the fork is
        # known to proceed so a failed attempt leaves the spill intact.
        unspill_ms = self._unspill_delta(sandbox)
        node = self.nodes[sandbox.node_id]
        for segment in outcome.promoted:
            node.pin_template(segment.segment_id, segment.full_bytes)
        self.metrics.template_promotions += len(outcome.promoted)
        self.metrics.template_promote_bytes += outcome.promoted_bytes
        self._timers_for(sandbox).cancel_all()
        sandbox.busy_request_id = request.request_id
        sandbox.transition(SandboxState.RESTORING, self.sim.now)
        timings = outcome.timings
        startup_ms = timings.total_ms + unspill_ms + record.retry_penalty_ms
        self.metrics.template_forks.append(
            TemplateForkRecord(
                function=sandbox.function,
                sandbox_id=sandbox.sandbox_id,
                started_ms=self.sim.now,
                promote_ms=timings.promote_ms + unspill_ms,
                apply_ms=timings.apply_ms,
                restore_ms=timings.restore_ms,
                promoted_bytes=outcome.promoted_bytes,
                patched_pages=table.patched_pages,
                unique_pages=len(table.unique_pages),
                zero_pages=len(table.zero_pages),
                retry_ms=timings.retry_ms,
                retries=timings.retries,
                cow_shared_bytes=table.cow_shareable_full_bytes,
            )
        )
        if sandbox.function in self.stats:
            # Template forks feed the same startup estimator as dedup
            # restores: both are the policy's "parked restart" latency.
            self.stats[sandbox.function].record_dedup_start(startup_ms)
        record.start_type = StartType.TEMPLATE
        record.queued_ms = self.sim.now - record.arrival_ms
        record.startup_ms = startup_ms

        def finish_fork() -> None:
            table = sandbox.dedup_table
            assert isinstance(table, TemplateDeltaTable)
            assert self.templates is not None
            sandbox.image = outcome.image
            cow = table.cow_shareable_full_bytes
            if cow > 0:
                # The fork maps clean template pages copy-on-write from
                # the node's replicas: the sandbox is charged only for
                # the pages it owns, and the shared replicas stay pinned
                # until it parks or dies (see _end_template_sharing).
                sandbox.template_cow_bytes = cow
                sandbox.template_share_keys = table.segment_keys
                self.templates.add_sharers(table.segment_keys, sandbox.node_id)
            # As in finish_restore: transition while the table is still
            # set so accounting observers see a defined footprint.
            sandbox.transition(SandboxState.RUNNING, self.sim.now)
            sandbox.dedup_table = None
            self.templates.release(table.segment_keys)
            self._run_request(sandbox, request, record, already_started=True)

        timer = self.sim.after(startup_ms, finish_fork)
        self._inflight[request.request_id] = (timer, sandbox, request, record)
        return True

    def _start_cold(
        self, request: Request, record: RequestRecord, *, desperate: bool = False
    ) -> bool:
        profile = self.suite.get(request.function)
        node = self._place(profile.memory_bytes, allow_bases=desperate)
        if node is None:
            return False
        sandbox = self._spawn(profile, node)
        sandbox.busy_request_id = request.request_id
        record.start_type = StartType.COLD
        record.queued_ms = self.sim.now - record.arrival_ms
        cold_ms = (
            self.config.cold_start_ms(profile)
            + self.config.costs.spawn_placement_ms
            + record.retry_penalty_ms
        )
        record.startup_ms = cold_ms

        def finish_spawn() -> None:
            if sandbox.state is not SandboxState.SPAWNING:
                return  # crash-purged mid-spawn; the request re-dispatched
            sandbox.transition(SandboxState.RUNNING, self.sim.now)
            self._run_request(sandbox, request, record, already_started=True)

        timer = self.sim.after(cold_ms, finish_spawn)
        self._inflight[request.request_id] = (timer, sandbox, request, record)
        return True

    def _run_request(
        self,
        sandbox: Sandbox,
        request: Request,
        record: RequestRecord,
        *,
        already_started: bool = False,
    ) -> None:
        """Schedule execution; startup (unless already elapsed) + exec."""
        exec_ms = self._exec_ms(request)
        record.exec_ms = exec_ms
        delay = exec_ms if already_started else record.startup_ms + exec_ms

        def complete() -> None:
            now = self.sim.now
            self._inflight.pop(request.request_id, None)
            self.metrics.on_completion(record, now)
            sandbox.busy_request_id = None
            sandbox.served_requests += 1
            sandbox.transition(SandboxState.WARM, now)
            self._arm_idle_timers(sandbox)
            self._drain_queue()

        timer = self.sim.after(delay, complete)
        self._inflight[request.request_id] = (timer, sandbox, request, record)

    # ------------------------------------------------------------- spawn

    def _spawn(self, profile, node: Node) -> Sandbox:
        sandbox = Sandbox(
            profile=profile,
            node_id=node.node_id,
            instance_seed=self._next_instance_seed(),
            created_at=self.sim.now,
            tenant=self._tenant_of.get(profile.name, ""),
            domain=self._function_domain.get(profile.name, ""),
        )
        node.admit(sandbox)
        # After the node's accounting observer, so index reads see
        # up-to-date memory charges.
        sandbox.observers.append(self._index.on_transition)
        self._index.on_spawn(sandbox)
        self._function_sandboxes(profile.name)[sandbox.sandbox_id] = sandbox
        self.metrics.sandboxes_created += 1
        return sandbox

    def _evictable_sandboxes(self, node: Node) -> list[Sandbox]:
        """Node's purgeable idle victims, unranked."""
        victims = [s for s in node.sandboxes.values() if s.evictable]
        if self.tiering or self.templates is not None:
            # Dedup-cold / template-cold sandboxes hold no DRAM (their
            # table lives on SSD or in the remote template pool); purging
            # them frees nothing and destroys restorable state.
            victims = [s for s in victims if s.table_tier is None]
        return victims

    def _unpinned_base_sandboxes(self, node: Node) -> list[Sandbox]:
        """Node's last-resort base victims (refcount 0), unranked."""
        return [
            s
            for s in node.sandboxes.values()
            if s.is_base
            and s.idle_warm
            and s.base_checkpoint_id is not None
            and not self.store.get(s.base_checkpoint_id).pinned
        ]

    def _eviction_candidates(self, node: Node, *, include_bases: bool) -> list[Sandbox]:
        """Node's LRU idle victims.

        Base sandboxes anchor every future dedup of their function, so
        they are spared under ordinary pressure; ``include_bases`` opens
        up *unpinned* bases (refcount 0) as a genuine last resort —
        without it, an unpinned base on a full node could starve queued
        work indefinitely.  The ranked count feeds
        ``metrics.eviction_candidates_scanned``, so scan volume under
        pressure is observable.
        """
        victims = rank_victims(self._evictable_sandboxes(node), self.config.eviction_order)
        self.metrics.eviction_candidates_scanned += len(victims)
        if include_bases:
            unpinned_bases = rank_victims(
                self._unpinned_base_sandboxes(node), EvictionOrder.LRU
            )
            self.metrics.eviction_candidates_scanned += len(unpinned_bases)
            victims = victims + unpinned_bases
        return victims

    def _can_reclaim(self, node: Node, needed_bytes: int, *, include_bases: bool) -> bool:
        """Would evicting every candidate on ``node`` fit ``needed_bytes``?

        The placement gate only needs the *total*, so it ranks nothing
        and reads the node's maintained ``reclaimable_bytes`` counter.
        What a node cannot see — whether a base's checkpoint is pinned,
        which template replicas the catalog's hot window protects — is
        only summed when the rest falls short.
        """
        total = node.free_bytes() + node.reclaimable_bytes()
        if total < needed_bytes and include_bases:
            total += sum(s.memory_bytes() for s in self._unpinned_base_sandboxes(node))
        if total < needed_bytes and self.templates is not None:
            # Droppable template replicas (pool copies survive; the last
            # node-DRAM replica of a hot template is exempt).
            total += sum(
                segment.full_bytes
                for segment in self.templates.evictable_replicas(
                    node.node_id, self.sim.now
                )
            )
        return total >= needed_bytes

    def _place(self, needed_bytes: int, *, allow_bases: bool = False) -> Node | None:
        """Least-used node that fits, evicting idle sandboxes if needed.

        ``allow_bases`` is the starvation path: a request that has been
        queued past STARVATION_MS may also evict unpinned base sandboxes
        rather than wait indefinitely.
        """
        node = self._try_place(needed_bytes, include_bases=False)
        if node is not None or not allow_bases:
            return node
        return self._try_place(needed_bytes, include_bases=True)

    def _try_place(self, needed_bytes: int, *, include_bases: bool) -> Node | None:
        # The candidate order is a snapshot of the maintained
        # (used_bytes, node_id) order, fixed at entry: evictions below
        # do not re-rank it.
        down = self._faults.health.down_nodes if self._faults is not None else frozenset()
        candidates = self._usage.snapshot(exclude=down)
        for node in candidates:
            if node.fits(needed_bytes):
                return node
        for node in candidates:
            if not self._can_reclaim(node, needed_bytes, include_bases=include_bases):
                continue
            # Re-fetch candidates each round: purging can re-enter the
            # dispatcher (queued work drains) and evict on its own.
            while not node.fits(needed_bytes):
                if self.templates is not None and self._drop_one_replica(node):
                    # Replica eviction loses no state at all (the pool
                    # copy re-promotes), so it is always the cheapest
                    # rung — drop cold replicas before purging sandboxes.
                    continue
                victims = self._eviction_candidates(node, include_bases=include_bases)
                if not victims:
                    break
                victim = victims[0]
                if self.templates is not None:
                    # Function-coverage-aware order: a victim whose
                    # function has other live copies purges at zero wire
                    # cost, while evicting a *last* copy costs either a
                    # future cold start or a pool round-trip.  Prefer
                    # the redundant victim even if it is not the LRU
                    # head; last copies go only when every candidate is
                    # one.
                    victim = next(
                        (v for v in victims if self._has_other_copy(v)), victim
                    )
                if (
                    self.tiering
                    and victim.state is SandboxState.DEDUP
                    and self._demote_table(victim)
                ):
                    # Demote-before-purge: the table moved to SSD, its
                    # DRAM is free and the sandbox stays restorable.
                    continue
                if (
                    self.templates is not None
                    and victim.state is SandboxState.WARM
                    and self._park_victim_as_template(victim)
                ):
                    # Park-before-purge: the warm victim shrank to its
                    # template delta, so its next start is a fork rather
                    # than a cold start.  If the freed slack is still
                    # not enough, the loop comes back around and the
                    # spill rung below demotes the delta to the pool.
                    continue
                if (
                    self.templates is not None
                    and victim.state is SandboxState.DEDUP
                    and self._spill_delta(victim)
                ):
                    # Spill-before-purge: the parked delta moved to the
                    # remote-DRAM pool ("template-cold"), its node DRAM
                    # is free, and the sandbox stays fork-restorable at
                    # the charged pool-read cost.
                    continue
                self._purge(victim, reason="evicted")
                self.metrics.evictions += 1
            if node.fits(needed_bytes):
                return node
        return None

    def _has_other_copy(self, sandbox: Sandbox) -> bool:
        """Does any other live sandbox of this function exist?  If so,
        losing ``sandbox`` cannot by itself cause the function's next
        arrival to start cold."""
        return any(
            other is not sandbox and other.state is not SandboxState.PURGED
            for other in self._function_sandboxes(sandbox.function).values()
        )

    def _drop_one_replica(self, node: Node) -> bool:
        """Evict the coldest droppable template replica on ``node``.

        Never strands a parked delta: the pool copy is authoritative and
        the catalog's hot-window guard keeps the last node-DRAM replica
        of any recently forked template in place.
        """
        assert self.templates is not None
        victims = self.templates.evictable_replicas(node.node_id, self.sim.now)
        if not victims:
            return False
        segment = victims[0]
        self.templates.drop_replica(node.node_id, segment)
        self.templates.replica_evictions += 1
        node.unpin_template(segment.segment_id)
        self.metrics.template_replica_evictions += 1
        return True

    def _park_victim_as_template(self, sandbox: Sandbox) -> bool:
        """Eviction rung between replica drops and purges: park a warm
        victim as a template delta instead of destroying it.

        A dedup park is not viable here — it needs O(pages) registry
        round-trips mid-eviction — but a template park is local patching
        against known segments plus one pool write, so the controller
        can shrink the victim to its delta on the spot.  The memory gap
        (full footprint minus the retained delta) frees immediately;
        the park runs synchronously because placement needs those bytes
        in this very round.  Returns False (victim untouched, caller
        purges) when the pool cannot take the segments or the publish's
        transient-RPC plan is exhausted.

        Last-copy gated, like the spill rung: parking a *redundant*
        warm victim trades its full footprint for a delta the function
        will likely never fork (another sandbox already serves it), and
        under exactly the pressure that is evicting — the retained
        deltas crowd out warm capacity and the cold-start count goes
        *up*.  Redundant victims purge outright, as the template-free
        controller would.
        """
        assert self.templates is not None
        if self._has_other_copy(sandbox):
            return False
        self._ensure_image(sandbox)
        agent = self.agents[sandbox.node_id]
        try:
            outcome = agent.templatize(sandbox)
        except (TemplatePoolFull, RetryExhausted):
            self.metrics.template_pool_rejections += 1
            return False
        self._timers_for(sandbox).cancel_all()
        sandbox.transition(SandboxState.DEDUPING, self.sim.now)
        self._complete_templatize(sandbox, outcome, self.sim.now)
        self.metrics.template_evict_parks += 1
        # The delta stays in node DRAM: the park already freed the gap
        # between the full footprint and the retained delta, and the
        # paired warm charge's entropy never crosses the wire.  If that
        # slack is still not enough, the eviction loop comes back around
        # and the spill rung demotes this same delta to local SSD — the
        # demotion is paid lazily, only under sustained pressure.
        return True

    def _delta_ssd_account(self, node_id: int) -> TierAccount:
        """The node's SSD capacity account for spilled template deltas."""
        account = self._delta_ssd.get(node_id)
        if account is None:
            assert self.templates is not None
            config = self.templates.pool.config
            account = TierAccount(capacity_bytes=config.ssd_capacity_bytes)
            self._delta_ssd[node_id] = account
        return account

    def _spill_delta(self, sandbox: Sandbox) -> bool:
        """Demote a parked template delta onto the node's local SSD.

        The template analogue of :meth:`_demote_table`'s dedup-cold rung
        (§9 parks cold dedup tables on SSD the same way): the sandbox's
        node-DRAM charge drops to zero while it stays fork-restorable —
        the next fork reads the delta back at the charged SSD cost
        before applying it over the replicas.  The delta never crosses
        the fabric: only template *segments* get remote-DRAM durability
        (they are shared and must survive node crashes); a per-function
        delta dies with its node exactly like the warm image it came
        from, so shipping it to the pool buys nothing but wire traffic.

        Only the *last* live copy of a function's state is worth
        keeping: purging a redundant delta costs nothing (another
        sandbox still averts the cold start), while purging the last
        one turns the function's next arrival into a cold start.  The
        last-copy gate keeps spill traffic bounded by the function
        count, not the eviction rate.

        Under SSD pressure the node's oldest spilled delta is purged to
        make room (the coldest restorable state in the system); returns
        False when even that cannot fit the new delta.
        """
        assert self.templates is not None
        table = sandbox.dedup_table
        if (
            sandbox.state is not SandboxState.DEDUP
            or sandbox.busy_request_id is not None
            or sandbox.table_tier is not None
            or not isinstance(table, TemplateDeltaTable)
        ):
            return False
        if self._has_other_copy(sandbox):
            return False  # redundant copy: purging it loses nothing
        nbytes = table.retained_full_bytes
        ssd = self._delta_ssd_account(sandbox.node_id)
        while not ssd.fits(nbytes):
            victim = next(
                (s for s in self._spilled.values() if s.node_id == sandbox.node_id),
                None,
            )
            if victim is None:
                return False
            self._purge(victim, reason="ssd-pressure")
            if not (
                sandbox.state is SandboxState.DEDUP
                and sandbox.busy_request_id is None
                and sandbox.table_tier is None
            ):
                # The purge re-entered the dispatcher and this
                # sandbox was claimed for a fork meanwhile.
                return False
        ssd.charge(nbytes)
        self._timers_for(sandbox).cancel_all()
        sandbox.table_tier = StorageTier.LOCAL_SSD
        self.nodes[sandbox.node_id].recharge_sandbox(sandbox.sandbox_id)
        self._spilled[sandbox.sandbox_id] = sandbox
        self.metrics.template_delta_spills += 1
        self.metrics.template_delta_spill_bytes += nbytes
        return True

    def _unspill_delta(self, sandbox: Sandbox) -> float:
        """Read a spilled ("template-cold") delta back from the node's
        SSD for a fork; returns the charged read cost (0.0 when never
        spilled)."""
        if sandbox.table_tier is None:
            return 0.0
        assert self.templates is not None
        table = sandbox.dedup_table
        assert isinstance(table, TemplateDeltaTable)
        nbytes = table.retained_full_bytes
        cost_ms = self.templates.pool.config.ssd_read_ms(nbytes)
        self._delta_ssd_account(sandbox.node_id).release(nbytes)
        sandbox.table_tier = None
        self.nodes[sandbox.node_id].recharge_sandbox(sandbox.sandbox_id)
        self._spilled.pop(sandbox.sandbox_id, None)
        self.metrics.template_delta_unspill_bytes += nbytes
        return cost_ms

    def spawn_prewarmed(self, function: str) -> bool:
        """Spawn a sandbox ahead of demand (adaptive policy pre-warming)."""
        profile = self.suite.get(function)
        node = self._place(profile.memory_bytes)
        if node is None:
            return False
        sandbox = self._spawn(profile, node)
        self.metrics.prewarm_spawns += 1
        cold_ms = self.config.cold_start_ms(profile) + self.config.costs.spawn_placement_ms

        def finish_spawn() -> None:
            if sandbox.state is not SandboxState.SPAWNING:
                return  # crash-purged mid-spawn
            sandbox.transition(SandboxState.WARM, self.sim.now)
            self._arm_idle_timers(sandbox)
            self._drain_queue()

        self.sim.after(cold_ms, finish_spawn)
        return True

    def _drain_queue(self) -> None:
        if self._draining or not self._queue:
            return
        self._draining = True
        try:
            remaining: list[tuple[Request, RequestRecord]] = []
            for request, record in self._queue:
                desperate = self.sim.now - record.arrival_ms > STARVATION_MS
                if not self._try_dispatch(request, record, desperate=desperate):
                    remaining.append((request, record))
            self._queue = remaining
        finally:
            self._draining = False

    # ---------------------------------------------------------- lifecycle

    def _arm_idle_timers(self, sandbox: Sandbox) -> None:
        """Arm the idle-period and keep-alive timers of an idle warm sandbox."""
        timers = self._timers_for(sandbox)
        timers.cancel_all()
        function = sandbox.function
        idle_period = self.policy.idle_period_ms(function)
        if idle_period is not None:
            timers.idle = self.sim.after(idle_period, lambda: self._on_idle_expiry(sandbox))
        keep_alive = self.policy.keep_alive_ms(function, self.sim.now)
        timers.keep_alive = self.sim.after(
            keep_alive, lambda: self._on_keep_alive_expiry(sandbox)
        )

    def _on_idle_expiry(self, sandbox: Sandbox) -> None:
        """Idle period elapsed: consult the policy (Medes only)."""
        if not sandbox.idle_warm:
            return
        timers = self._timers_for(sandbox)
        idle_period = self.policy.idle_period_ms(sandbox.function)
        if idle_period is None:
            return
        if sandbox.is_base:
            # Base sandboxes stay warm while they anchor dedup state.
            timers.idle = self.sim.after(idle_period, lambda: self._on_idle_expiry(sandbox))
            return
        registry_down = (
            self._faults is not None and not self._faults.health.registry_available()
        )
        if registry_down and self.templates is None:
            # Degradation ladder (DESIGN.md §11): with a registry shard
            # down no new dedup ops are admitted; stay warm and re-ask
            # after the next idle period.  (Template parking needs no
            # registry, so a catalog keeps the consultation open.)
            self.metrics.dedup_deferrals += 1
            timers.idle = self.sim.after(idle_period, lambda: self._on_idle_expiry(sandbox))
            return
        decision = self.policy.decide_idle(sandbox.function, self.build_view())
        if decision is Decision.KEEP_WARM:
            timers.idle = self.sim.after(idle_period, lambda: self._on_idle_expiry(sandbox))
            return
        if decision is Decision.TEMPLATE:
            if self._begin_templatize(sandbox):
                return
            # Pool full or publish retry storm: fall down one rung.
            if registry_down:
                # No dedup rung during the outage; stay warm and re-ask.
                self.metrics.dedup_deferrals += 1
                timers.idle = self.sim.after(
                    idle_period, lambda: self._on_idle_expiry(sandbox)
                )
                return
            # Fall through to the base rule and the dedup op below.
        # The D/B > T rule: a function with heavy dedup traffic gets an
        # additional base outright.
        if self.basemgr.base_count(sandbox.function) > 0 and self.basemgr.needs_new_base(
            sandbox.function
        ):
            self._make_base(sandbox)
            timers.idle = self.sim.after(idle_period, lambda: self._on_idle_expiry(sandbox))
            return
        became_base = self._begin_dedup(sandbox)
        if became_base:
            # _begin_dedup cancelled the timers; the sandbox stayed warm
            # (as a base), so both idle and keep-alive must be re-armed.
            self._arm_idle_timers(sandbox)

    def _on_keep_alive_expiry(self, sandbox: Sandbox) -> None:
        if not sandbox.idle_warm:
            return
        now = self.sim.now
        keep_alive = self.policy.keep_alive_ms(sandbox.function, now)
        idle_for = now - sandbox.last_used_at
        if idle_for + 1e-6 < keep_alive:
            # The policy's window moved (adaptive); re-arm for the rest.
            self._timers_for(sandbox).keep_alive = self.sim.after(
                keep_alive - idle_for, lambda: self._on_keep_alive_expiry(sandbox)
            )
            return
        if sandbox.is_base and sandbox.base_checkpoint_id is not None:
            checkpoint = self.store.get(sandbox.base_checkpoint_id)
            if checkpoint.pinned:
                # Keep the anchor warm; re-check one keep-alive later.
                self._timers_for(sandbox).keep_alive = self.sim.after(
                    keep_alive, lambda: self._on_keep_alive_expiry(sandbox)
                )
                return
        function = sandbox.function
        self._purge(sandbox, reason="keep-alive")
        delay = self.policy.prewarm_delay_ms(function, self.sim.now)
        if delay is not None:
            self.sim.after(delay, lambda: self.spawn_prewarmed(function))

    def _on_keep_dedup_expiry(self, sandbox: Sandbox) -> None:
        if sandbox.state is SandboxState.DEDUP and sandbox.busy_request_id is None:
            if (
                self.tiering
                and not isinstance(sandbox.dedup_table, TemplateDeltaTable)
                and self._demote_table(sandbox)
            ):
                # Dedup-cold: the patch table parks on SSD instead of
                # dying; the sandbox stays restorable at SSD read cost.
                return
            self._purge(sandbox, reason="keep-dedup")

    # ------------------------------------------------------------- tiering

    def _demote_table(self, sandbox: Sandbox) -> bool:
        """Park a DEDUP sandbox's patch table on its node's SSD.

        Returns False when the sandbox is no longer demotable (already
        cold, or reclaimed by a re-entrant dispatch while we purged cold
        victims for SSD room) or when the SSD cannot make room.
        """
        store = self.tiered_store
        assert store is not None
        if sandbox.table_tier is not None:
            return False
        table = sandbox.dedup_table
        assert table is not None
        if isinstance(table, TemplateDeltaTable):
            # Template deltas demote through the template pool
            # (:meth:`_spill_delta`), never through the SSD tier.
            return False
        nbytes = table.retained_full_bytes
        node_id = sandbox.node_id
        while not store.ssd_fits(node_id, nbytes):
            # SSD pressure: retire the oldest cold table on this node.
            victim = next(
                (s for s in self._cold.values() if s.node_id == node_id), None
            )
            if victim is None:
                return False
            self._purge(victim, reason="ssd-pressure")
            if not (
                sandbox.state is SandboxState.DEDUP
                and sandbox.busy_request_id is None
                and sandbox.table_tier is None
            ):
                # The purge re-entered the dispatcher and this sandbox
                # was claimed for a restore meanwhile.
                return False
        cost_ms = store.demote_table(sandbox.sandbox_id, node_id, nbytes)
        self._timers_for(sandbox).cancel_all()
        sandbox.table_tier = StorageTier.LOCAL_SSD
        self.nodes[node_id].recharge_sandbox(sandbox.sandbox_id)
        self._cold[sandbox.sandbox_id] = sandbox
        self.metrics.table_demotions += 1
        self.metrics.tier_ops.append(
            TierOpRecord(
                time_ms=self.sim.now,
                kind="demote",
                subject="table",
                tier=StorageTier.LOCAL_SSD.value,
                nbytes=nbytes,
                cost_ms=cost_ms,
            )
        )
        self._drain_queue()  # the freed DRAM may admit queued work
        return True

    def _promote_table(self, sandbox: Sandbox) -> float:
        """Read a parked table back from SSD for a restore; returns the
        charged read cost (0.0 when the table was never parked)."""
        store = self.tiered_store
        assert store is not None
        location = store.table_location(sandbox.sandbox_id)
        if location is None:
            return 0.0
        _node_id, nbytes = location
        cost_ms = store.promote_table(sandbox.sandbox_id)
        sandbox.table_tier = None
        self.nodes[sandbox.node_id].recharge_sandbox(sandbox.sandbox_id)
        self._cold.pop(sandbox.sandbox_id, None)
        self.metrics.table_promotions += 1
        self.metrics.tier_ops.append(
            TierOpRecord(
                time_ms=self.sim.now,
                kind="promote",
                subject="table",
                tier=StorageTier.NODE_DRAM.value,
                nbytes=nbytes,
                cost_ms=cost_ms,
            )
        )
        return cost_ms

    def _promote_checkpoints(self, table) -> float:
        """Bring demoted base checkpoints a restore will read back into
        their node's DRAM, where it has room; returns the charged cost.

        A popular base paying tier reads on every restore earns its DRAM
        back the first time a restore touches it on an unloaded node;
        checkpoints on full (or unreachable) nodes stay demoted and the
        restore reads through at tier cost instead.
        """
        store = self.tiered_store
        assert store is not None
        fabric = next(iter(self.agents.values())).fabric
        total_ms = 0.0
        for checkpoint_id in sorted(table.base_refs):
            checkpoint = store.get(checkpoint_id)
            if checkpoint.tier is StorageTier.NODE_DRAM:
                continue
            if not fabric.peer_available(checkpoint.node_id):
                continue
            node = self.nodes[checkpoint.node_id]
            if not node.fits(checkpoint.full_size_bytes):
                continue
            move = store.promote_checkpoint(checkpoint)
            node.recharge_checkpoint(checkpoint.checkpoint_id)
            self.metrics.checkpoint_promotions += 1
            self.metrics.tier_ops.append(
                TierOpRecord(
                    time_ms=self.sim.now,
                    kind="promote",
                    subject="checkpoint",
                    tier=StorageTier.NODE_DRAM.value,
                    nbytes=move.nbytes,
                    cost_ms=move.cost_ms,
                )
            )
            total_ms += move.cost_ms
        return total_ms

    def _demote_checkpoint(self, checkpoint: BaseCheckpoint) -> bool:
        """Move a pinned, ownerless checkpoint off node DRAM (far-memory
        pool first, node SSD as overflow)."""
        store = self.tiered_store
        assert store is not None
        move = store.demote_checkpoint(checkpoint)
        if move is None:
            return False
        self.nodes[checkpoint.node_id].recharge_checkpoint(checkpoint.checkpoint_id)
        self.metrics.checkpoint_demotions += 1
        self.metrics.tier_ops.append(
            TierOpRecord(
                time_ms=self.sim.now,
                kind="demote",
                subject="checkpoint",
                tier=move.tier.value,
                nbytes=move.nbytes,
                cost_ms=move.cost_ms,
            )
        )
        return True

    # -------------------------------------------------------------- dedup

    def _make_base(self, sandbox: Sandbox) -> None:
        """Demarcate a warm sandbox as a base (Section 4.1.3).

        Checkpointing the image and registering every page's fingerprint
        take real time (``CostModel.checkpoint_ms`` / ``register_ms``);
        the sandbox is marked busy for that duration, so it cannot serve
        requests or re-enter the idle machinery mid-demarcation.  The
        registry contents become visible immediately — the simulation
        collapses the op's effect to its start, like the dedup op does —
        but the time is charged and surfaced in ``metrics.base_ops``.
        """
        self._ensure_image(sandbox)
        assert sandbox.image is not None
        node = self.nodes[sandbox.node_id]
        checkpoint = BaseCheckpoint(
            function=sandbox.function,
            node_id=sandbox.node_id,
            image=sandbox.image,
            owner_sandbox_id=sandbox.sandbox_id,
            full_size_bytes=sandbox.profile.memory_bytes,
            domain=sandbox.domain,
        )
        self.basemgr.add_base(checkpoint)
        node.pin_checkpoint(checkpoint)
        agent = self.agents[sandbox.node_id]
        image = checkpoint.image
        fingerprints = batch_page_fingerprints(
            image.data, image.page_size, agent.fingerprint_config
        )
        refs = [
            PageRef(checkpoint.checkpoint_id, sandbox.node_id, index)
            for index in range(len(fingerprints))
        ]
        self.registry.register_pages(refs, fingerprints, checkpoint.domain)
        for index, ref in enumerate(refs):
            # The full-page replica index (exact content digests) backs
            # crash rehoming: byte-identical pages on surviving bases
            # can absorb a dead base's patch references unchanged.
            self.registry.register_page_location(
                ref, hash_bytes(image.page_bytes(index)), checkpoint.domain
            )
        sandbox.is_base = True
        sandbox.base_checkpoint_id = checkpoint.checkpoint_id
        self.metrics.bases_created += 1

        costs = self.config.costs
        full_pages = max(1, round(image.num_pages / self.config.content_scale))
        record = BaseOpRecord(
            function=sandbox.function,
            sandbox_id=sandbox.sandbox_id,
            started_ms=self.sim.now,
            checkpoint_ms=costs.checkpoint_ms(full_pages),
            register_ms=costs.register_ms(full_pages),
        )
        self.metrics.base_ops.append(record)
        sandbox.busy_request_id = _BASE_OP_BUSY
        self._note_candidacy_change(sandbox)

        def finish_base_op() -> None:
            if sandbox.busy_request_id != _BASE_OP_BUSY:
                return  # purged (or otherwise reclaimed) mid-demarcation
            sandbox.busy_request_id = None
            self._note_candidacy_change(sandbox)
            if sandbox.state is SandboxState.WARM:
                self._arm_idle_timers(sandbox)

        self.sim.after(record.total_ms, finish_base_op)

    def _note_candidacy_change(self, sandbox: Sandbox) -> None:
        """``busy_request_id`` or ``is_base`` changed without a state
        transition, so no observer fired: update by hand what they feed
        (dispatch candidate sets, the node's reclaimable bytes)."""
        self._index.refresh(sandbox)
        if sandbox.state is not SandboxState.PURGED:
            self.nodes[sandbox.node_id].recharge_sandbox(sandbox.sandbox_id)

    def _abort_dedup(self, sandbox: Sandbox) -> None:
        """Cancel an in-flight dedup op and return the sandbox to warm.

        The refcounts the op acquired are rolled back; the memory
        checkpoint is simply dropped (the warm image never went away).
        """
        pending = self._pending_dedups.pop(sandbox.sandbox_id, None)
        if pending is None:
            raise RuntimeError(f"sandbox {sandbox.sandbox_id} has no dedup in flight")
        timer, outcome = pending
        timer.cancel()
        self._release_retained(outcome.table)
        sandbox.transition(SandboxState.WARM, self.sim.now)

    def _begin_dedup(self, sandbox: Sandbox) -> bool:
        """Kick off the (background) dedup op for an idle warm sandbox.

        Returns True when the trial dedup saved too little — the cluster
        lacks base coverage for this function's content — and the
        sandbox was demarcated as a base instead of deduplicating.
        """
        self._timers_for(sandbox).cancel_all()
        sandbox.transition(SandboxState.DEDUPING, self.sim.now)
        self._ensure_image(sandbox)
        agent = self.agents[sandbox.node_id]
        try:
            outcome = agent.dedup(sandbox)
        except RegistryUnavailable:
            # Registry lookups timed out past the retry budget: defer
            # the dedup (no refcounts were acquired) and stay warm.
            sandbox.transition(SandboxState.WARM, self.sim.now)
            self.metrics.dedup_deferrals += 1
            self._arm_idle_timers(sandbox)
            return False
        if (
            outcome.table.stats.savings_fraction < self.config.base_savings_threshold
            and self.basemgr.needs_new_base(sandbox.function)
        ):
            self._release_base_refs(outcome.table)
            sandbox.transition(SandboxState.WARM, self.sim.now)
            self._make_base(sandbox)
            return True
        started = self.sim.now

        def finish_dedup() -> None:
            self._pending_dedups.pop(sandbox.sandbox_id, None)
            sandbox.dedup_table = outcome.table
            sandbox.image = None
            sandbox.dedup_count += 1
            self._end_template_sharing(sandbox)
            sandbox.transition(SandboxState.DEDUP, self.sim.now)
            self.basemgr.note_dedup(sandbox.function, +1)
            if sandbox.function in self.stats:
                fraction = outcome.table.retained_full_bytes / sandbox.profile.memory_bytes
                self.stats[sandbox.function].record_retained_fraction(min(1.0, fraction))
            self.metrics.dedup_ops.append(
                DedupOpRecord(
                    function=sandbox.function,
                    sandbox_id=sandbox.sandbox_id,
                    started_ms=started,
                    duration_ms=outcome.timings.total_ms,
                    lookup_ms=outcome.timings.lookup_ms,
                    savings_fraction=outcome.table.stats.savings_fraction,
                    retained_full_bytes=outcome.table.retained_full_bytes,
                    same_function_pages=outcome.table.stats.same_function_pages,
                    cross_function_pages=outcome.table.stats.cross_function_pages,
                    retry_ms=outcome.timings.retry_ms,
                    retries=outcome.timings.retries,
                )
            )
            timers = self._timers_for(sandbox)
            timers.keep_dedup = self.sim.after(
                self.policy.keep_dedup_ms(sandbox.function),
                lambda: self._on_keep_dedup_expiry(sandbox),
            )
            self._drain_queue()  # the freed memory may admit queued work

        timer = self.sim.after(outcome.timings.total_ms, finish_dedup)
        self._pending_dedups[sandbox.sandbox_id] = (timer, outcome)
        return False

    def _begin_templatize(self, sandbox: Sandbox) -> bool:
        """Kick off the (background) template park of an idle warm sandbox.

        Returns False when the template path cannot proceed — the pool
        cannot fit the missing segments even after reclaiming idle ones,
        or the pool write's transient-RPC plan was exhausted.  Either
        way no state was created (the agent's op is all-or-nothing), the
        sandbox is untouched, and the caller falls back to the dedup
        rung of the ladder.
        """
        self._ensure_image(sandbox)
        agent = self.agents[sandbox.node_id]
        try:
            outcome = agent.templatize(sandbox)
        except (TemplatePoolFull, RetryExhausted):
            self.metrics.template_pool_rejections += 1
            return False
        self._timers_for(sandbox).cancel_all()
        sandbox.transition(SandboxState.DEDUPING, self.sim.now)
        started = self.sim.now

        def finish_templatize() -> None:
            self._pending_dedups.pop(sandbox.sandbox_id, None)
            self._complete_templatize(sandbox, outcome, started)
            self._drain_queue()  # the freed memory may admit queued work

        timer = self.sim.after(outcome.duration_ms, finish_templatize)
        self._pending_dedups[sandbox.sandbox_id] = (timer, outcome)
        return True

    def _complete_templatize(self, sandbox: Sandbox, outcome, started: float) -> None:
        """Land a finished templatize op: attach the delta, park the
        sandbox, record the op, and arm the keep-dedup expiry."""
        sandbox.dedup_table = outcome.table
        sandbox.image = None
        sandbox.dedup_count += 1
        self._end_template_sharing(sandbox)
        sandbox.transition(SandboxState.DEDUP, self.sim.now)
        # The base manager stays blind to template parks: they hold
        # no base references, so they must not skew the D/B rule.
        if sandbox.function in self.stats:
            fraction = (
                outcome.table.retained_full_bytes / sandbox.profile.memory_bytes
            )
            self.stats[sandbox.function].record_retained_fraction(min(1.0, fraction))
        self.metrics.template_segments_created += outcome.segments_created
        self.metrics.template_segments_shared += outcome.segments_shared
        self.metrics.template_ops.append(
            TemplateOpRecord(
                function=sandbox.function,
                sandbox_id=sandbox.sandbox_id,
                started_ms=started,
                duration_ms=outcome.duration_ms,
                publish_ms=outcome.publish_ms,
                segments_created=outcome.segments_created,
                segments_shared=outcome.segments_shared,
                published_bytes=outcome.published_bytes,
                savings_fraction=outcome.table.savings_fraction,
                retained_full_bytes=outcome.table.retained_full_bytes,
            )
        )
        timers = self._timers_for(sandbox)
        timers.keep_dedup = self.sim.after(
            self.policy.keep_dedup_ms(sandbox.function),
            lambda: self._on_keep_dedup_expiry(sandbox),
        )

    def _end_template_sharing(self, sandbox: Sandbox) -> None:
        """Unshare a forked sandbox's copy-on-write template pages.

        Called wherever the warm image stops being resident (park,
        purge): the sandbox's charge reverts from the CoW-discounted
        footprint, and the node's replicas become droppable again once
        their last sharer is gone."""
        if not sandbox.template_share_keys:
            return
        assert self.templates is not None
        self.templates.drop_sharers(sandbox.template_share_keys, sandbox.node_id)
        sandbox.template_share_keys = ()
        sandbox.template_cow_bytes = 0

    def _release_retained(self, table) -> None:
        """Release whatever a parked table holds references to: catalog
        segments for a template delta, base checkpoints otherwise."""
        if isinstance(table, TemplateDeltaTable):
            assert self.templates is not None
            self.templates.release(table.segment_keys)
        else:
            self._release_base_refs(table)

    def _release_base_refs(self, table) -> None:
        for checkpoint_id, count in table.base_refs.items():
            checkpoint = self.store.get(checkpoint_id)
            checkpoint.release(count)
            self._maybe_retire_checkpoint(checkpoint)

    def _maybe_retire_checkpoint(self, checkpoint: BaseCheckpoint) -> None:
        """Retire an unpinned base checkpoint whose owner is gone."""
        if checkpoint.pinned or checkpoint.owner_resident:
            return
        self.registry.deregister_checkpoint(checkpoint.checkpoint_id)
        self.nodes[checkpoint.node_id].unpin_checkpoint(checkpoint.checkpoint_id)
        self.basemgr.remove_base(checkpoint)
        self.store.remove(checkpoint.checkpoint_id)

    # ----------------------------------------------------- fault recovery

    def _checkpoint_survives(self, checkpoint: BaseCheckpoint) -> bool:
        """Whether a checkpoint's content outlives its home node's crash
        (far-memory residency only; see ``TieredCheckpointStore``)."""
        return self.tiered_store is not None and self.tiered_store.survives_node_failure(
            checkpoint
        )

    def _unreachable_refs(self, table: "DedupPageTable") -> set[int]:
        """Checkpoint ids in ``table`` whose base pages cannot be read:
        home node unreachable and content not in a surviving tier."""
        fabric = next(iter(self.agents.values())).fabric
        dead: set[int] = set()
        for checkpoint_id in table.base_refs:
            checkpoint = self.store.get(checkpoint_id)
            if self._checkpoint_survives(checkpoint):
                continue
            if not fabric.peer_available(checkpoint.node_id):
                dead.add(checkpoint_id)
        return dead

    def _replica_for(
        self, ref: PageRef, dead: set[int], local_node_id: int, domain: str
    ) -> PageRef | None:
        """A live byte-identical same-domain replica of ``ref``'s page.

        Prefers a replica already on the restoring sandbox's node (free
        local reads), then the lowest (checkpoint, page) for determinism.
        The replica index is partitioned by dedup domain, so it cannot
        return a foreign ref; the explicit ``domain`` check here is a
        second, independent enforcement point — a rehome onto another
        tenant's byte-identical page would silently merge their memory,
        so a mismatch is skipped (and counted) rather than trusted.
        """
        candidates = []
        for replica in self.registry.replicas_for(ref):
            if replica.checkpoint_id in dead:
                continue
            if self._faults is not None and not self._faults.health.node_up(
                replica.node_id
            ):
                continue
            try:
                checkpoint = self.store.get(replica.checkpoint_id)
            except KeyError:
                continue  # retired since it was indexed
            if checkpoint.domain != domain:
                self.metrics.cross_domain_replica_skips += 1
                continue
            candidates.append(replica)
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda r: (r.node_id != local_node_id, r.checkpoint_id, r.page_index),
        )

    def _try_rehome(self, sandbox: Sandbox, dead: set[int]) -> bool:
        """Re-point a dedup sandbox's patched pages at surviving replicas.

        All-or-nothing: either every patched page whose base died has a
        byte-identical live replica (the patches then apply unchanged)
        and the table is rewritten, or the table is left untouched and
        the caller purges.  Refcounts move atomically — acquire the new
        bases, then release the dead ones exactly once.
        """
        if self._faults is None or not self._faults.health.registry_available():
            return False
        table = sandbox.dedup_table
        assert table is not None
        replacements: dict[PageRef, PageRef] = {}
        for entry in table.entries:
            if entry.kind is not PageKind.PATCHED:
                continue
            assert entry.base is not None
            if entry.base.checkpoint_id not in dead:
                continue
            if entry.base in replacements:
                continue
            replica = self._replica_for(entry.base, dead, sandbox.node_id, sandbox.domain)
            if replica is None:
                return False
            replacements[entry.base] = replica
        if not replacements:
            return False
        new_entries = tuple(
            replace(entry, base=replacements[entry.base])
            if entry.kind is PageKind.PATCHED and entry.base in replacements
            else entry
            for entry in table.entries
        )
        new_refs: Counter[int] = Counter()
        for entry in new_entries:
            if entry.kind is PageKind.PATCHED:
                assert entry.base is not None
                new_refs[entry.base.checkpoint_id] += 1
        moved = sum(
            count
            for checkpoint_id, count in table.base_refs.items()
            if checkpoint_id in dead
        )
        for checkpoint_id, count in new_refs.items():
            self.store.get(checkpoint_id).acquire(count)
        self._release_base_refs(table)
        table.entries = new_entries
        table.base_refs = new_refs
        self.metrics.restore_replica_fallbacks += 1
        self.metrics.crash_reconciled_refs += moved
        return True

    def _crash_purge(self, sandbox: Sandbox) -> None:
        """Purge a sandbox on a crashed node, whatever it was doing.

        Normalizes transient states first: a RUNNING/RESTORING sandbox
        has no purge edge in the state machine, so it exits via WARM
        after its in-flight work is rolled back (refcounts released,
        dedup census decremented).
        """
        if sandbox.state is SandboxState.PURGED:
            return
        if sandbox.state is SandboxState.RESTORING:
            table = sandbox.dedup_table
            assert table is not None
            sandbox.dedup_table = None
            sandbox.busy_request_id = None
            sandbox.transition(SandboxState.WARM, self.sim.now)
            if isinstance(table, TemplateDeltaTable):
                assert self.templates is not None
                self.templates.release(table.segment_keys)
            else:
                self._release_base_refs(table)
                self.basemgr.note_dedup(sandbox.function, -1)
        elif sandbox.state is SandboxState.RUNNING:
            sandbox.busy_request_id = None
            sandbox.transition(SandboxState.WARM, self.sim.now)
        self._purge(sandbox, reason="node-crash")

    def on_node_crash(self, node_id: int) -> None:
        """Reconcile cluster state after ``node_id`` died (DESIGN.md §11).

        1. Cancel and collect the in-flight requests the node was
           serving (they re-dispatch below, onto surviving nodes).
        2. Purge every sandbox that lived on the node, rolling back
           whatever each was mid-way through.
        3. For base checkpoints that died with the node: abort in-flight
           dedup ops referencing them, rehome (or purge) the dedup
           sandboxes patched against them, and retire the orphans.
        """
        self._draining = True  # purges must not re-enter dispatch mid-sweep
        self._crashed_node = node_id
        node = self.nodes[node_id]
        displaced: list[tuple[Request, RequestRecord]] = []
        try:
            for request_id in [
                rid
                for rid, (_, sandbox, _, _) in self._inflight.items()
                if sandbox.node_id == node_id
            ]:
                timer, _, request, record = self._inflight.pop(request_id)
                timer.cancel()
                displaced.append((request, record))
            for sandbox in list(node.sandboxes.values()):
                self._crash_purge(sandbox)
                self.metrics.crash_purged_sandboxes += 1
            if self.templates is not None:
                # The node's template replicas died with its DRAM; the
                # pool copies are remote and survive, so every parked
                # delta stays forkable — the next fork on a surviving
                # node just pays the promote read again.
                for segment in self.templates.drop_replicas(node_id):
                    node.unpin_template(segment.segment_id)
            dead = {
                checkpoint.checkpoint_id: checkpoint
                for checkpoint in list(self.store)
                if checkpoint.node_id == node_id
                and not self._checkpoint_survives(checkpoint)
            }
            if dead:
                self._reconcile_dead_bases(dead)
        finally:
            self._draining = False
            self._crashed_node = None
        for request, record in displaced:
            self.metrics.requests_rescheduled += 1
            if not self._try_dispatch(request, record):
                self._enqueue(request, record)
        self._drain_queue()

    def _reconcile_dead_bases(self, dead: dict[int, BaseCheckpoint]) -> None:
        """Release or re-home every reference into dead base checkpoints."""
        dead_ids = set(dead)
        for sandboxes in list(self._by_function.values()):
            for sandbox in list(sandboxes.values()):
                if sandbox.state is SandboxState.DEDUPING:
                    pending = self._pending_dedups.get(sandbox.sandbox_id)
                    if (
                        pending is not None
                        and not isinstance(pending[1].table, TemplateDeltaTable)
                        and dead_ids & set(pending[1].table.base_refs)
                    ):
                        # The op's output would reference dead bases;
                        # abort it (the warm image never went away).
                        self._abort_dedup(sandbox)
                        self.metrics.crash_reconciled_refs += sum(
                            count
                            for cid, count in pending[1].table.base_refs.items()
                            if cid in dead_ids
                        )
                        self._arm_idle_timers(sandbox)
                elif sandbox.state is SandboxState.DEDUP:
                    table = sandbox.dedup_table
                    assert table is not None
                    if isinstance(table, TemplateDeltaTable):
                        # Template segments live in the remote-DRAM pool:
                        # no node's crash can strand a parked delta.
                        continue
                    lost = sum(
                        count
                        for cid, count in table.base_refs.items()
                        if cid in dead_ids
                    )
                    if not lost:
                        continue
                    if not self._try_rehome(sandbox, dead_ids):
                        self.metrics.crash_reconciled_refs += lost
                        self._purge(sandbox, reason="base-lost")
                # RESTORING sandboxes already read their base pages (the
                # simulation charges reads at op start); they finish and
                # release their references naturally.
        for checkpoint_id, checkpoint in dead.items():
            try:
                self.store.get(checkpoint_id)
            except KeyError:
                continue  # already retired while its referents unwound
            self._maybe_retire_checkpoint(checkpoint)

    def on_fault_heal(self) -> None:
        """A fault domain recovered: queued work may be schedulable now."""
        self._drain_queue()

    # -------------------------------------------------------------- purge

    def _purge(self, sandbox: Sandbox, *, reason: str) -> None:
        if sandbox.state is SandboxState.PURGED:
            return  # nested eviction may race a stale candidate list
        self._timers_for(sandbox).cancel_all()
        self._timers.pop(sandbox.sandbox_id, None)
        pending = self._pending_dedups.pop(sandbox.sandbox_id, None)
        if pending is not None:
            # Mid-dedup purge: the completion timer lives outside
            # _SandboxTimers and the op already acquired base refcounts;
            # cancel and roll back so the stale finish_dedup never fires
            # on a purged sandbox and the base checkpoints can retire.
            timer, outcome = pending
            timer.cancel()
            self._release_retained(outcome.table)
            if sandbox.state is SandboxState.DEDUPING:
                # Figure 4b has no DEDUPING -> PURGED edge; the aborted
                # op leaves the warm image intact, so exit via WARM.
                sandbox.transition(SandboxState.WARM, self.sim.now)
        if sandbox.state is SandboxState.DEDUP:
            assert sandbox.dedup_table is not None
            if isinstance(sandbox.dedup_table, TemplateDeltaTable):
                assert self.templates is not None
                if sandbox.table_tier is not None:
                    # A spilled delta dies with its sandbox (and its
                    # node): release the SSD bytes it held.
                    self._delta_ssd_account(sandbox.node_id).release(
                        sandbox.dedup_table.retained_full_bytes
                    )
                    self._spilled.pop(sandbox.sandbox_id, None)
                    sandbox.table_tier = None
                self.templates.release(sandbox.dedup_table.segment_keys)
            else:
                self._release_base_refs(sandbox.dedup_table)
                self.basemgr.note_dedup(sandbox.function, -1)
                if self.tiering:
                    assert self.tiered_store is not None
                    self.tiered_store.release_table(sandbox.sandbox_id)
                    self._cold.pop(sandbox.sandbox_id, None)
        self._end_template_sharing(sandbox)
        sandbox.transition(SandboxState.PURGED, self.sim.now)
        sandbox.dedup_table = None
        sandbox.image = None
        self.nodes[sandbox.node_id].remove(sandbox.sandbox_id)
        self._function_sandboxes(sandbox.function).pop(sandbox.sandbox_id, None)
        if sandbox.is_base and sandbox.base_checkpoint_id is not None:
            checkpoint = self.store.get(sandbox.base_checkpoint_id)
            checkpoint.owner_resident = False
            # The copy-on-write discount ends with the owner: re-account
            # the pinned checkpoint at its full footprint.
            self.nodes[checkpoint.node_id].recharge_checkpoint(checkpoint.checkpoint_id)
            if (
                self.tiering
                and checkpoint.pinned
                and checkpoint.node_id != self._crashed_node
            ):
                # Rather than charge the full footprint to DRAM, move
                # the ownerless-but-pinned checkpoint down a tier; a
                # later restore promotes it back if DRAM has room.  A
                # crashed node's devices died with it — nothing to copy.
                self._demote_checkpoint(checkpoint)
            self._maybe_retire_checkpoint(checkpoint)
        self._drain_queue()
