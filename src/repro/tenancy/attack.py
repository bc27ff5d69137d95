"""Seeded remote-dedup attack scenario (DESIGN.md §15).

The channel under test is the one *Remote Memory-Deduplication Attacks*
demonstrates against VM hosts, transplanted to Medes: cross-tenant page
dedup makes a victim's memory *content* observable through the
attacker's own restore timing.  The attacker plants a sandbox whose
pages it controls and infers, from how that sandbox behaves when the
platform parks and restores it, whether the victim holds identical
pages.

Concretely, in Medes terms: when an attacker function's pages match a
victim base checkpoint, the attacker's idle sandbox deduplicates against
the victim's base (high trial savings) and its *next* invocation is a
DEDUP start — a restore that fetches base pages and applies patches,
hundreds of milliseconds.  When nothing matches, the trial dedup saves
too little, the platform demarcates the attacker's sandbox as a fresh
base instead, and the next invocation is a WARM start — effectively
instant.  The start-latency gap is the leak.

The scenario is fully deterministic (counter-keyed jitter draws in the
style of :mod:`repro.faults.retry`) and paired: every probe round
launches one *hit probe* (a fresh function whose library set matches the
victim's — the planted guess is right) and one *miss probe* (a fresh
function importing a per-round unique guess library — the planted guess
is wrong).  Rounds are spaced wider than the scenario's keep-alive +
keep-dedup windows, so each round's probes find the attacker's dedup
domain empty of prior probe state and face only the victim's.

The measurement is the **distinguishing accuracy** between the hit- and
miss-probe second-invocation startup latencies: ~1.0 under global
sharing (``dedup_domains=off``, a measurable channel) and ~0.5 — a coin
flip — under ``per_tenant`` domains, where both probes see an empty
domain and behave identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro._util import rng_for
from repro.core.policy import MedesPolicyConfig
from repro.platform.config import ClusterConfig
from repro.platform.metrics import RunMetrics, StartType
from repro.platform.platform import PlatformKind, RunReport, build_platform
from repro.tenancy.domains import TenantConfig
from repro.workload.functionbench import FunctionBenchSuite, FunctionProfile
from repro.workload.trace import Trace

#: Tenant labels of the two parties.
VICTIM_TENANT = "victim"
ATTACKER_TENANT = "attacker"

#: The victim runs an RNN-serving-style function: a large read-mostly ML
#: library (torch) is exactly the content a dedup channel leaks best.
VICTIM_LIBRARIES = ("torch",)
VICTIM_MEMORY_MB = 90.0


@dataclass(frozen=True)
class AttackConfig:
    """Shape of the probe workload (all times in simulated ms)."""

    rounds: int = 12
    """Paired probe rounds; each contributes one hit and one miss sample."""
    seed: int = 0
    """Keys every jitter draw; same seed, same trace, same RunMetrics."""
    nodes: int = 4
    idle_period_ms: float = 2_000.0
    """Short idle period so a probe is parked promptly after its first
    invocation (the scenario compresses Medes' default timescales)."""
    keep_alive_ms: float = 18_000.0
    keep_dedup_ms: float = 18_000.0
    alpha: float = 25.0
    """Loose latency bound so the optimizer always prefers parking idle
    sandboxes — the attack needs the platform to *take* the dedup path."""
    warmup_ms: float = 30_000.0
    """Victim-only traffic before round 0: time for the victim's base
    checkpoint to exist and settle."""
    victim_period_ms: float = 6_000.0
    """Victim arrival spacing — well inside keep-alive, so the victim's
    base sandbox stays resident for the whole scenario."""
    round_period_ms: float = 60_000.0
    """Round spacing; must exceed keep_alive + keep_dedup so each
    round's probes find no state left over from the previous round."""
    second_probe_delay_ms: float = 12_000.0
    """Gap between a probe's planting invocation and its measurement
    invocation: wide enough for cold start + exec + idle period + the
    dedup/demarcation op, narrow enough to beat keep-alive."""
    probe_exec_ms: float = 200.0
    probe_cold_start_ms: float = 1_500.0
    jitter_ms: float = 200.0
    """Bound on the per-arrival uniform jitter (counter-keyed draws)."""

    def __post_init__(self) -> None:
        if self.rounds <= 0:
            raise ValueError("rounds must be positive")
        if self.round_period_ms <= self.keep_alive_ms + self.keep_dedup_ms:
            raise ValueError(
                "round_period_ms must exceed keep_alive_ms + keep_dedup_ms "
                "(probe state must drain between rounds)"
            )
        if self.second_probe_delay_ms >= self.keep_alive_ms:
            raise ValueError("second probe must land inside keep-alive")


@dataclass(frozen=True)
class ProbeObservation:
    """What the attacker measures for one probe function."""

    round_index: int
    kind: str
    """"hit" (guess matches the victim) or "miss" (guess is wrong)."""
    function: str
    second_start_type: str
    """Start type of the measurement invocation (the attacker observes
    this only through latency; recorded here for diagnostics)."""
    second_startup_ms: float
    """The attacker's actual observable: restore latency of the
    measurement invocation."""
    savings_fraction: float | None
    """Trial-dedup savings of the probe's park (None when the platform
    demarcated the probe as a base instead — the miss signature)."""


@dataclass(frozen=True)
class AttackResult:
    """One full scenario run under one domain policy."""

    mode: str
    observations: tuple[ProbeObservation, ...]
    leak_accuracy: float
    """Best-threshold distinguishing accuracy between hit and miss
    startup latencies (0.5 = indistinguishable, 1.0 = perfect leak)."""
    mean_hit_startup_ms: float
    mean_miss_startup_ms: float
    report: RunReport = field(repr=False)


def victim_profile() -> FunctionProfile:
    return FunctionProfile(
        name="Victim",
        description="Victim tenant's model-serving function",
        libraries=VICTIM_LIBRARIES,
        exec_time_ms=300,
        memory_mb=VICTIM_MEMORY_MB,
        cold_start_ms=2_000,
        exec_cv=0.05,
    )


def probe_profiles(config: AttackConfig) -> list[FunctionProfile]:
    """One fresh (hit, miss) probe pair per round.

    Fresh functions each round keep the channel clean: a reused probe
    would match its *own* earlier base from round r-1 and report a hit
    whatever the victim holds.  The hit probe imports the victim's exact
    library set at the victim's footprint (the guess is the victim's
    content); the miss probe plants a per-round unique guess library
    instead, so its pages match no victim base page.
    """
    profiles = []
    for round_index in range(config.rounds):
        for kind, libraries in (
            ("hit", VICTIM_LIBRARIES),
            ("miss", (f"guess-{round_index}",)),
        ):
            profiles.append(
                FunctionProfile(
                    name=probe_name(kind, round_index),
                    description=f"Attacker {kind} probe, round {round_index}",
                    libraries=libraries,
                    exec_time_ms=config.probe_exec_ms,
                    memory_mb=VICTIM_MEMORY_MB,
                    cold_start_ms=config.probe_cold_start_ms,
                    exec_cv=0.05,
                )
            )
    return profiles


def probe_name(kind: str, round_index: int) -> str:
    return f"probe-{kind}-{round_index}"


def build_attack_suite(config: AttackConfig) -> FunctionBenchSuite:
    return FunctionBenchSuite(
        profiles=tuple([victim_profile()] + probe_profiles(config))
    )


def build_attack_trace(config: AttackConfig) -> Trace:
    """The deterministic probe schedule, tenant-labelled.

    Victim traffic runs steadily for the whole scenario.  Round ``r``
    starts at ``warmup + r * round_period``: each probe is invoked once
    to plant its pages (cold start, then parked by the idle machinery)
    and once more after ``second_probe_delay_ms`` to measure the restore
    path the platform chose for it.  All jitter is counter-keyed on
    ``(seed, round, probe kind, arrival index)`` — same config, same
    trace, bit for bit.
    """

    def jitter(*key: object) -> float:
        rng = rng_for("attack-jitter", config.seed, *key)
        return float(rng.uniform(0.0, config.jitter_ms))

    arrivals: list[tuple[float, str, str]] = []
    end_ms = config.warmup_ms + config.rounds * config.round_period_ms
    count = int(end_ms // config.victim_period_ms) + 1
    for index in range(count):
        arrivals.append(
            (
                index * config.victim_period_ms + jitter("victim", index),
                "Victim",
                VICTIM_TENANT,
            )
        )
    for round_index in range(config.rounds):
        start = config.warmup_ms + round_index * config.round_period_ms
        for offset, kind in ((0.0, "hit"), (400.0, "miss")):
            function = probe_name(kind, round_index)
            arrivals.append(
                (
                    start + offset + jitter(round_index, kind, 0),
                    function,
                    ATTACKER_TENANT,
                )
            )
            arrivals.append(
                (
                    start
                    + offset
                    + config.second_probe_delay_ms
                    + jitter(round_index, kind, 1),
                    function,
                    ATTACKER_TENANT,
                )
            )
    return Trace.from_arrivals(arrivals)


def distinguishing_accuracy(
    hit_values: tuple[float, ...], miss_values: tuple[float, ...]
) -> float:
    """Best-threshold balanced accuracy at telling the two sets apart.

    The attacker's decision rule is a latency threshold; this scores the
    best one (either polarity).  0.5 means the distributions carry no
    information; 1.0 means a threshold separates them perfectly.
    """
    if not hit_values or not miss_values:
        return 0.5
    thresholds = [float("-inf")] + sorted(set(hit_values) | set(miss_values))
    best = 0.5
    for threshold in thresholds:
        above = sum(1 for v in hit_values if v > threshold) / len(hit_values)
        below = sum(1 for v in miss_values if v <= threshold) / len(miss_values)
        balanced = (above + below) / 2.0
        best = max(best, balanced, 1.0 - balanced)
    return best


def run_attack(
    dedup_domains: TenantConfig, config: AttackConfig | None = None
) -> AttackResult:
    """Replay the probe scenario under one domain policy."""
    config = config or AttackConfig()
    suite = build_attack_suite(config)
    trace = build_attack_trace(config)
    cluster = ClusterConfig(
        nodes=config.nodes,
        seed=config.seed,
        dedup_domains=dedup_domains,
    )
    platform = build_platform(
        PlatformKind.MEDES,
        cluster,
        suite,
        medes=MedesPolicyConfig(
            alpha=config.alpha,
            idle_period_ms=config.idle_period_ms,
            keep_alive_ms=config.keep_alive_ms,
            keep_dedup_ms=config.keep_dedup_ms,
        ),
    )
    report = platform.run(trace)
    observations = extract_observations(report.metrics, config)
    hits = tuple(o.second_startup_ms for o in observations if o.kind == "hit")
    misses = tuple(o.second_startup_ms for o in observations if o.kind == "miss")
    return AttackResult(
        mode=dedup_domains.mode.value,
        observations=observations,
        leak_accuracy=distinguishing_accuracy(hits, misses),
        mean_hit_startup_ms=sum(hits) / len(hits) if hits else 0.0,
        mean_miss_startup_ms=sum(misses) / len(misses) if misses else 0.0,
        report=report,
    )


def extract_observations(
    metrics: RunMetrics, config: AttackConfig
) -> tuple[ProbeObservation, ...]:
    """Pull each probe's measurement invocation out of the run record."""
    by_function: dict[str, list] = {}
    for record in metrics.requests.values():
        by_function.setdefault(record.function, []).append(record)
    savings_of: dict[str, float] = {}
    for op in metrics.dedup_ops:
        savings_of[op.function] = op.savings_fraction
    observations = []
    for round_index in range(config.rounds):
        for kind in ("hit", "miss"):
            function = probe_name(kind, round_index)
            records = sorted(
                by_function.get(function, ()), key=lambda r: r.arrival_ms
            )
            if len(records) < 2 or records[1].start_type is None:
                continue  # measurement invocation never completed
            second = records[1]
            observations.append(
                ProbeObservation(
                    round_index=round_index,
                    kind=kind,
                    function=function,
                    second_start_type=second.start_type.value
                    if isinstance(second.start_type, StartType)
                    else str(second.start_type),
                    second_startup_ms=second.startup_ms or 0.0,
                    savings_fraction=savings_of.get(function),
                )
            )
    return tuple(observations)
