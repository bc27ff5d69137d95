"""Tests for the Medes sandbox-management policy and its estimators."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.optimizer import Objective
from repro.core.policy import (
    RATE_SUBWINDOW_MS,
    RATE_WINDOW_MS,
    ClusterView,
    Decision,
    FunctionStats,
    MedesPolicy,
    MedesPolicyConfig,
)
from tests.oracles.policy_rates import peak_rate_reference

#: Gaps between arrivals: ties, exactly one sub-window or one rate
#: window, or anything up to past the window.  Whole milliseconds, so a
#: gap of one (sub-)window lands exactly on its boundary.
_GAPS = st.one_of(
    st.just(0), st.just(int(RATE_SUBWINDOW_MS)), st.just(int(RATE_WINDOW_MS)),
    st.integers(0, 2 * int(RATE_SUBWINDOW_MS)),
)


@pytest.fixture
def stats(suite) -> dict[str, FunctionStats]:
    return {p.name: FunctionStats(profile=p) for p in suite}


def make_view(**overrides) -> ClusterView:
    base = dict(
        now=60_000.0,
        live_counts={"LinAlg": 4},
        dedup_counts={"LinAlg": 0},
        used_bytes=1 << 30,
        capacity_bytes=4 << 30,
        function_stats={},
    )
    base.update(overrides)
    return ClusterView(**base)


def make_policy(stats, **config_overrides) -> MedesPolicy:
    config = MedesPolicyConfig(**config_overrides)
    return MedesPolicy(config, warm_start_ms=10.0, stats=stats)


class TestFunctionStats:
    def test_rates_from_arrivals(self, linalg_profile):
        stats = FunctionStats(profile=linalg_profile)
        for t in range(0, 60_000, 1000):  # 1 req/s for a minute
            stats.record_arrival(float(t))
        mean = stats.mean_rate(60_000.0)
        assert mean == pytest.approx(60 / 120_000.0)
        peak = stats.peak_rate(60_000.0)
        assert peak >= mean

    @given(gaps=st.lists(_GAPS, min_size=1, max_size=60), wait=_GAPS)
    def test_peak_rate_matches_the_sliding_loop(self, linalg_profile, gaps, wait):
        arrivals = [float(t) for t in itertools.accumulate(gaps)]
        now = arrivals[-1] + wait
        stats = FunctionStats(profile=linalg_profile)
        for t in arrivals:
            stats.record_arrival(t)
        assert stats.peak_rate(now) == peak_rate_reference(arrivals, now)

    def test_window_trimming(self, linalg_profile):
        stats = FunctionStats(profile=linalg_profile)
        stats.record_arrival(0.0)
        stats.record_arrival(500_000.0)
        assert len(stats.arrivals) == 1  # the old arrival fell out

    def test_ewma_moves_toward_observations(self, linalg_profile):
        stats = FunctionStats(profile=linalg_profile)
        prior = stats.dedup_start_ms
        stats.record_dedup_start(400.0)
        assert prior < stats.dedup_start_ms < 400.0

    def test_model_uses_measurements(self, linalg_profile):
        stats = FunctionStats(profile=linalg_profile)
        stats.record_retained_fraction(0.5)
        model = stats.model(0.0, warm_start_ms=10.0)
        assert model.warm_bytes == linalg_profile.memory_bytes
        assert model.dedup_bytes == int(stats.retained_fraction * model.warm_bytes)
        assert model.exec_ms == linalg_profile.exec_time_ms


class TestClusterView:
    def test_free_fraction(self):
        view = make_view(used_bytes=3 << 30, capacity_bytes=4 << 30)
        assert view.free_fraction == pytest.approx(0.25)

    def test_zero_capacity(self):
        view = make_view(capacity_bytes=0)
        assert view.free_fraction == 0.0


class TestMedesPolicyConfig:
    def test_memory_objective_requires_budget(self):
        with pytest.raises(ValueError, match="budget"):
            MedesPolicyConfig(objective=Objective.MEMORY)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            MedesPolicyConfig(alpha=0.5)

    def test_periods_validated(self):
        with pytest.raises(ValueError):
            MedesPolicyConfig(idle_period_ms=0)


class TestDecisions:
    def test_idle_function_with_spare_capacity_dedups(self, stats):
        """Many live sandboxes and almost no traffic: dedup some."""
        policy = make_policy(stats, alpha=20.0)
        stats["LinAlg"].record_arrival(59_000.0)  # trickle of traffic
        decision = policy.decide_idle("LinAlg", make_view(live_counts={"LinAlg": 6}))
        assert decision is Decision.DEDUP

    def test_enough_dedups_keeps_warm(self, stats):
        policy = make_policy(stats, alpha=20.0)
        stats["LinAlg"].record_arrival(59_000.0)
        view = make_view(live_counts={"LinAlg": 6}, dedup_counts={"LinAlg": 6})
        assert policy.decide_idle("LinAlg", view) is Decision.KEEP_WARM

    def test_tight_alpha_keeps_warm(self, stats):
        """A tight latency bound forbids dedup starts for busy functions."""
        policy = make_policy(stats, alpha=1.05)
        for t in range(0, 60_000, 200):  # 5 req/s: heavily loaded
            stats["LinAlg"].record_arrival(float(t))
        view = make_view(live_counts={"LinAlg": 3}, dedup_counts={"LinAlg": 0})
        assert policy.decide_idle("LinAlg", view) is Decision.KEEP_WARM

    def test_memory_pressure_forces_dedup(self, stats):
        policy = make_policy(stats, alpha=1.05)
        for t in range(0, 60_000, 200):
            stats["LinAlg"].record_arrival(float(t))
        pressured = make_view(
            live_counts={"LinAlg": 3},
            used_bytes=int(3.9 * (1 << 30)),
            capacity_bytes=4 << 30,
        )
        assert policy.decide_idle("LinAlg", pressured) is Decision.DEDUP

    @pytest.mark.parametrize("templates", [False, True])
    def test_registry_outage_keeps_warm_unless_a_template_parks(self, stats, templates):
        """Under pressure the policy would dedup.  With a registry shard
        down it keeps the sandbox warm, or parks it as a template where a
        catalog exists: the controller asks the policy and has no guard
        of its own (DESIGN.md §11)."""
        policy = make_policy(stats, alpha=1.05)
        for t in range(0, 60_000, 200):
            stats["LinAlg"].record_arrival(float(t))
        outage = make_view(
            live_counts={"LinAlg": 3},
            used_bytes=int(3.9 * (1 << 30)),
            registry_available=False,
            templates_available=templates,
        )
        expected = Decision.TEMPLATE if templates else Decision.KEEP_WARM
        assert policy.decide_idle("LinAlg", outage) is expected

    def test_no_live_sandboxes_keeps_warm(self, stats):
        policy = make_policy(stats)
        view = make_view(live_counts={})
        assert policy.decide_idle("LinAlg", view) is Decision.KEEP_WARM

    def test_decisions_are_logged(self, stats):
        policy = make_policy(stats)
        policy.decide_idle("LinAlg", make_view())
        assert len(policy.decisions) == 1

    def test_memory_objective_budget_split(self, stats):
        budget = 2 << 30
        policy = make_policy(
            stats, objective=Objective.MEMORY, memory_budget_bytes=budget
        )
        other = next(name for name in stats if name != "LinAlg")
        stats["LinAlg"].record_arrival(50_000.0)
        for t in (51_000.0, 52_000.0, 53_000.0):
            stats[other].record_arrival(t)
        view = make_view(function_stats=stats)
        assert view.rate_share("LinAlg") == pytest.approx(0.25)
        assert policy._function_budget("LinAlg", view) == pytest.approx(budget * 0.25)

    def test_inactive_function_gets_minimal_budget(self, stats, linalg_profile):
        policy = make_policy(
            stats, objective=Objective.MEMORY, memory_budget_bytes=2 << 30
        )
        view = make_view(function_stats=stats)  # nothing arrived yet
        assert policy._function_budget("LinAlg", view) == float(
            linalg_profile.memory_bytes
        )


class TestLifecycleParameters:
    def test_periods_exposed(self, stats):
        policy = make_policy(
            stats,
            idle_period_ms=1000.0,
            keep_alive_ms=2000.0,
            keep_dedup_ms=3000.0,
        )
        assert policy.idle_period_ms("LinAlg") == 1000.0
        assert policy.keep_alive_ms("LinAlg", 0.0) == 2000.0
        assert policy.keep_dedup_ms("LinAlg") == 3000.0
        assert policy.prewarm_delay_ms("LinAlg", 0.0) is None

    def test_on_arrival_feeds_stats(self, stats):
        policy = make_policy(stats)
        policy.on_arrival("LinAlg", 5_000.0)
        assert len(stats["LinAlg"].arrivals) == 1
