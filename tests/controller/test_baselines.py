"""Tests for the keep-alive baseline policies."""

from __future__ import annotations

import pytest

from repro.controller.baselines import (
    ADAPTIVE_DEFAULT_KEEP_ALIVE_MS,
    ADAPTIVE_MAX_MS,
    ADAPTIVE_MIN_MS,
    AdaptiveKeepAlivePolicy,
    FixedKeepAlivePolicy,
)
from repro.core.policy import Decision


class TestFixedKeepAlive:
    def test_constant_window(self):
        policy = FixedKeepAlivePolicy(600_000.0)
        assert policy.keep_alive_ms("any", 0.0) == 600_000.0
        assert policy.keep_alive_ms("other", 1e9) == 600_000.0

    def test_never_dedups(self):
        policy = FixedKeepAlivePolicy()
        assert policy.idle_period_ms("f") is None
        assert policy.decide_idle("f", None) is Decision.KEEP_WARM
        with pytest.raises(RuntimeError):
            policy.keep_dedup_ms("f")

    def test_no_prewarm(self):
        assert FixedKeepAlivePolicy().prewarm_delay_ms("f", 0.0) is None

    def test_name_includes_period(self):
        assert FixedKeepAlivePolicy(300_000.0).name == "fixed-ka-5min"

    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            FixedKeepAlivePolicy(0.0)


class TestAdaptiveKeepAlive:
    def test_default_until_enough_samples(self):
        policy = AdaptiveKeepAlivePolicy()
        policy.on_arrival("f", 0.0)
        policy.on_arrival("f", 60_000.0)
        assert policy.keep_alive_ms("f", 60_000.0) == ADAPTIVE_DEFAULT_KEEP_ALIVE_MS

    def test_window_tracks_interarrivals(self):
        policy = AdaptiveKeepAlivePolicy()
        for i in range(20):
            policy.on_arrival("f", i * 120_000.0)  # 2-minute gaps
        window = policy.keep_alive_ms("f", 20 * 120_000.0)
        # p75 * margin of a 2-minute IT distribution: a few minutes.
        assert 60_000.0 <= window <= 4 * 120_000.0

    def test_window_bounds_respected(self):
        policy = AdaptiveKeepAlivePolicy()
        for i in range(20):
            policy.on_arrival("tight", i * 100.0)  # 100 ms gaps
        assert policy.keep_alive_ms("tight", 2_000.0) == ADAPTIVE_MIN_MS
        policy2 = AdaptiveKeepAlivePolicy()
        for i in range(20):
            policy2.on_arrival("sparse", i * 3_600_000.0)  # hourly
        assert policy2.keep_alive_ms("sparse", 1e9) == ADAPTIVE_MAX_MS

    def test_functions_independent(self):
        policy = AdaptiveKeepAlivePolicy()
        for i in range(20):
            policy.on_arrival("a", i * 60_000.0)
        assert policy.keep_alive_ms("b", 0.0) == ADAPTIVE_DEFAULT_KEEP_ALIVE_MS

    def test_never_dedups(self):
        policy = AdaptiveKeepAlivePolicy()
        assert policy.idle_period_ms("f") is None
        assert policy.decide_idle("f", None) is Decision.KEEP_WARM


class TestAdaptivePrewarm:
    def test_regular_function_gets_prewarm(self):
        policy = AdaptiveKeepAlivePolicy()
        for i in range(20):
            policy.on_arrival("cron", i * 300_000.0)  # exact 5-minute timer
        last = 19 * 300_000.0
        delay = policy.prewarm_delay_ms("cron", last + 60_000.0)
        assert delay is not None
        # Fires ~2 s before the predicted next arrival.
        predicted = last + 300_000.0
        assert (last + 60_000.0) + delay == pytest.approx(predicted - 2_000.0, rel=0.05)

    def test_irregular_function_not_prewarmed(self):
        policy = AdaptiveKeepAlivePolicy()
        gaps = [1_000.0, 600_000.0, 5_000.0, 900_000.0, 2_000.0, 700_000.0, 1_000.0]
        t = 0.0
        for gap in gaps:
            policy.on_arrival("bursty", t)
            t += gap
        assert policy.prewarm_delay_ms("bursty", t) is None

    def test_insufficient_history_not_prewarmed(self):
        policy = AdaptiveKeepAlivePolicy()
        policy.on_arrival("new", 0.0)
        assert policy.prewarm_delay_ms("new", 1_000.0) is None

    def test_past_prediction_not_prewarmed(self):
        policy = AdaptiveKeepAlivePolicy()
        for i in range(20):
            policy.on_arrival("cron", i * 300_000.0)
        far_future = 19 * 300_000.0 + 10 * 300_000.0
        assert policy.prewarm_delay_ms("cron", far_future) is None
