"""Retry discipline (timeouts, jittered backoff) and the seeded
transient-RPC failure model."""

from __future__ import annotations

import pytest

from repro._util import rng_for
from repro.faults.retry import (
    BACKOFF_BASE_MS,
    BACKOFF_CAP_MS,
    JITTER,
    MAX_ATTEMPTS,
    TIMEOUT_MS,
    TransientFaults,
    backoff_ms,
)


class TestRetryPolicy:
    def test_defaults_valid(self):
        assert MAX_ATTEMPTS >= 1
        assert 0 < TIMEOUT_MS and 0 < BACKOFF_BASE_MS < BACKOFF_CAP_MS
        assert 0.0 <= JITTER < 1.0

    def test_backoff_doubles_until_cap(self):
        # A draw of 0.5 is the jitter's midpoint: no jitter at all.
        assert backoff_ms(0, 0.5) == 5.0
        assert backoff_ms(1, 0.5) == 10.0
        assert backoff_ms(5, 0.5) == 160.0
        assert backoff_ms(6, 0.5) == 200.0  # capped, not 320
        assert backoff_ms(9, 0.5) == 200.0

    def test_backoff_jitter_bounds(self):
        low = backoff_ms(0, 0.0)
        high = backoff_ms(0, 1.0 - 1e-12)
        assert low == pytest.approx(4.0)
        assert high == pytest.approx(6.0)

    def test_backoff_rejects_negative_index(self):
        with pytest.raises(ValueError):
            backoff_ms(-1, 0.5)


class TestTransientFaults:
    def test_zero_probability_never_fails_or_draws_rng(self):
        model = TransientFaults(0.0, seed=1)
        for _ in range(100):
            plan = model.plan("restore-fetch")
            assert plan.succeeded and plan.attempts == 0 and plan.charged_ms == 0.0
        assert model.retried_attempts == 0
        assert model.charged_backoff_ms == 0.0
        assert model.exhausted_ops == 0

    def test_deterministic_across_instances(self):
        a = TransientFaults(0.4, seed=7)
        b = TransientFaults(0.4, seed=7)
        plans_a = [a.plan("op") for _ in range(50)]
        plans_b = [b.plan("op") for _ in range(50)]
        assert plans_a == plans_b
        assert a.retried_attempts == b.retried_attempts
        assert a.charged_backoff_ms == b.charged_backoff_ms

    def test_seed_and_op_change_the_stream(self):
        base = [TransientFaults(0.4, seed=7).plan("op") for _ in range(1)]
        other_seed = [
            TransientFaults(0.4, seed=8).plan("op") for _ in range(1)
        ]
        # Over many draws the streams must diverge somewhere.
        a = TransientFaults(0.4, seed=7)
        b = TransientFaults(0.4, seed=8)
        assert [a.plan("op") for _ in range(50)] != [b.plan("op") for _ in range(50)]
        del base, other_seed

    def test_exhaustion_charges_all_attempts(self):
        model = TransientFaults(0.999, seed=3)
        plan = model.plan("registry-lookup")
        assert not plan.succeeded
        assert plan.attempts == MAX_ATTEMPTS
        # Every attempt's draw fails it; the draw after each failed
        # attempt but the last jitters that attempt's backoff.
        draws = rng_for("transient-rpc", 3, "registry-lookup", 1).random(2 * MAX_ATTEMPTS)
        assert all(draws[0::2] < 0.999)
        backoffs = sum(backoff_ms(i, float(draws[2 * i + 1])) for i in range(MAX_ATTEMPTS - 1))
        assert plan.charged_ms == pytest.approx(MAX_ATTEMPTS * TIMEOUT_MS + backoffs)
        assert model.exhausted_ops == 1

    def test_counters_accumulate(self):
        model = TransientFaults(0.5, seed=11)
        plans = [model.plan("op") for _ in range(200)]
        failed_attempts = sum(p.attempts for p in plans)
        assert model.retried_attempts == failed_attempts
        assert model.charged_backoff_ms == pytest.approx(
            sum(p.charged_ms for p in plans)
        )
        assert model.exhausted_ops == sum(1 for p in plans if not p.succeeded)
        assert 0 < failed_attempts  # p=0.5 over 200 ops must fail sometimes

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            TransientFaults(1.0, seed=0)
