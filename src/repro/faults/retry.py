"""Timeout + bounded exponential backoff with jitter for intra-op RPCs.

Medes' restore path depends on two kinds of remote calls — base-page
fetches over the fabric and fingerprint-registry RPCs — and both can fail
transiently (dropped completion, queue-pair reset, shard fail-over).  The
client-side discipline is classic: each attempt is bounded by a timeout,
failed attempts back off exponentially with jitter, and after
:data:`MAX_ATTEMPTS` the op surfaces :class:`RetryExhausted` so the caller can
fall through its degradation ladder (replica → cold start).

Every millisecond spent retrying is *charged in the cost model as real
latency* — a run with transient faults is slower, not just noisier.

Determinism: :class:`TransientFaults` draws from a counter-keyed
``rng_for`` stream, so a given ``(seed, op kind, draw index)`` always
yields the same failure pattern and the same jittered backoff — runs are
reproducible bit-for-bit regardless of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro._util import rng_for


#: Client-side retry discipline for fabric and registry RPCs.
MAX_ATTEMPTS = 4
"""Total tries per op (first attempt included)."""
TIMEOUT_MS = 15.0
"""Per-attempt timeout charged when the attempt fails."""
BACKOFF_BASE_MS = 5.0
"""Backoff before the second attempt; doubles per further retry."""
BACKOFF_CAP_MS = 200.0
"""Upper bound on any single backoff interval."""
JITTER = 0.2
"""Relative jitter applied to each backoff (+-``JITTER`` fraction)."""


def backoff_ms(retry_index: int, unit: float) -> float:
    """Jittered backoff before retry ``retry_index`` (0-based).

    ``unit`` is a uniform draw in [0, 1) supplied by the caller so the
    jitter shares the op's deterministic random stream.
    """
    if retry_index < 0:
        raise ValueError("retry_index must be non-negative")
    base = min(BACKOFF_CAP_MS, BACKOFF_BASE_MS * 2.0**retry_index)
    return base * (1.0 + JITTER * (2.0 * unit - 1.0))


class RetryExhausted(RuntimeError):
    """Every attempt of a retried RPC timed out.

    ``charged_ms`` is the simulated time the caller already spent on the
    failed attempts — the controller charges it to the request before
    taking the next rung of the fallback ladder.
    """

    def __init__(self, op: str, attempts: int, charged_ms: float):
        super().__init__(f"{op}: all {attempts} attempts timed out")
        self.op = op
        self.attempts = attempts
        self.charged_ms = charged_ms


@dataclass(frozen=True)
class RetryOutcome:
    """Resolved retry plan for one op.

    ``attempts`` counts *failed* attempts (0 = first try succeeded);
    ``charged_ms`` is the timeout + backoff latency to add to the op;
    ``succeeded`` is False when the op must surface an error instead.
    """

    attempts: int
    charged_ms: float
    succeeded: bool


class TransientFaults:
    """Seeded per-op transient RPC failure model.

    Each :meth:`plan` call resolves one op's fate up front: how many
    attempts fail (an independent Bernoulli per attempt with the
    configured probability) and how much timeout/backoff latency the op
    accumulates.  Draws are keyed on a monotone counter, never on wall
    or simulated time, so the stream is identical across runs.
    """

    def __init__(self, probability: float, *, seed: int):
        if not 0.0 <= probability < 1.0:
            raise ValueError("transient failure probability must be in [0, 1)")
        self.probability = probability
        self.seed = seed
        self._draws = 0
        #: Cumulative counters surfaced into ``RunMetrics`` at run end.
        self.retried_attempts = 0
        self.charged_backoff_ms = 0.0
        self.exhausted_ops = 0

    def plan(self, op: str) -> RetryOutcome:
        """Resolve the retry plan for the next op of kind ``op``."""
        self._draws += 1
        if self.probability <= 0.0:
            return RetryOutcome(attempts=0, charged_ms=0.0, succeeded=True)
        rng = rng_for("transient-rpc", self.seed, op, self._draws)
        charged = 0.0
        for attempt in range(MAX_ATTEMPTS):
            if float(rng.random()) >= self.probability:
                if attempt:
                    self.retried_attempts += attempt
                    self.charged_backoff_ms += charged
                return RetryOutcome(attempts=attempt, charged_ms=charged, succeeded=True)
            charged += TIMEOUT_MS
            if attempt + 1 < MAX_ATTEMPTS:
                charged += backoff_ms(attempt, float(rng.random()))
        self.retried_attempts += MAX_ATTEMPTS
        self.charged_backoff_ms += charged
        self.exhausted_ops += 1
        return RetryOutcome(attempts=MAX_ATTEMPTS, charged_ms=charged, succeeded=False)
