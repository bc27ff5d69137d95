"""The peak-rate estimate one arrival at a time.

:func:`peak_rate_reference` is ``FunctionStats.peak_rate``'s original
loop: trim the arrivals older than the rate window, then slide a deque
over them, one arrival at a time, and keep its longest length.  It is
kept as the definition the one-``searchsorted`` estimator is
property-tested against (``tests/core/test_policy.py``).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable

from repro.core.policy import RATE_SUBWINDOW_MS, RATE_WINDOW_MS


def peak_rate_reference(arrivals: Iterable[float], now: float) -> float:
    """lambda_max (req/ms) of sorted ``arrivals`` seen at ``now``."""
    kept = deque(arrivals)
    while kept and kept[0] < now - RATE_WINDOW_MS:
        kept.popleft()
    best = 0
    window: deque = deque()
    for t in kept:
        window.append(t)
        while window and window[0] < t - RATE_SUBWINDOW_MS:
            window.popleft()
        best = max(best, len(window))
    return best / RATE_SUBWINDOW_MS
