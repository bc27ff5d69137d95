"""Two platforms replayed in one process, one simulator event at a time.

A run's output must depend on its ``(config, trace, seed)`` alone, not
on what else the process runs: the controller numbers its sandboxes and
the checkpoint store its checkpoints, per run.  This test replays two
control-plane golden scenarios in two threads that hand a baton around
every scheduled callback, so the runs alternate event by event, and
checks that each still reproduces its golden request by request.
``eviction_order/random`` is one of the two because its victim order is
seeded by absolute sandbox ids.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.platform.report_io import report_to_dict
from repro.sim import engine
from tests.platform.test_control_plane_equivalence import GOLDEN, _by_name, build_scenario

SCENARIOS = ("eviction_order/random", "pressure/starvation")

#: Longest wait for the other replay's turn, and for a replay to end,
#: before the test gives up.
_TURN_TIMEOUT_S = 60.0
_JOIN_TIMEOUT_S = 300.0


class Baton:
    """Strict turn-taking between two replay threads, one callback per
    turn; once one replay is over, the other runs on alone."""

    def __init__(self):
        self._cond = threading.Condition()
        self._turn = 0
        self._done = [False, False]
        self._local = threading.local()
        self.order: list[int] = []
        """Replay index of every callback, in execution order."""

    def enter(self, index: int) -> None:
        """Bind the calling thread to replay ``index``."""
        self._local.index = index

    def _pass_on(self, index: int) -> None:
        if not self._done[1 - index]:
            self._turn = 1 - index
        self._cond.notify_all()

    def run(self, callback) -> None:
        index = self._local.index
        with self._cond:
            if not self._cond.wait_for(lambda: self._turn == index, _TURN_TIMEOUT_S):
                raise TimeoutError(f"replay {index} never got the baton")
        try:
            self.order.append(index)
            callback()
        finally:
            with self._cond:
                self._pass_on(index)

    def leave(self) -> None:
        index = self._local.index
        with self._cond:
            self._done[index] = True
            self._pass_on(index)


def replay_interleaved(runs, monkeypatch) -> tuple[list, Baton]:
    """Replay two ``(platform, trace)`` pairs in threads, alternating events."""
    baton = Baton()

    class BatonTimer(engine.Timer):
        __slots__ = ()

        def __init__(self, time, callback, sim):
            super().__init__(time, lambda: baton.run(callback), sim)

    monkeypatch.setattr(engine, "Timer", BatonTimer)
    reports: list = [None, None]
    errors: list[Exception] = []

    def replay(index: int) -> None:
        baton.enter(index)
        platform, trace = runs[index]
        try:
            reports[index] = platform.run(trace)
        except Exception as exc:  # noqa: BLE001 — re-raised in the test thread
            errors.append(exc)
        finally:
            baton.leave()

    threads = [threading.Thread(target=replay, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=_JOIN_TIMEOUT_S)
        assert not thread.is_alive(), "replay thread did not finish"
    if errors:
        raise errors[0]
    return reports, baton


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_interleaved_replays_match_their_goldens(golden, monkeypatch):
    runs = [build_scenario(name)[:2] for name in SCENARIOS]
    reports, baton = replay_interleaved(runs, monkeypatch)

    # The replays really alternated while both were running.
    counts = [baton.order.count(index) for index in (0, 1)]
    both = 2 * min(counts)
    assert min(counts) > 0
    assert baton.order[:both] == [0, 1] * min(counts)

    for name, report in zip(SCENARIOS, reports):
        got = dict(_by_name(report_to_dict(report, include_requests=True)))
        assert got == dict(_by_name(golden[name])), name
