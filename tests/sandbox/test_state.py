"""Tests for the sandbox lifecycle state machine (Figure 4b)."""

from __future__ import annotations

import pytest

from repro.sandbox.state import (
    InvalidTransition,
    SandboxState,
    allowed_transitions,
    check_transition,
)

LEGAL = [
    (SandboxState.SPAWNING, SandboxState.RUNNING),
    (SandboxState.SPAWNING, SandboxState.WARM),
    (SandboxState.SPAWNING, SandboxState.PURGED),
    (SandboxState.RUNNING, SandboxState.WARM),
    (SandboxState.WARM, SandboxState.RUNNING),
    (SandboxState.WARM, SandboxState.DEDUPING),
    (SandboxState.WARM, SandboxState.PURGED),
    (SandboxState.DEDUPING, SandboxState.DEDUP),
    (SandboxState.DEDUPING, SandboxState.WARM),
    (SandboxState.DEDUP, SandboxState.RESTORING),
    (SandboxState.DEDUP, SandboxState.PURGED),
    (SandboxState.RESTORING, SandboxState.RUNNING),
    (SandboxState.RESTORING, SandboxState.WARM),
]


@pytest.mark.parametrize("current,new", LEGAL)
def test_legal_transitions(current, new):
    check_transition(current, new)  # must not raise


def test_illegal_transitions_exhaustive():
    legal = set(LEGAL)
    for current in SandboxState:
        for new in SandboxState:
            if (current, new) in legal:
                continue
            with pytest.raises(InvalidTransition):
                check_transition(current, new)


def test_purged_is_terminal():
    assert allowed_transitions(SandboxState.PURGED) == frozenset()


def test_figure_4b_key_paths():
    """The paper's lifecycle: warm -> dedup -> restore -> running -> warm."""
    path = [
        SandboxState.SPAWNING,
        SandboxState.RUNNING,
        SandboxState.WARM,
        SandboxState.DEDUPING,
        SandboxState.DEDUP,
        SandboxState.RESTORING,
        SandboxState.RUNNING,
        SandboxState.WARM,
        SandboxState.PURGED,
    ]
    for current, new in zip(path, path[1:]):
        check_transition(current, new)


def _having(flag: str) -> set[SandboxState]:
    return {state for state in SandboxState if getattr(state, flag)}


def test_assignable_states():
    assert _having("assignable") == {SandboxState.WARM, SandboxState.DEDUP}


def test_full_footprint_states():
    assert _having("full_footprint") == {
        SandboxState.SPAWNING,
        SandboxState.RUNNING,
        SandboxState.WARM,
        SandboxState.DEDUPING,
    }


def test_population_flags():
    """The counters of the controller's index are sums of these."""
    assert _having("live") == set(SandboxState) - {
        SandboxState.SPAWNING,
        SandboxState.PURGED,
    }
    assert _having("dedup") == {SandboxState.DEDUPING, SandboxState.DEDUP}
    assert _having("census_warm") == {SandboxState.WARM, SandboxState.RUNNING}
