"""A dedup op builds no per-pair object.

The registry hands an op its base choices as columns
(``choose_base_pages``), and the op filters, counts and tables the
chosen pairs as columns too: the unreachable-peer rule runs once per
node, the accept rule is a mask over the outcome sizes.  A
:class:`PageRef` per chosen pair would be per-page Python coming back,
so this counts the refs made during ops that choose hundreds of pairs —
a first op and a re-dedup from its memo — and wants none.
"""

from __future__ import annotations

from repro.core.registry import PageRef
from tests.core import test_batch_equivalence
from tests.core.test_batch_equivalence import _build_agents, _make_sandbox


def test_a_dedup_op_builds_no_page_refs(suite, monkeypatch):
    # Images at 16x the tests' usual scale: an op chooses hundreds of pairs.
    scale = 16 * test_batch_equivalence.TEST_SCALE
    monkeypatch.setattr(test_batch_equivalence, "TEST_SCALE", scale)
    agent, _ = _build_agents(suite, failed_node=2)  # one peer down: the rule runs
    made: list[PageRef] = []
    post_init = PageRef.__post_init__

    def counting(self: PageRef) -> None:
        made.append(self)
        post_init(self)

    monkeypatch.setattr(PageRef, "__post_init__", counting)
    sandbox = _make_sandbox(suite.get("LinAlg"), 300, False)
    first = agent.dedup(sandbox).table
    assert made == []
    assert len(first.memo.pairs) >= 200 and first.stats.patched_pages >= 100

    sandbox.image = agent.restore(first, verify=True).image
    sandbox.kept_choices = first.memo
    del made[:]
    again = agent.dedup(sandbox).table
    assert made == []
    assert len(again.memo.pairs) == len(first.memo.pairs)
