"""The dedup op one page at a time.

:func:`dedup_reference` is the original page-at-a-time loop of
``DedupAgent`` — per-page fingerprints, per-page registry calls, per-page
base fetches straight from the store, patches from the scalar codec
oracle — written out independently of the agent's ``_DedupOp`` on
purpose.  It is the ground truth the batched pipeline is property-tested
against (``tests/core/test_batch_equivalence.py``) and the baseline
``benchmarks/bench_dedup_throughput.py`` times it against.  It decides
each page's kind and patch itself; only the tail — refcounts, the page
table's columns built from those decisions, the timings — is the
agent's own.  It keeps no memo and reads none: a restored sandbox's
``kept_choices`` is ignored, so a re-dedup that starts from them is
held to it too (``tests/core/test_redup_memo.py``).
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.agent import (
    UNIQUE_THRESHOLD,
    DedupAgent,
    DedupOutcome,
    DedupStats,
    PageKind,
)
from repro.memory.fingerprint import page_fingerprint
from repro.sandbox.sandbox import Sandbox
from tests.oracles.patch_scalar import compute_patch_reference


def dedup_reference(agent: DedupAgent, sandbox: Sandbox) -> DedupOutcome:
    """``agent.dedup(sandbox)``, one page at a time.

    Semantically identical to ``DedupAgent.dedup``, with the same side
    effects on the agent (refcounts, op counter).
    """
    image = sandbox.image
    if image is None:
        raise RuntimeError(f"sandbox {sandbox.sandbox_id} has no image to dedup")

    page_size = image.page_size
    unique_cap = int(UNIQUE_THRESHOLD * page_size)
    kinds: list[PageKind] = []
    patched: list[tuple[int, int, int, int]] = []
    patches: list = []
    base_refs: Counter[int] = Counter()
    reads_by_peer: Counter[int] = Counter()
    zero_pages = unique_pages = patched_pages = 0
    same_fn = cross_fn = 0
    saved = 0

    for index in range(image.num_pages):
        page = image.page(index)
        if not page.any():
            kinds.append(PageKind.ZERO)
            zero_pages += 1
            saved += page_size
            continue
        fingerprint = page_fingerprint(page, agent.fingerprint_config)
        choice = agent.registry.choose_base_page(fingerprint, agent.node_id, sandbox.domain)
        if choice is None:
            kinds.append(PageKind.UNIQUE)
            unique_pages += 1
            continue
        ref, _overlap = choice
        if ref.node_id != agent.node_id and not agent.fabric.peer_available(ref.node_id):
            # The base's node is unreachable: keep the page unique
            # rather than depend on state we cannot read back.
            kinds.append(PageKind.UNIQUE)
            unique_pages += 1
            continue
        reads_by_peer[ref.node_id] += 1
        base_page = agent.store.get(ref.checkpoint_id).image.page_bytes(ref.page_index)
        patch = compute_patch_reference(page, base_page, level=agent.patch_level)
        if patch.size_bytes >= unique_cap:
            kinds.append(PageKind.UNIQUE)
            unique_pages += 1
            continue
        kinds.append(PageKind.PATCHED)
        patched.append((index, ref.checkpoint_id, ref.node_id, ref.page_index))
        patches.append(patch)
        patched_pages += 1
        saved += page_size - patch.size_bytes
        base_refs[ref.checkpoint_id] += 1
        if agent.store.get(ref.checkpoint_id).function == sandbox.function:
            same_fn += 1
        else:
            cross_fn += 1

    stats = DedupStats(
        total_pages=image.num_pages,
        zero_pages=zero_pages,
        unique_pages=unique_pages,
        patched_pages=patched_pages,
        same_function_pages=same_fn,
        cross_function_pages=cross_fn,
        saved_content_bytes=saved,
        image_content_bytes=image.nbytes,
    )
    return agent._finish_dedup(
        sandbox,
        image,
        np.array(kinds, dtype=np.uint8),
        np.array(patched, dtype=np.int64).reshape(-1, 4).T.copy(),
        tuple(patches),
        stats,
        base_refs,
        reads_by_peer,
    )
