"""The global fingerprint registry (controller-side, Section 3.1 / 4.1).

The registry maps chunk digests (RSC hashes) to the base pages
containing them.  Only *base sandboxes'* pages populate it (Section
4.1.3), which keeps its footprint proportional to the number of base
checkpoints rather than the number of sandboxes.

Lookups serve the dedup op: given a page's value-sampled fingerprint,
the registry scores candidate base pages by how many of the sampled
chunks they share; the candidate sharing the most wins (ties prefer
pages local to the requesting node) and becomes the page's *base page*
(Section 4.1.2).

The digest table is columnar (DESIGN.md §18): per shard and per dedup
domain, :class:`_Rows` keeps a digest column and a ref-id column sorted
by ``(digest, insertion order)``, and ref ids index the registry's
:class:`_RefTable`.  A whole image registers with one vectorised insert
and is looked up in one array pass; the per-page calls
(``register_page`` / ``lookup`` / ``choose_base_page``) are batches of
one through the same code.  :class:`ShardedFingerprintRegistry` is the
same registry over several shards, a digest living on shard
``digest % n_shards``.

Stats discipline: page-level counters (``pages_registered``,
``page_lookups``, ``hits``) count *pages*, digest-level counters count
digests — on both registry variants, so the sharding ablation compares
like with like.

Tenancy (DESIGN.md §15): every table is partitioned by *dedup domain* —
registrations and lookups carry the requester's domain string, and a
lookup can only ever see refs registered under the same domain.  The
partition is structural (a separate row store per domain, never a
domain column to filter on), so a cross-domain :class:`PageRef` cannot
leak out of a lookup by construction; a checkpoint claiming two
different domains raises.  The default
:data:`~repro.tenancy.domains.GLOBAL_DOMAIN` ("" everywhere) collapses
to a single partition and reproduces the pre-tenancy registry
bit-identically.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro._util import concat_ranges, run_lengths, run_starts
from repro.memory.fingerprint import FingerprintConfig, PageFingerprint, digest_arrays
from repro.tenancy.domains import GLOBAL_DOMAIN

#: Reference size used for the registry's own memory accounting: digest
#: (8 B) + per-ref (node, checkpoint, page ~ 12 B) in a compact table.
_DIGEST_BYTES = 8
_REF_BYTES = 12

#: Rows of :attr:`_RefTable.columns` (the third is the page index).
_CHECKPOINT, _NODE = 0, 1


@dataclass(frozen=True)
class PageRef:
    """Cluster-wide address of one base page."""

    checkpoint_id: int
    node_id: int
    page_index: int

    def __post_init__(self) -> None:
        # Refs are hashed constantly (interning, result dicts);
        # precomputing beats re-tupling the fields each time.
        object.__setattr__(
            self, "_hash", hash((self.checkpoint_id, self.node_id, self.page_index))
        )

    def __hash__(self) -> int:
        return self._hash  # type: ignore[attr-defined]


@dataclass
class RegistryStats:
    """Counters for the Section-7.7 overhead analysis."""

    pages_registered: int = 0
    digests_registered: int = 0
    page_lookups: int = 0
    digest_lookups: int = 0
    hits: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of page lookups that found at least one candidate."""
        if self.page_lookups == 0:
            return 0.0
        return self.hits / self.page_lookups


class _RefTable:
    """The registry's directory of registered checkpoints.

    Holds each checkpoint's domain claim (the tenancy tripwire) and
    interns its page refs: a ref's dense id indexes ``columns`` — the
    ``(checkpoint_id, node_id, page_index)`` the kernel scores with —
    and ``refs``, the :class:`PageRef` objects handed back to callers.
    One id space serves every shard of a registry, so overlaps found on
    different shards add up; a retired checkpoint's ids are recycled.
    Front-end metadata, not shard state: it survives ``drop_shard``.
    """

    def __init__(self) -> None:
        self.refs: list[PageRef | None] = []
        self.columns = np.empty((3, 0), dtype=np.int64)
        self.domain_of: dict[int, str] = {}
        self._ids: dict[PageRef, int] = {}
        self._ids_of: dict[int, list[int]] = defaultdict(list)
        self._free: list[int] = []

    def claim(self, checkpoint_id: int, domain: str) -> None:
        existing = self.domain_of.setdefault(checkpoint_id, domain)
        if existing != domain:
            raise ValueError(
                f"checkpoint {checkpoint_id} is registered in domain "
                f"{existing!r}; refusing registration under {domain!r}"
            )

    def intern(self, refs: Sequence[PageRef]) -> np.ndarray:
        """Dense ids of ``refs``, allocating ids for unseen ones."""
        ids, table, free = self._ids, self.refs, self._free
        capacity = self.columns.shape[1]
        if len(table) + len(refs) > capacity:  # room even if every ref is new
            grown = np.empty((3, 2 * (len(table) + len(refs))), dtype=np.int64)
            grown[:, :capacity] = self.columns
            self.columns = grown
        out: list[int] = []
        for ref in refs:
            ref_id = ids.get(ref)
            if ref_id is None:
                if free:
                    ref_id = free.pop()
                    table[ref_id] = ref
                else:
                    ref_id = len(table)
                    table.append(ref)
                ids[ref] = ref_id
                self._ids_of[ref.checkpoint_id].append(ref_id)
                self.columns[:, ref_id] = ref.checkpoint_id, ref.node_id, ref.page_index
            out.append(ref_id)
        return np.array(out, dtype=np.int64)

    def release(self, checkpoint_id: int) -> None:
        """Forget a retired checkpoint: its claim and its refs' ids.

        Only safe once no row of any shard names those ids."""
        self.domain_of.pop(checkpoint_id, None)
        for ref_id in self._ids_of.pop(checkpoint_id, ()):
            del self._ids[self.refs[ref_id]]
            self.refs[ref_id] = None
            self._free.append(ref_id)


class _Rows:
    """One domain's digest table on one shard, as two sorted columns.

    Row ``i`` says "base page ``ref_ids[i]`` holds chunk ``digests[i]``".
    Rows are sorted by digest, and within a digest by insertion order —
    a digest's run of rows is the bucket a hash table would keep, in the
    same order, bounded by the same cap.
    """

    __slots__ = ("digests", "ref_ids", "digest_count")

    def __init__(self) -> None:
        self.digests = np.empty(0, dtype=np.uint64)
        self.ref_ids = np.empty(0, dtype=np.int64)
        self.digest_count = 0

    def __len__(self) -> int:
        return len(self.digests)

    def bounds(self, digests: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(first row, row count)`` of each queried digest's bucket."""
        first = np.searchsorted(self.digests, digests, "left")
        return first, np.searchsorted(self.digests, digests, "right") - first

    def insert(self, digests: np.ndarray, ref_ids: np.ndarray, cap: int) -> int:
        """Add ``(digest, ref)`` rows, given in registration order.

        Decides exactly what appending them one by one would: a ref
        already in the bucket (stored, or earlier in this batch) is
        skipped without using up room, and a bucket holds at most
        ``cap`` refs, first come first kept.  Returns rows stored.
        """
        order = np.argsort(digests, kind="stable")
        digests, ref_ids = digests[order], ref_ids[order]
        count = len(digests)
        bucket_starts = run_starts(digests)
        bucket = np.repeat(
            np.arange(len(bucket_starts)), run_lengths(bucket_starts, count)
        )
        # First offer of each (bucket, ref) within the batch...
        fresh = np.zeros(count, dtype=bool)
        fresh[
            np.unique(bucket * (int(ref_ids.max()) + 1) + ref_ids, return_index=True)[1]
        ] = True
        # ...that the stored bucket does not hold already.
        first, held = self.bounds(digests)
        stored_rows = concat_ranges(first, held)
        if len(stored_rows):
            offer = np.repeat(np.arange(count), held)
            fresh[offer[self.ref_ids[stored_rows] == ref_ids[offer]]] = False
        # Room: the k-th fresh offer to a bucket fits while held + k < cap.
        before = np.cumsum(fresh) - fresh
        rank = before - before[bucket_starts][bucket]
        keep = fresh & (held + rank < cap)
        at = (first + held)[keep]
        self.digests = np.insert(self.digests, at, digests[keep])
        self.ref_ids = np.insert(self.ref_ids, at, ref_ids[keep])
        self.digest_count += int(np.count_nonzero(keep & (held == 0) & (rank == 0)))
        return int(np.count_nonzero(keep))

    def remove(self, gone: np.ndarray) -> int:
        """Drop the rows selected by the boolean mask ``gone``."""
        removed = int(np.count_nonzero(gone))
        if removed:
            self.digests = self.digests[~gone]
            self.ref_ids = self.ref_ids[~gone]
            self.digest_count = len(run_starts(self.digests))
        return removed


class _Shard:
    """One fault domain's tables: digest rows and replica index per domain.

    The nested shape is the isolation mechanism: a lookup indexes its
    own domain's rows and cannot observe another partition at all.
    """

    def __init__(self, refs: _RefTable) -> None:
        self._refs = refs
        self.rows: dict[str, _Rows] = {}
        # Full-page content digests -> byte-identical base pages.  This
        # replica index backs the fault-recovery re-homing path: a patch
        # computed against a dead base page applies unchanged against
        # any replica listed here — but only replicas of the *same
        # domain* are ever listed together, so re-homing cannot cross a
        # tenancy boundary either.
        self.locations: dict[str, dict[int, list[PageRef]]] = {}
        self.location_refs = 0

    def clear(self) -> None:
        self.rows.clear()
        self.locations.clear()
        self.location_refs = 0

    @property
    def digest_count(self) -> int:
        return sum(rows.digest_count for rows in self.rows.values())

    def memory_bytes(self) -> int:
        digests = self.digest_count + sum(map(len, self.locations.values()))
        refs = sum(map(len, self.rows.values())) + self.location_refs
        return digests * _DIGEST_BYTES + refs * _REF_BYTES

    def domain_digests(self, domain: str) -> dict[int, tuple[PageRef, ...]]:
        """Digest -> refs in insertion order (inspection, not a hot path)."""
        grouped: dict[int, list[PageRef]] = defaultdict(list)
        rows = self.rows.get(domain)
        if rows is not None:
            for digest, ref_id in zip(rows.digests.tolist(), rows.ref_ids.tolist()):
                grouped[digest].append(self._refs.refs[ref_id])
        return {digest: tuple(bucket) for digest, bucket in grouped.items()}

    def add_location(self, domain: str, page_digest: int, ref: PageRef, cap: int) -> bool:
        bucket = self.locations.setdefault(domain, {}).setdefault(page_digest, [])
        if ref in bucket or len(bucket) >= cap:
            return False
        bucket.append(ref)
        self.location_refs += 1
        return True

    def remove_location(self, domain: str, page_digest: int, ref: PageRef) -> None:
        buckets = self.locations.get(domain, {})
        bucket = buckets.get(page_digest, ())
        if ref not in bucket:
            return
        bucket.remove(ref)
        self.location_refs -= 1
        if not bucket:
            del buckets[page_digest]
            if not buckets:
                del self.locations[domain]


# ------------------------------------------------------------ lookup kernel


def _by_shard(n_shards: int, digests: np.ndarray, aligned: np.ndarray):
    """``(shard, its digests, their rows of aligned)``: a digest lives on
    shard ``digest % n_shards`` whatever its domain."""
    if n_shards == 1:
        yield 0, digests, aligned
        return
    owner = digests % n_shards
    for shard in range(n_shards):
        mine = owner == shard
        yield shard, digests[mine], aligned[mine]


def _distinct_in_page(digests: np.ndarray, page_of: np.ndarray, width: int) -> np.ndarray:
    """Mask of each digest's first occurrence within its own page."""
    distinct = np.ones(len(digests), dtype=bool)
    for gap in range(1, width):
        repeat = digests[gap:] == digests[:-gap]
        if repeat.any():
            repeat &= page_of[gap:] == page_of[:-gap]
            distinct[gap:] &= ~repeat
    return distinct


def _overlaps(
    stores: Sequence[_Rows | None],
    id_space: int,
    digests: np.ndarray,
    page_of: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sampled-chunk overlap of every (page, candidate ref) pair.

    ``digests``/``page_of`` are the batch's distinct (page, digest)
    queries; ``stores[s]`` is shard ``s``'s rows of the requester's
    domain — the only rows this function can reach.  Buckets expand to
    (page, ref id) pairs and one sort of the packed pairs counts how
    many of a page's digests each ref holds.  Returns page-major
    ``(page, ref id, overlap)`` columns, one entry per distinct pair.
    """
    pages: list[np.ndarray] = []
    ids: list[np.ndarray] = []
    for shard, mine_digests, mine_pages in _by_shard(len(stores), digests, page_of):
        rows = stores[shard]
        if rows is not None:
            first, held = rows.bounds(mine_digests)
            pages.append(np.repeat(mine_pages, held))
            ids.append(rows.ref_ids[concat_ranges(first, held)])
    if not pages:
        return (np.empty(0, dtype=np.int64),) * 3
    pairs = np.concatenate(pages) * id_space + np.concatenate(ids)
    pairs.sort()
    starts = run_starts(pairs)
    page, ref_id = np.divmod(pairs[starts], id_space)
    return page, ref_id, run_lengths(starts, len(pairs))


def _best_candidates(
    refs: _RefTable,
    page: np.ndarray,
    ref_id: np.ndarray,
    overlap: np.ndarray,
    page_starts: np.ndarray,
    local_node_id: int,
    num_pages: int,
) -> list[tuple[PageRef, int] | None]:
    """Selection rule shared by every registry variant.

    The candidate with the maximum sampled-chunk overlap wins; among
    equals, a page local to ``local_node_id`` is preferred (avoiding a
    remote read), then the lowest address for determinism.
    """
    result: list[tuple[PageRef, int] | None] = [None] * num_pages
    if not len(page):
        return result
    score = 2 * overlap + (refs.columns[_NODE][ref_id] == local_node_id)
    best = np.maximum.reduceat(score, page_starts)
    tied = np.flatnonzero(
        score == np.repeat(best, run_lengths(page_starts, len(page)))
    )
    checkpoint, node, index = refs.columns[:, ref_id[tied]]
    tied = tied[np.lexsort((node, index, checkpoint, page[tied]))]
    winners = tied[run_starts(page[tied])]
    table = refs.refs
    for at, ref, shared in zip(
        page[winners].tolist(), ref_id[winners].tolist(), overlap[winners].tolist()
    ):
        result[at] = (table[ref], shared)
    return result


class FingerprintRegistry:
    """Chunk-digest -> base-page index with bounded, domain-partitioned
    buckets."""

    def __init__(
        self,
        config: FingerprintConfig | None = None,
        *,
        max_refs_per_digest: int = 8,
    ):
        if max_refs_per_digest <= 0:
            raise ValueError("max_refs_per_digest must be positive")
        self.config = config or FingerprintConfig()
        self.max_refs_per_digest = max_refs_per_digest
        self.replication = 1
        self._refs = _RefTable()
        self.shards = [_Shard(self._refs)]
        # Front-end routing metadata for the replica index: which
        # (domain, page digest) holds a ref's page-location entry.
        # Deliberately *not* shard state — it survives shard loss so
        # recovery can still route.
        self._location_route: dict[PageRef, tuple[str, int]] = {}
        self._route_by_checkpoint: dict[int, list[PageRef]] = defaultdict(list)
        self.stats = RegistryStats()

    @property
    def n_shards(self) -> int:
        """A plain registry is a single shard."""
        return len(self.shards)

    # ------------------------------------------------------- registration

    def register_page(
        self, ref: PageRef, fingerprint: PageFingerprint, domain: str = GLOBAL_DOMAIN
    ) -> int:
        """Insert a base page's sampled digests; returns digests stored."""
        return self.register_pages([ref], [fingerprint], domain)

    def register_pages(
        self,
        refs: Sequence[PageRef],
        fingerprints: Sequence[PageFingerprint],
        domain: str = GLOBAL_DOMAIN,
    ) -> int:
        """Batch insert (one controller round-trip per image)."""
        if len(refs) != len(fingerprints):
            raise ValueError("refs/fingerprints length mismatch")
        digests, counts = digest_arrays(fingerprints)
        stored = 0
        if len(digests):
            sampled = [ref for ref, count in zip(refs, counts.tolist()) if count]
            for checkpoint_id in {ref.checkpoint_id for ref in sampled}:
                self._refs.claim(checkpoint_id, domain)
            ref_ids = np.repeat(self._refs.intern(sampled), counts[counts > 0])
            for shard, mine_digests, mine_ids in _by_shard(len(self.shards), digests, ref_ids):
                if len(mine_digests):
                    rows = self.shards[shard].rows
                    if domain not in rows:
                        rows[domain] = _Rows()
                    stored += rows[domain].insert(
                        mine_digests, mine_ids, self.max_refs_per_digest
                    )
        self.stats.pages_registered += len(refs)
        self.stats.digests_registered += stored
        return stored

    def deregister_checkpoint(self, checkpoint_id: int) -> int:
        """Remove every digest of a retired base checkpoint."""
        removed = 0
        claimed = self._refs.domain_of.get(checkpoint_id)
        for shard in self.shards:
            rows = shard.rows.get(claimed)
            if rows is not None:
                removed += rows.remove(
                    self._refs.columns[_CHECKPOINT][rows.ref_ids] == checkpoint_id
                )
                if not len(rows):
                    del shard.rows[claimed]
        for ref in self._route_by_checkpoint.pop(checkpoint_id, ()):
            domain, page_digest = self._location_route.pop(ref)
            self.shards[page_digest % len(self.shards)].remove_location(
                domain, page_digest, ref
            )
        self._refs.release(checkpoint_id)
        return removed

    # ----------------------------------------------------- page locations

    def register_page_location(
        self, ref: PageRef, page_digest: int, domain: str = GLOBAL_DOMAIN
    ) -> bool:
        """Index a base page's full-content digest for replica lookup.

        Idempotent; buckets are capped at ``max_refs_per_digest`` like
        fingerprint buckets.  Returns True when the ref was stored.
        """
        self._refs.claim(ref.checkpoint_id, domain)
        if ref not in self._location_route:
            self._location_route[ref] = (domain, page_digest)
            self._route_by_checkpoint[ref.checkpoint_id].append(ref)
        return self.shards[page_digest % len(self.shards)].add_location(
            domain, page_digest, ref, self.max_refs_per_digest
        )

    def page_replicas(
        self, page_digest: int, domain: str = GLOBAL_DOMAIN
    ) -> tuple[PageRef, ...]:
        """Registered base pages of ``domain`` whose content hashes to
        ``page_digest`` (never another domain's — re-homing must not
        leak a byte-identical page across a tenancy boundary)."""
        shard = self.shards[page_digest % len(self.shards)]
        return tuple(shard.locations.get(domain, {}).get(page_digest, ()))

    def replicas_for(self, ref: PageRef) -> tuple[PageRef, ...]:
        """Byte-identical same-domain alternatives to ``ref``."""
        route = self._location_route.get(ref)
        if route is None:
            return ()
        domain, page_digest = route
        return tuple(r for r in self.page_replicas(page_digest, domain) if r != ref)

    # ------------------------------------------------------- fault domain

    def drop_shard(self, index: int) -> None:
        """Lose one shard's table content, simulating shard data loss.

        Stats and the front end's directory (domain claims, interned
        refs, replica routes) survive — they are not shard state — and
        callers rebuild the tables by re-registering the surviving base
        checkpoints (idempotently, under their original domains)."""
        if not 0 <= index < len(self.shards):
            raise ValueError(f"registry has shards 0..{len(self.shards) - 1}")
        self.shards[index].clear()

    # ------------------------------------------------------------- lookup

    def _digest_lookups(self, digests: np.ndarray, distinct: np.ndarray) -> int:
        """Digest-level traffic of one batch: each page's distinct digests."""
        return int(np.count_nonzero(distinct))

    def _match(
        self, fingerprints: Sequence[PageFingerprint], domain: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Run the batch through :func:`_overlaps` and advance the stats.

        Returns its ``(page, ref id, overlap)`` columns plus the start of
        each page's run of candidates."""
        digests, counts = digest_arrays(fingerprints)
        page_of = np.repeat(np.arange(len(counts)), counts)
        distinct = _distinct_in_page(digests, page_of, int(counts.max(initial=0)))
        stats = self.stats
        stats.page_lookups += len(counts)
        stats.digest_lookups += self._digest_lookups(digests, distinct)
        page, ref_id, overlap = _overlaps(
            [shard.rows.get(domain) for shard in self.shards],
            len(self._refs.refs),
            digests[distinct],
            page_of[distinct],
        )
        page_starts = run_starts(page)
        stats.hits += len(page_starts)
        return page, ref_id, overlap, page_starts

    def lookup(
        self, fingerprint: PageFingerprint, domain: str = GLOBAL_DOMAIN
    ) -> Counter[PageRef]:
        """Candidate base pages of ``domain`` scored by chunk overlap."""
        return self.lookup_batch([fingerprint], domain)[0]

    def lookup_batch(
        self, fingerprints: Sequence[PageFingerprint], domain: str = GLOBAL_DOMAIN
    ) -> list[Counter[PageRef]]:
        """Candidates for a whole image's pages in one round-trip.

        Results and page-level stats advance exactly as the equivalent
        sequence of per-page :meth:`lookup` calls.
        """
        page, ref_id, overlap, _ = self._match(fingerprints, domain)
        results: list[Counter[PageRef]] = [Counter() for _ in range(len(fingerprints))]
        refs = self._refs.refs
        for at, ref, shared in zip(page.tolist(), ref_id.tolist(), overlap.tolist()):
            results[at][refs[ref]] = shared
        return results

    def choose_base_page(
        self,
        fingerprint: PageFingerprint,
        local_node_id: int,
        domain: str = GLOBAL_DOMAIN,
    ) -> tuple[PageRef, int] | None:
        """Pick the best base page for a dedup candidate page.

        Returns ``(ref, overlap)`` or None when no candidate exists.
        """
        return self.choose_base_pages([fingerprint], local_node_id, domain)[0]

    def choose_base_pages(
        self,
        fingerprints: Sequence[PageFingerprint],
        local_node_id: int,
        domain: str = GLOBAL_DOMAIN,
    ) -> list[tuple[PageRef, int] | None]:
        """Batch :meth:`choose_base_page` — one result per fingerprint."""
        return _best_candidates(
            self._refs, *self._match(fingerprints, domain), local_node_id, len(fingerprints)
        )

    # --------------------------------------------------- domain inspection

    def domains(self) -> tuple[str, ...]:
        """Domains with any registered state (sorted; tests/recovery)."""
        seen: set[str] = set()
        for shard in self.shards:
            seen.update(shard.rows, shard.locations)
        return tuple(sorted(seen))

    def domain_digests(self, domain: str) -> dict[int, tuple[PageRef, ...]]:
        """One domain's digest partition as an immutable snapshot (shards
        hold disjoint digests, so merging them is a plain union)."""
        return {
            digest: refs
            for shard in self.shards
            for digest, refs in shard.domain_digests(domain).items()
        }

    def domain_locations(self, domain: str) -> dict[int, tuple[PageRef, ...]]:
        """One domain's replica-index partition as an immutable snapshot."""
        return {
            digest: tuple(bucket)
            for shard in self.shards
            for digest, bucket in shard.locations.get(domain, {}).items()
        }

    def checkpoint_domain(self, checkpoint_id: int) -> str | None:
        """The domain a checkpoint registered under (None if absent)."""
        return self._refs.domain_of.get(checkpoint_id)

    @property
    def digest_count(self) -> int:
        return sum(shard.digest_count for shard in self.shards)

    def memory_bytes(self) -> int:
        """Estimated registry footprint (for controller-overhead
        reporting): every shard, times the replication factor."""
        return sum(shard.memory_bytes() for shard in self.shards) * self.replication

    def shard_for(self, digest: int, n_shards: int | None = None) -> int:
        """Key-partitioned shard placement (the Section 4.3 scaling path),
        among this registry's shards unless ``n_shards`` says otherwise.

        Lookups are independent per digest, so the registry distributes
        by digest.  Sharding is orthogonal to tenancy: a digest routes to
        the same shard whatever its domain, and the domain partition
        lives inside each shard.
        """
        if n_shards is None:
            n_shards = len(self.shards)
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        return digest % n_shards


class ShardedFingerprintRegistry(FingerprintRegistry):
    """A key-partitioned fingerprint registry (paper Section 4.3).

    Accesses to the registry are independent per-digest lookups, so the
    controller can be distributed by sharding the digest space across
    controller nodes; chain replication provides fault tolerance.  This
    is :class:`FingerprintRegistry` over ``n_shards`` shards — each digest
    routes to ``shard_for(digest)`` and every answer equals the
    single-shard registry's.  ``replication`` models the chain length:
    inserts are charged to every replica (for overhead accounting) while
    reads are served by the tail.

    Tenancy: the domain partition lives *inside* each shard (sharding is
    by digest, orthogonal to domains), so a rebuilt shard reconstructs
    its per-domain tables exactly by re-registering surviving
    checkpoints under their recorded domains.
    """

    def __init__(
        self,
        n_shards: int,
        config: FingerprintConfig | None = None,
        *,
        max_refs_per_digest: int = 8,
        replication: int = 1,
    ):
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        if replication <= 0:
            raise ValueError("replication must be positive")
        super().__init__(config, max_refs_per_digest=max_refs_per_digest)
        self.replication = replication
        self.shards = [_Shard(self._refs) for _ in range(n_shards)]

    def _digest_lookups(self, digests: np.ndarray, distinct: np.ndarray) -> int:
        """Each distinct digest of the batch is resolved once, on the
        shard owning it — the communication the sharded controller
        actually performs (page-level stats still count every page)."""
        return len(np.unique(digests))

    def load_imbalance(self) -> float:
        """Max-shard / mean-shard digest load (1.0 = perfectly even)."""
        loads = [shard.digest_count for shard in self.shards]
        mean = sum(loads) / len(loads)
        if mean == 0:
            return 1.0
        return max(loads) / mean


# benchmarks/ledger/tracer.py binds its core.registry spans to names found in
# each class's own namespace, so the subclass restates what it inherits.
for _name in (
    "register_page", "register_pages", "deregister_checkpoint", "register_page_location",
    "page_replicas", "replicas_for", "lookup", "lookup_batch", "choose_base_page",
    "choose_base_pages", "memory_bytes",
):  # fmt: skip
    setattr(ShardedFingerprintRegistry, _name, vars(FingerprintRegistry)[_name])
