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
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

import numpy as np

from repro._util import concat_ranges, hash_rows_sha1, run_lengths, run_starts
from repro.memory.fingerprint import (
    FingerprintConfig,
    PageFingerprint,
    batch_page_fingerprints,
    digest_arrays,
)
from repro.tenancy.domains import GLOBAL_DOMAIN

if TYPE_CHECKING:
    from repro.sandbox.checkpoint import BaseCheckpoint

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
        self.free: list[int] = []
        """Ids of retired checkpoints' refs, reused first; no row names one."""

    def claim(self, checkpoint_id: int, domain: str) -> None:
        existing = self.domain_of.setdefault(checkpoint_id, domain)
        if existing != domain:
            raise ValueError(
                f"checkpoint {checkpoint_id} is registered in domain "
                f"{existing!r}; refusing registration under {domain!r}"
            )

    def intern(self, refs: Sequence[PageRef]) -> np.ndarray:
        """Dense ids of ``refs``, allocating ids for unseen ones."""
        ids, table, free = self._ids, self.refs, self.free
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
            self.free.append(ref_id)


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
        first = self.digests.searchsorted(digests, "left")
        return first, self.digests.searchsorted(digests, "right") - first

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


def _distinct_in_page(digests: np.ndarray, page_of: np.ndarray) -> np.ndarray:
    """Mask of each digest's first occurrence within its own page.

    One stable sort by digest: a digest's run lists its occurrences in
    batch order, so its repeats on one page are adjacent in the run."""
    distinct = np.ones(len(digests), dtype=bool)
    order = digests.argsort(kind="stable")
    ordered = digests[order]
    repeat = (ordered[1:] == ordered[:-1]).nonzero()[0]
    if len(repeat):
        on_page = page_of[order]
        distinct[order[repeat[on_page[repeat + 1] == on_page[repeat]] + 1]] = False
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
    found: list[np.ndarray] = []
    for shard, mine_digests, mine_pages in _by_shard(len(stores), digests, page_of):
        rows = stores[shard]
        if rows is not None:
            first, held = rows.bounds(mine_digests)
            found.append(
                (mine_pages * id_space).repeat(held) + rows.ref_ids[concat_ranges(first, held)]
            )
    if not found:
        return (np.empty(0, dtype=np.int64),) * 3
    pairs = found[0] if len(found) == 1 else np.concatenate(found)
    pairs.sort()
    starts = run_starts(pairs)
    page, ref_id = np.divmod(pairs[starts], id_space)
    return page, ref_id, run_lengths(starts, len(pairs))


class BaseChoices(NamedTuple):
    """:meth:`FingerprintRegistry.choose_base_pages`' winners as columns:
    per query that got a base, in query order, its position in the
    batch, the base page's address and the overlap it won with."""

    positions: np.ndarray
    checkpoints: np.ndarray
    nodes: np.ndarray
    pages: np.ndarray
    overlaps: np.ndarray


def _best_candidates(
    refs: _RefTable,
    page: np.ndarray,
    ref_id: np.ndarray,
    overlap: np.ndarray,
    page_starts: np.ndarray,
    local_node_id: int,
) -> BaseChoices:
    """Selection rule shared by every registry variant.

    The candidate with the maximum sampled-chunk overlap wins; among
    equals, a page local to ``local_node_id`` is preferred (avoiding a
    remote read), then the lowest address for determinism.
    """
    if not len(page):
        return BaseChoices(*np.empty((5, 0), dtype=np.int64))
    checkpoint, node, index = refs.columns[:, ref_id]
    score = 2 * overlap + (node == local_node_id)
    # ``page`` is sorted, so sorting by page first leaves its runs where they are.
    winners = np.lexsort((node, index, checkpoint, -score, page))[page_starts]
    return BaseChoices(
        page[winners], checkpoint[winners], node[winners], index[winners], overlap[winners]
    )


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

    def register_base(
        self,
        checkpoint: BaseCheckpoint,
        config: FingerprintConfig,
        fingerprints: Sequence[PageFingerprint] | None = None,
    ) -> None:
        """Register every page of a base checkpoint: its sampled digests
        (``fingerprints``, else a scan under ``config``) and its
        full-content location.  The location index backs crash
        rehoming: byte-identical pages on surviving bases can absorb a
        dead base's patch references unchanged."""
        image = checkpoint.image
        if fingerprints is None:
            fingerprints = batch_page_fingerprints(image.data, image.page_size, config)
        refs = [
            PageRef(checkpoint.checkpoint_id, checkpoint.node_id, index)
            for index in range(len(fingerprints))
        ]
        domain = checkpoint.domain
        self.register_pages(refs, fingerprints, domain)
        page_digests = hash_rows_sha1(image.data.reshape(image.num_pages, image.page_size))
        for ref, page_digest in zip(refs, page_digests.tolist()):
            self.register_page_location(ref, page_digest, domain)

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
        return np.count_nonzero(distinct)

    def _match(
        self, fingerprints: Sequence[PageFingerprint], domain: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Run the batch through :func:`_overlaps` and advance the stats.

        Returns its ``(page, ref id, overlap)`` columns plus the start of
        each page's run of candidates."""
        digests, counts = digest_arrays(fingerprints)
        page_of = np.arange(len(counts)).repeat(counts)
        distinct = _distinct_in_page(digests, page_of)
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
        choices = self.choose_base_pages([fingerprint], local_node_id, domain)
        if not len(choices.positions):
            return None
        _, checkpoint, node, page, overlap = (int(column[0]) for column in choices)
        return PageRef(checkpoint, node, page), overlap

    def choose_base_pages(
        self,
        fingerprints: Sequence[PageFingerprint],
        local_node_id: int,
        domain: str = GLOBAL_DOMAIN,
    ) -> BaseChoices:
        """Batch :meth:`choose_base_page`: the winners as columns, one
        entry per fingerprint that got a base."""
        return _best_candidates(self._refs, *self._match(fingerprints, domain), local_node_id)

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

    def recount(self, claims: dict[int, str]) -> Iterator[str]:
        """Yield a message per broken rule: the domain claims equal
        ``claims`` (each registered checkpoint's domain); in every shard
        and domain, rows are sorted, buckets hold at most
        ``max_refs_per_digest`` refs, ``digest_count`` is the distinct
        digests, no row names a free-listed id, and every ref of the
        rows and the replica index is of a checkpoint claiming it."""
        refs, cap = self._refs, self.max_refs_per_digest
        if refs.domain_of != claims:
            yield f"registry claims: claims {refs.domain_of}, checkpoints registered {claims}"
        free = np.array(refs.free, dtype=np.int64)
        for index, shard in enumerate(self.shards):
            for domain, rows in shard.rows.items():
                where = f"shard {index}, domain {domain!r}"
                starts = run_starts(rows.digests)
                owners = np.sort(refs.columns[_CHECKPOINT][rows.ref_ids])
                owners = owners[run_starts(owners)].tolist()
                if np.any(rows.digests[1:] < rows.digests[:-1]):
                    yield f"registry rows sorted: {where}: digests out of order"
                if len(starts) != rows.digest_count:
                    yield f"registry digest count: {where}: {rows.digest_count} != {len(starts)}"
                if np.any(run_lengths(starts, len(rows)) > cap):
                    yield f"registry bucket cap: {where}: a bucket holds over {cap} refs"
                if np.isin(rows.ref_ids, free).any():
                    yield f"registry free ids: {where}: a row names a free-listed id"
                if {refs.domain_of.get(owner) for owner in owners} - {domain}:
                    yield f"registry domain: {where}: rows name another domain's checkpoints"
            for domain, buckets in shard.locations.items():
                where = f"shard {index}, domain {domain!r}"
                owners = {ref.checkpoint_id for bucket in buckets.values() for ref in bucket}
                if max(map(len, buckets.values()), default=0) > cap:
                    yield f"registry bucket cap: {where}: a replica bucket holds over {cap} refs"
                if {refs.domain_of.get(owner) for owner in owners} - {domain}:
                    yield f"registry domain: {where}: replicas name another domain's checkpoints"

    @property
    def digest_count(self) -> int:
        return sum(shard.digest_count for shard in self.shards)

    def memory_bytes(self) -> int:
        """Estimated registry footprint (for controller-overhead
        reporting), summed over every shard."""
        return sum(shard.memory_bytes() for shard in self.shards)


class ShardedFingerprintRegistry(FingerprintRegistry):
    """A key-partitioned fingerprint registry (paper Section 4.3).

    Accesses to the registry are independent per-digest lookups, so the
    controller can be distributed by sharding the digest space across
    controller nodes (the paper adds chain replication for fault
    tolerance, which this model does not charge).  This is
    :class:`FingerprintRegistry` over ``n_shards`` shards — each digest
    routes to shard ``digest % n_shards`` and every answer equals the
    single-shard registry's.

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
    ):
        if n_shards <= 0:
            raise ValueError("n_shards must be positive")
        super().__init__(config, max_refs_per_digest=max_refs_per_digest)
        self.shards = [_Shard(self._refs) for _ in range(n_shards)]

    def _digest_lookups(self, digests: np.ndarray, distinct: np.ndarray) -> int:
        """Each distinct digest of the batch is resolved once, on the
        shard owning it — the communication the sharded controller
        actually performs (page-level stats still count every page)."""
        return len(run_starts(np.sort(digests)))

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
