"""Per-function delta tables against shared template segments.

A parked template sandbox keeps a :class:`TemplateDeltaTable` instead of
a dedup patch table: for each shareable RUNTIME/LIBRARY region, a patch
of the instance's bytes against the catalog's template segment (the
existing patch codec, region-granular because regions are page-aligned);
for everything else — guard pages, zeroed memory, stack/heap/unique —
zero markers and literal pages.  A fork re-runs the patches over the
node's template replicas and writes the literals back, reconstructing
the image byte-exactly (the round-trip the hypothesis suite pins).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.memory.image import MemoryImage
from repro.memory.layout import PlacedRegion
from repro.memory.patch import Patch, apply_patch, compute_patches
from repro.sandbox.sandbox import METADATA_BYTES_PER_PAGE

if TYPE_CHECKING:
    from repro.templates.catalog import TemplateSegment


@dataclass(frozen=True)
class SharedSpan:
    """One shareable region expressed as a patch against its segment."""

    offset: int
    size: int
    segment_key: tuple[str, str, int]
    """Catalog :data:`~repro.templates.catalog.SegmentKey` — (dedup
    domain, content key, size)."""
    patch: Patch


@dataclass(eq=False)
class TemplateDeltaTable:
    """Retained state of a template-parked sandbox.

    Satisfies the :class:`repro.sandbox.sandbox.RetainedState` protocol
    (``retained_full_bytes``), so template sandboxes reuse the DEDUP
    lifecycle states, node accounting and eviction machinery unchanged —
    the controller tells the two park flavours apart by table type.
    """

    function: str
    instance_seed: int
    page_size: int
    content_scale: float
    aslr: bool
    executed: bool
    num_pages: int
    full_size_bytes: int
    original_checksum: str
    regions: tuple[PlacedRegion, ...]
    shared: tuple[SharedSpan, ...]
    unique_pages: dict[int, bytes]
    """Literal content of private non-zero pages, by page index."""
    zero_pages: tuple[int, ...]
    """Indices of all-zero pages outside the shared spans (implicit)."""

    @cached_property
    def retained_content_bytes(self) -> int:
        """Scaled bytes this table keeps resident while parked."""
        return sum(span.patch.size_bytes for span in self.shared) + sum(
            len(data) for data in self.unique_pages.values()
        )

    @property
    def retained_full_bytes(self) -> int:
        """Full-scale retained footprint (RetainedState protocol)."""
        scaled = self.retained_content_bytes
        return int(scaled / self.content_scale) + self.num_pages * METADATA_BYTES_PER_PAGE

    @cached_property
    def cow_shareable_content_bytes(self) -> int:
        """Scaled template bytes the instance left untouched — the COPY
        coverage of the span patches.  A fork maps these pages
        copy-on-write from the node's template replicas (the TrEnv fork
        model), so a forked sandbox's DRAM charge is its full footprint
        minus this share for as long as the replicas stay pinned."""
        return sum(span.patch.copied_bytes for span in self.shared)

    @property
    def cow_shareable_full_bytes(self) -> int:
        return int(self.cow_shareable_content_bytes / self.content_scale)

    @property
    def segment_keys(self) -> tuple[tuple[str, str, int], ...]:
        seen: dict[tuple[str, str, int], None] = {}
        for span in self.shared:
            seen.setdefault(span.segment_key, None)
        return tuple(seen)

    @property
    def patched_pages(self) -> int:
        return sum(span.size // self.page_size for span in self.shared)

    @property
    def savings_fraction(self) -> float:
        """Fraction of the image *not* retained — the template analogue
        of ``DedupStats.savings_fraction``."""
        total = self.num_pages * self.page_size
        if total == 0:
            return 0.0
        return 1.0 - min(1.0, self.retained_content_bytes / total)


def build_delta_table(
    image: MemoryImage,
    segments: dict[tuple[str, str, int], TemplateSegment],
    *,
    content_scale: float,
    full_size_bytes: int,
    level: int = 1,
    domain: str = "",
) -> TemplateDeltaTable:
    """Factor ``image`` into segment patches + private pages.

    ``segments`` maps each shareable region's ``(domain, content_key,
    size)`` catalog key to its template segment — the patch base, and
    the owner of the base's anchor index, which is built by the first
    table that needs it and reused by every later one; regions without
    an entry (including a match published under a *different* dedup
    domain) are treated as private.  Regions are page-aligned by
    construction, so shared spans and private pages partition the image
    exactly.
    """
    shared_regions = [
        region
        for region in image.regions
        if (domain, region.spec.content_key, region.size) in segments
    ]
    for region in shared_regions:
        if region.offset % image.page_size or region.size % image.page_size:
            raise ValueError(
                f"shareable region {region.spec.name} is not page-aligned"
            )
    keys = [(domain, region.spec.content_key, region.size) for region in shared_regions]
    bases = [segments[key] for key in keys]
    patches = compute_patches(
        [image.data[region.offset : region.end] for region in shared_regions],
        [segment.content for segment in bases],
        level=level,
        index_provider=lambda j: bases[j].anchor_index(level),
    )
    shared = tuple(
        SharedSpan(offset=region.offset, size=region.size, segment_key=key, patch=patch)
        for region, key, patch in zip(shared_regions, keys, patches)
    )

    covered = np.zeros(image.num_pages, dtype=bool)
    for span in shared:
        start = span.offset // image.page_size
        covered[start : start + span.size // image.page_size] = True
    pages = image.data.reshape(image.num_pages, image.page_size)
    nonzero = pages.any(axis=1)
    unique_pages = {
        int(index): pages[index].tobytes()
        for index in np.flatnonzero(~covered & nonzero)
    }
    zero_pages = tuple(int(index) for index in np.flatnonzero(~covered & ~nonzero))

    return TemplateDeltaTable(
        function=image.function,
        instance_seed=image.instance_seed,
        page_size=image.page_size,
        content_scale=content_scale,
        aslr=image.aslr,
        executed=image.executed,
        num_pages=image.num_pages,
        full_size_bytes=full_size_bytes,
        original_checksum=image.checksum(),
        regions=image.regions,
        shared=shared,
        unique_pages=unique_pages,
        zero_pages=zero_pages,
    )


def reconstruct_image(
    table: TemplateDeltaTable,
    segment_content: dict[tuple[str, str, int], np.ndarray],
    *,
    verify: bool = False,
) -> MemoryImage:
    """Fork: re-apply the delta over template content, byte-exactly."""
    buffer = np.zeros(table.num_pages * table.page_size, dtype=np.uint8)
    for span in table.shared:
        base = segment_content[span.segment_key]
        restored = apply_patch(span.patch, base)
        buffer[span.offset : span.offset + span.size] = np.frombuffer(
            restored, dtype=np.uint8
        )
    for index, data in table.unique_pages.items():
        start = index * table.page_size
        buffer[start : start + table.page_size] = np.frombuffer(data, dtype=np.uint8)
    image = MemoryImage(
        function=table.function,
        instance_seed=table.instance_seed,
        data=buffer,
        page_size=table.page_size,
        regions=table.regions,
        aslr=table.aslr,
        executed=table.executed,
    )
    if verify and image.checksum() != table.original_checksum:
        raise RuntimeError(
            f"template fork of sandbox image {table.function}/{table.instance_seed} "
            "failed checksum verification"
        )
    return image
