"""Sandbox memory images: pages over a flat byte buffer.

A :class:`MemoryImage` is what CRIU's memory dump is to the real Medes:
the checkpointed memory state of one sandbox, addressable by page.  The
dedup agent fingerprints, patches and reconstructs these images; tests
assert byte-exact round trips.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro._util import PAGE_SIZE, rng_for
from repro.memory.layout import ImageLayout, PlacedRegion, RegionSpec, SharingScope
from repro.memory.synth import DIRTY_PAGE_BYTES, fill_regions

#: Maximum number of zero guard pages inserted between regions under ASLR
#: (models page-granular mmap-base randomization).
MAX_GUARD_PAGES = 2


@dataclass(frozen=True)
class MemoryImage:
    """An immutable sandbox memory state.

    Attributes:
        function: Name of the serverless function this image belongs to.
        instance_seed: Seed identifying the sandbox instance.
        data: Flat uint8 buffer; its length is a multiple of ``page_size``.
        page_size: Bytes per page.
        regions: Concrete region placements within ``data``.
        aslr: Whether the image was synthesized with ASLR enabled.
    """

    function: str
    instance_seed: int
    data: np.ndarray
    page_size: int
    regions: tuple[PlacedRegion, ...]
    aslr: bool = False
    executed: bool = False
    """Whether this is a post-execution state (carries dirty pages)."""

    def __post_init__(self) -> None:
        if self.data.dtype != np.uint8:
            raise ValueError("image data must be uint8")
        if len(self.data) % self.page_size != 0:
            raise ValueError("image length must be a multiple of page_size")
        self.data.setflags(write=False)

    @property
    def nbytes(self) -> int:
        """Total image size in bytes."""
        return int(len(self.data))

    @property
    def num_pages(self) -> int:
        """Number of pages in the image."""
        return len(self.data) // self.page_size

    def page(self, index: int) -> np.ndarray:
        """Read-only view of page ``index``."""
        if not 0 <= index < self.num_pages:
            raise IndexError(f"page {index} out of range [0, {self.num_pages})")
        start = index * self.page_size
        return self.data[start : start + self.page_size]

    def page_bytes(self, index: int) -> bytes:
        """Page ``index`` as a bytes object."""
        return self.page(index).tobytes()

    def iter_pages(self):
        """Yield (index, page view) pairs."""
        for i in range(self.num_pages):
            yield i, self.page(i)

    @cached_property
    def _checksum(self) -> str:
        return hashlib.sha1(self.data).hexdigest()

    def checksum(self) -> str:
        """SHA-1 hex digest of the full image (for round-trip assertions).

        Computed once per image: the buffer is frozen in
        ``__post_init__``, so the digest can never go stale, and hashing
        the array directly avoids materializing a full copy.
        """
        return self._checksum

    def region_of(self, offset: int) -> RegionSpec | None:
        """The region covering byte ``offset``, or None for guard pages."""
        for placed in self.regions:
            if placed.offset <= offset < placed.end:
                return placed.spec
        return None


def synthesize_image(
    layout: ImageLayout,
    total_bytes: int,
    instance_seed: int,
    *,
    aslr: bool = False,
    executed: bool = False,
    page_size: int = PAGE_SIZE,
) -> MemoryImage:
    """Synthesize one sandbox instance's memory image.

    Args:
        layout: The function's region layout.
        total_bytes: Target footprint (realized size is page-rounded per
            region and may include ASLR guard pages).
        instance_seed: Per-sandbox seed; two images with the same seed are
            identical, different seeds diverge exactly as the region model
            dictates.
        aslr: Enable address-space layout randomization effects.
        executed: Synthesize the post-execution state (dirty pages).
        page_size: Bytes per page; dirty pages are ``DIRTY_PAGE_BYTES``
            long, so an executed image takes no other.
    """
    if executed and page_size != DIRTY_PAGE_BYTES:
        raise ValueError(
            f"executed images are dirtied in {DIRTY_PAGE_BYTES}-byte pages; page_size={page_size}"
        )
    planned = layout.place(total_bytes, page_size)
    guard_rng = rng_for("aslr-guards", instance_seed, layout.function) if aslr else None

    placed: list[PlacedRegion] = []
    offset = 0
    for region in planned:
        if guard_rng is not None:
            offset += int(guard_rng.integers(0, MAX_GUARD_PAGES + 1)) * page_size
        placed.append(PlacedRegion(spec=region.spec, offset=offset, size=region.size))
        offset += region.size

    # Guard pages are what the regions leave untouched.
    data = np.zeros(offset, dtype=np.uint8)
    fill_regions(data, placed, instance_seed, aslr=aslr, executed=executed)
    return MemoryImage(
        function=layout.function,
        instance_seed=instance_seed,
        data=data,
        page_size=page_size,
        regions=tuple(placed),
        aslr=aslr,
        executed=executed,
    )


def shared_fraction_upper_bound(layout: ImageLayout) -> float:
    """Fraction of the image whose base content is shared beyond the instance.

    An analytic upper bound on dedup savings for one sandbox, used by
    tests as an invariant (measured savings never exceed it) and by the
    policy's first-dedup estimate before any measurement exists.
    """
    return sum(r.fraction for r in layout.regions if r.scope is not SharingScope.INSTANCE)
