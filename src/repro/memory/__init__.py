"""Memory substrate: synthetic sandbox images, chunking, fingerprints, patches.

This package is the reproduction's stand-in for the real-world memory
surface Medes operates on (CRIU dumps of Docker sandboxes).  Content is
synthetic but the algorithms that run over it -- value-sampled
fingerprints, chunk hashing, binary patching, and the Section-2
redundancy measurement -- are the paper's, implemented on real bytes.
"""

from repro.memory.chunks import DEFAULT_CHUNK_SIZE, DEFAULT_DIGEST_BITS
from repro.memory.fingerprint import (
    DEFAULT_CARDINALITY,
    FingerprintConfig,
    PageFingerprint,
    SamplingStrategy,
    image_fingerprints,
    page_fingerprint,
)
from repro.memory.image import MemoryImage, shared_fraction_upper_bound, synthesize_image
from repro.memory.layout import (
    AslrBehavior,
    ImageLayout,
    PlacedRegion,
    RegionSpec,
    SharingScope,
    standard_layout,
)
from repro.memory.patch import Patch, apply_patch, compute_patch
from repro.memory.redundancy import RedundancyResult, measure_redundancy, redundancy_matrix

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_DIGEST_BITS",
    "DEFAULT_CARDINALITY",
    "AslrBehavior",
    "FingerprintConfig",
    "ImageLayout",
    "MemoryImage",
    "PageFingerprint",
    "Patch",
    "PlacedRegion",
    "RedundancyResult",
    "RegionSpec",
    "SamplingStrategy",
    "SharingScope",
    "apply_patch",
    "compute_patch",
    "image_fingerprints",
    "measure_redundancy",
    "page_fingerprint",
    "redundancy_matrix",
    "shared_fraction_upper_bound",
    "standard_layout",
    "synthesize_image",
]
