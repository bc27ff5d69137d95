"""Property-based tests over image synthesis and the dedup premise."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.image import synthesize_image
from repro.memory.layout import standard_layout
from repro.memory.patch import apply_patch, compute_patch
from repro._util import MIB

LAYOUT = standard_layout("PropFn", ("numpy",), 32 * MIB)


class TestSynthesisProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        aslr=st.booleans(),
        executed=st.booleans(),
    )
    def test_any_seed_yields_valid_image(self, seed, aslr, executed):
        image = synthesize_image(
            LAYOUT, 128 * 1024, seed, aslr=aslr, executed=executed
        )
        assert image.num_pages >= len(LAYOUT.regions)
        assert image.nbytes % image.page_size == 0
        # Regions lie within the image and are ordered.
        last_end = 0
        for placed in image.regions:
            assert placed.offset >= last_end
            assert placed.end <= image.nbytes
            last_end = placed.end

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_same_seed_same_bytes(self, seed):
        a = synthesize_image(LAYOUT, 128 * 1024, seed, executed=True)
        b = synthesize_image(LAYOUT, 128 * 1024, seed, executed=True)
        assert a.checksum() == b.checksum()

    @settings(max_examples=10, deadline=None)
    @given(
        seed_a=st.integers(min_value=0, max_value=2**16),
        seed_b=st.integers(min_value=2**16 + 1, max_value=2**17),
    )
    def test_cross_instance_pages_patch_small_or_unique(self, seed_a, seed_b):
        """Every page pair either patches to well below page size or is
        handled as unique — there is no pathological middle where the
        'patch' exceeds the page itself by much (codec overhead bound)."""
        a = synthesize_image(LAYOUT, 64 * 1024, seed_a, executed=True)
        b = synthesize_image(LAYOUT, 64 * 1024, seed_b, executed=True)
        for index in range(min(a.num_pages, b.num_pages)):
            patch = compute_patch(b.page(index), a.page(index))
            assert apply_patch(patch, a.page(index)) == b.page_bytes(index)
            assert patch.size_bytes <= b.page_size + 64
