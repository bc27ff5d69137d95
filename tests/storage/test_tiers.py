"""Tests for the tier model: StorageConfig, the device costs and TierAccount."""

from __future__ import annotations

import pytest

from repro._util import MIB
from repro.storage.tiers import (
    StorageConfig,
    StorageTier,
    TierAccount,
    TierCapacityError,
    remote_dram_read_ms,
    ssd_read_ms,
    ssd_write_ms,
)


class TestStorageConfig:
    def test_defaults_valid(self):
        config = StorageConfig()
        assert config.remote_dram_capacity_bytes == 2048 * MIB
        assert config.ssd_capacity_bytes == 8192 * MIB

    @pytest.mark.parametrize(
        "kwargs", [{"remote_dram_mb": -1}, {"ssd_capacity_mb": -1}]
    )
    def test_rejects_negative_capacities(self, kwargs):
        with pytest.raises(ValueError, match="non-negative"):
            StorageConfig(**kwargs)

    def test_zero_capacity_allowed(self):
        # A zero-capacity tier is a valid ablation (tier disabled).
        config = StorageConfig(remote_dram_mb=0.0, ssd_capacity_mb=0.0)
        assert config.remote_dram_capacity_bytes == 0

    def test_zero_byte_reads_free(self):
        assert remote_dram_read_ms(0) == 0.0
        assert ssd_read_ms(0) == 0.0
        assert ssd_write_ms(0) == 0.0

    def test_negative_sizes_rejected(self):
        for cost in (remote_dram_read_ms, ssd_read_ms, ssd_write_ms):
            with pytest.raises(ValueError):
                cost(-1)

    def test_batched_read_pays_one_latency(self):
        one = ssd_read_ms(1 * MIB)
        two = ssd_read_ms(2 * MIB)
        # Doubling the bytes must not double the latency component.
        assert two < 2 * one

    def test_tier_cost_ordering(self):
        """One batched transfer orders NODE_DRAM < REMOTE_DRAM < LOCAL_SSD."""
        from repro.sim.network import RdmaFabric

        nbytes = 4 * MIB
        fabric_ms = RdmaFabric().batch_read_ms({1: (1, nbytes)}, local_peer=0)
        assert fabric_ms < remote_dram_read_ms(nbytes)
        assert remote_dram_read_ms(nbytes) < ssd_read_ms(nbytes)

    def test_ssd_writes_slower_than_reads(self):
        assert ssd_write_ms(4 * MIB) > ssd_read_ms(4 * MIB)


class TestTierAccount:
    def test_charge_release_cycle(self):
        account = TierAccount(capacity_bytes=100)
        assert account.fits(100)
        account.charge(60)
        assert account.used_bytes == 60
        assert account.fits(40)
        assert not account.fits(41)
        account.release(60)
        assert account.used_bytes == 0

    def test_overflow_raises(self):
        account = TierAccount(capacity_bytes=10)
        with pytest.raises(TierCapacityError):
            account.charge(11)
        assert account.used_bytes == 0

    def test_underflow_raises(self):
        account = TierAccount(capacity_bytes=10)
        account.charge(5)
        with pytest.raises(RuntimeError, match="underflow"):
            account.release(6)

    def test_negative_amounts_rejected(self):
        account = TierAccount(capacity_bytes=10)
        with pytest.raises(ValueError):
            account.charge(-1)
        with pytest.raises(ValueError):
            account.release(-1)

    def test_charges_accumulate(self):
        account = TierAccount(capacity_bytes=100)
        account.charge(10)
        account.charge(10)
        assert account.used_bytes == 20
        account.release(20)
        assert account.used_bytes == 0


class TestStorageTier:
    def test_three_tiers(self):
        assert {t.value for t in StorageTier} == {
            "node-dram",
            "remote-dram",
            "local-ssd",
        }
