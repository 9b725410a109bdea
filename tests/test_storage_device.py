"""Tests for the smart-storage device (buffer policy, timing paths)."""

import pytest

from repro.errors import DeviceOverloadError, StorageError
from repro.storage.machines import COSMOS_PLUS, HOST_I5, enterprise_device


class TestBufferPolicy:
    def test_cosmos_budget_is_about_400mb(self, device):
        budget_mb = device.buffer_budget / (1024 * 1024)
        assert 380 <= budget_mb <= 430

    def test_paper_table_caps(self, device):
        # Paper §5: at most 12 tables with secondary indexes, 17 without.
        assert device.max_tables(with_secondary_index=True) == 12
        assert device.max_tables(with_secondary_index=False) == 17

    def test_pipeline_cost_uses_17_17_7(self, device):
        spec = device.spec
        cost = device.pipeline_cost_bytes(selections=2, secondary_indexes=1,
                                          joins=1)
        expected = (2 * spec.selection_buffer_bytes
                    + spec.secondary_index_buffer_bytes
                    + spec.join_buffer_bytes)
        assert cost == expected

    def test_reserve_and_release(self, device):
        reservation = device.reserve_pipeline(3, 1, 2)
        assert device.reserved_bytes == reservation.total_bytes
        device.release_pipeline(reservation)
        assert device.reserved_bytes == 0

    def test_overload_raises(self, device):
        with pytest.raises(DeviceOverloadError):
            device.reserve_pipeline(selections=30, secondary_indexes=30,
                                    joins=30)

    def test_overload_leaves_budget_untouched(self, device):
        before = device.available_bytes
        with pytest.raises(DeviceOverloadError):
            device.reserve_pipeline(selections=100)
        assert device.available_bytes == before

    def test_concurrent_reservations_accumulate(self, device):
        first = device.reserve_pipeline(5, 0, 4)
        second = device.reserve_pipeline(5, 0, 4)
        assert device.reserved_bytes == (first.total_bytes
                                         + second.total_bytes)
        with pytest.raises(DeviceOverloadError):
            device.reserve_pipeline(12, 12, 11)

    def test_release_unknown_reservation_rejected(self, device):
        reservation = device.reserve_pipeline(1)
        device.release_pipeline(reservation)
        with pytest.raises(StorageError):
            device.release_pipeline(reservation)

    def test_negative_counts_rejected(self, device):
        with pytest.raises(StorageError):
            device.pipeline_cost_bytes(-1)

    def test_can_host_pipeline_matches_reserve(self, device):
        assert device.can_host_pipeline(12, 12, 11) is False
        assert device.can_host_pipeline(5, 2, 4) is True


class TestTimingPaths:
    def test_internal_read_beats_external(self, device):
        nbytes = 32 * 1024 * 1024
        assert device.read_internal(nbytes) < device.read_external(nbytes)

    def test_result_transfer_uses_link(self, device):
        time = device.transfer_results(1024 * 1024)
        assert time > 0

    def test_reservation_describe(self, device):
        reservation = device.reserve_pipeline(2, 1, 1)
        text = reservation.describe()
        assert "2 selection" in text
        assert "MB" in text


class TestSpecs:
    def test_coremark_gap_is_about_31x(self):
        gap = HOST_I5.eval_ops_per_second / COSMOS_PLUS.eval_ops_per_second
        assert gap == pytest.approx(92343.0 / 2964.0, rel=1e-6)

    def test_enterprise_device_is_stronger(self):
        enterprise = enterprise_device()
        assert enterprise.ndp_cores > COSMOS_PLUS.ndp_cores
        assert enterprise.coremark > COSMOS_PLUS.coremark
        assert enterprise.dram_bytes > COSMOS_PLUS.dram_bytes

    def test_device_keeps_a_relay_core(self):
        assert COSMOS_PLUS.cores - COSMOS_PLUS.ndp_cores >= 1
