"""Tests for host/NDP engines, stacks, and cooperative execution.

Correctness anchor: every strategy (BLK, NATIVE, H0..Hn, full NDP) must
produce the same rows.  A hand-computed reference validates the host
engine itself.
"""

import pytest

from repro.engine.stacks import Stack, StackRunner
from repro.errors import DeviceOverloadError, PlanError
from repro.storage.device import SmartStorageDevice
from repro.storage.topology import Topology

from tests.conftest import MINI_JOIN_SQL


@pytest.fixture
def runner(mini_catalog, kv_db, flash):
    device = Topology.single(flash=flash).device
    return StackRunner(mini_catalog, kv_db, device, buffer_scale=0.001)


def reference_mini_join():
    """Hand-evaluated answer for MINI_JOIN_SQL over the fixture data.

    ct: only id=0 has kind 'production companies'.
    mc: company_type_id == 0 -> ids i with i % 4 == 0; all notes match
    the OR of LIKE patterns.  t: production_year between 1960 and 1980
    -> ids with 1950 + id%70 in [1960, 1980].  Join on movie_id == t.id.
    """
    matches = []
    for i in range(800):
        if i % 4 != 0:
            continue
        movie = i % 400
        year = 1950 + movie % 70
        if 1960 <= year <= 1980:
            matches.append((f"Movie {movie}", year))
    return (min(title for title, _ in matches),
            min(year for _, year in matches))


class TestHostEngine:
    def test_matches_reference(self, runner):
        report = runner.run(MINI_JOIN_SQL, Stack.NATIVE)
        title, year = reference_mini_join()
        row = report.result.rows[0]
        assert row["movie_title"] == title
        assert row["yr"] == year

    def test_blk_slower_than_native(self, runner):
        blk = runner.run(MINI_JOIN_SQL, Stack.BLK)
        native = runner.run(MINI_JOIN_SQL, Stack.NATIVE)
        assert blk.total_time > native.total_time
        assert blk.result.sorted_rows() == native.result.sorted_rows()

    def test_counters_populated(self, runner):
        report = runner.run(MINI_JOIN_SQL, Stack.NATIVE)
        assert report.host_counters.records_evaluated > 0
        assert report.host_counters.flash_bytes_read > 0
        assert report.host_breakdown.total == pytest.approx(
            report.total_time)


class TestAllStrategiesAgree:
    def test_results_identical_across_strategies(self, runner):
        reports = runner.run_all_splits(MINI_JOIN_SQL)
        baseline = None
        for name, report in reports.items():
            assert not isinstance(report, Exception), f"{name}: {report}"
            if baseline is None:
                baseline = report.result.sorted_rows()
            assert report.result.sorted_rows() == baseline, name

    def test_strategy_labels(self, runner):
        reports = runner.run_all_splits(MINI_JOIN_SQL)
        assert set(reports) == {"host-only", "H0", "H1", "H2", "full-ndp"}


class TestCooperativeExecution:
    def test_split_index_bounds(self, runner):
        plan = runner.plan(MINI_JOIN_SQL)
        with pytest.raises(PlanError):
            runner.run(plan, Stack.HYBRID, split_index=plan.table_count)
        with pytest.raises(PlanError):
            runner.run(plan, Stack.HYBRID)      # missing split

    def test_report_accounting(self, runner):
        report = runner.run(MINI_JOIN_SQL, Stack.HYBRID, split_index=1)
        assert report.strategy == "H1"
        assert report.split_index == 1
        assert report.batches >= 1
        assert report.setup_time > 0
        assert report.device_busy_time > 0
        assert report.transfer_time > 0
        assert report.total_time >= report.device_busy_time

    def test_timeline_is_consistent(self, runner):
        report = runner.run(MINI_JOIN_SQL, Stack.HYBRID, split_index=1)
        assert report.timeline
        for phase in report.timeline:
            assert phase.end >= phase.start
            assert phase.actor in ("host", "device")
            assert phase.kind in ("setup", "compute", "transfer", "wait",
                                  "stall")
        last_end = max(phase.end for phase in report.timeline)
        assert last_end == pytest.approx(report.total_time, rel=0.01)

    def test_host_waits_before_first_batch(self, runner):
        report = runner.run(MINI_JOIN_SQL, Stack.HYBRID, split_index=1)
        assert report.host_wait_initial > 0

    def test_device_buffers_released_after_run(self, runner):
        device = runner.device
        runner.run(MINI_JOIN_SQL, Stack.HYBRID, split_index=2)
        assert device.reserved_bytes == 0

    def test_buffers_released_even_on_overload(self, mini_catalog, kv_db,
                                               flash):
        from dataclasses import replace
        from repro.storage.machines import COSMOS_PLUS
        weak_spec = replace(COSMOS_PLUS,
                            temp_storage_bytes=140 * 1024 * 1024)
        weak = SmartStorageDevice(spec=weak_spec, flash=flash)
        runner = StackRunner(mini_catalog, kv_db, weak, buffer_scale=0.001)
        with pytest.raises(DeviceOverloadError):
            runner.run(MINI_JOIN_SQL, Stack.HYBRID, split_index=2)
        assert weak.reserved_bytes == 0

    def test_stage_shares_sum_close_to_100(self, runner):
        report = runner.run(MINI_JOIN_SQL, Stack.HYBRID, split_index=1)
        shares = report.host_stage_shares()
        assert 60 <= sum(shares.values()) <= 140


class TestFullNDP:
    def test_aggregates_computed_on_device(self, runner):
        report = runner.run(MINI_JOIN_SQL, Stack.NDP)
        assert report.strategy == "full-ndp"
        assert report.device_counters.records_evaluated > 0
        assert report.host_counters.records_evaluated == 0
        title, year = reference_mini_join()
        assert report.result.rows[0]["movie_title"] == title

    def test_pointer_cache_engages_for_three_tables(self, runner):
        report = runner.run(MINI_JOIN_SQL, Stack.NDP)
        assert report.notes["pointer_cache"] is True

    def test_row_cache_for_two_tables(self, runner):
        sql = ("SELECT MIN(t.title) AS x FROM title AS t, "
               "movie_companies AS mc WHERE t.id = mc.movie_id")
        report = runner.run(sql, Stack.NDP)
        assert report.notes["pointer_cache"] is False


class TestNDPCommand:
    def test_command_carries_shared_state(self, runner):
        plan = runner.plan(MINI_JOIN_SQL)
        ndp = runner.ndp_engine
        command = ndp.prepare_command(plan, plan.entries[:2], [])
        assert command.shared_state is not None
        assert len(command.shared_state) >= 2     # primary CFs + indexes
        assert command.payload_bytes > 256

    def test_pipeline_shape(self, runner):
        plan = runner.plan(MINI_JOIN_SQL)
        ndp = runner.ndp_engine
        command = ndp.prepare_command(plan, plan.entries, [],
                                      aggregates_on_device=False)
        selections, _secondary, joins, group_bys = command.pipeline_shape()
        assert selections == plan.table_count
        assert joins == plan.join_count
        assert group_bys == 0

    def test_can_offload_preflight(self, runner):
        plan = runner.plan(MINI_JOIN_SQL)
        assert runner.ndp_engine.can_offload(plan.entries) is True

    def test_ndp_mode_required(self, runner):
        runner.device.ndp_mode = False
        plan = runner.plan(MINI_JOIN_SQL)
        from repro.errors import OffloadError
        with pytest.raises(OffloadError):
            runner.ndp_engine.prepare_command(plan, plan.entries, [])
        runner.device.ndp_mode = True
