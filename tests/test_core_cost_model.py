"""Tests for the cost model (eqs. 1-8)."""

from dataclasses import replace

import pytest

from repro.core.cost_model import CostModel
from repro.core.hardware import HardwareModel
from repro.query.optimizer import build_plan
from repro.storage.machines import HOST_I5

from tests.conftest import MINI_JOIN_SQL


@pytest.fixture
def hardware(device):
    return HardwareModel.profile(device, HOST_I5)


@pytest.fixture
def cost_model(hardware):
    return CostModel(hardware)


@pytest.fixture
def plan(mini_catalog):
    return build_plan(MINI_JOIN_SQL, mini_catalog)


class TestComponents:
    def test_scan_cost_positive(self, cost_model, plan):
        for entry in plan.entries:
            assert cost_model.scan_cost(entry, on_device=False) > 0
            assert cost_model.scan_cost(entry, on_device=True) > 0

    def test_device_scan_cheaper_per_page(self, cost_model, plan):
        entry = plan.entry("mc")     # full scan entry
        host = cost_model.scan_cost(entry, on_device=False)
        dev = cost_model.scan_cost(entry, on_device=True)
        assert dev < host

    def test_scan_cpu_cost_uses_streaming_factor(self, cost_model, plan):
        entry = plan.entries[0]        # ct: a full scan -> FPGA units
        assert entry.index_column is None
        host = cost_model.cpu_cost(entry, on_device=False)
        dev = cost_model.cpu_cost(entry, on_device=True)
        assert dev == pytest.approx(
            host * cost_model.hardware.streaming_factor(True))

    def test_indexed_cpu_cost_uses_index_factor(self, cost_model, plan):
        entry = plan.entry("t")        # BNLJI through the primary key
        assert entry.index_column is not None
        host = cost_model.cpu_cost(entry, on_device=False)
        dev = cost_model.cpu_cost(entry, on_device=True)
        assert dev == pytest.approx(
            host * cost_model.hardware.index_factor(True))
        # The index path is slower than streaming but far better than
        # the raw CoreMark gap.
        gap = cost_model.hardware.compute_gap
        assert 1.0 < cost_model.hardware.index_factor(True) < gap

    def test_cpu_cost_grows_with_projection(self, cost_model, plan):
        entry = plan.entry("t")
        small = cost_model.cpu_cost(entry, on_device=False)
        wider = replace(entry, projection_bytes=entry.projection_bytes * 4)
        assert cost_model.cpu_cost(wider, on_device=False) > small

    def test_transfer_ndp_ships_less(self, cost_model, plan):
        entry = plan.entry("mc")
        host = cost_model.transfer_cost(entry, on_device=False)
        dev = cost_model.transfer_cost(entry, on_device=True)
        assert dev < host     # early selection + projection on device


class TestPlanCost:
    def test_cumulative_is_monotone(self, cost_model, plan):
        for on_device in (False, True):
            costs = cost_model.plan_cost(plan, on_device).cumulative()
            assert all(b >= a for a, b in zip(costs, costs[1:]))
            assert len(costs) == plan.table_count

    def test_total_matches_last_node(self, cost_model, plan):
        plan_cost = cost_model.plan_cost(plan, on_device=False)
        assert plan_cost.c_total == plan_cost.cumulative()[-1]

    def test_node_lookup(self, cost_model, plan):
        plan_cost = cost_model.plan_cost(plan, on_device=False)
        assert plan_cost.node("mc").alias == "mc"

    def test_host_and_device_totals_exposed(self, cost_model, plan):
        assert cost_model.host_total(plan) > 0
        assert cost_model.device_total(plan) > 0

    def test_compute_heavy_plan_expensive_on_device(self, cost_model,
                                                    plan):
        # The mini plan evaluates many mc records; the 31x gap should
        # make the device's CPU share dominate for full offload.
        host_nodes = cost_model.plan_cost(plan, on_device=False).nodes
        dev_nodes = cost_model.plan_cost(plan, on_device=True).nodes
        host_cpu = sum(node.c_cpu for node in host_nodes)
        dev_cpu = sum(node.c_cpu for node in dev_nodes)
        assert dev_cpu > host_cpu


class TestUserParameters:
    def test_usr_rec_scales_cpu(self, hardware, plan):
        cheap = CostModel(hardware, usr_rec=0.1)
        pricey = CostModel(hardware, usr_rec=0.2)
        entry = plan.entries[0]
        assert pricey.cpu_cost(entry, False) == pytest.approx(
            2 * cheap.cpu_cost(entry, False))
