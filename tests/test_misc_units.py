"""Additional fast unit tests: join ordering internals, machine spec
validation, parser error paths, iterator merging."""

import pytest

from repro.errors import ParseError, StorageError
from repro.lsm.iterator import merge_sources, open_level
from repro.lsm.memtable import TOMBSTONE
from repro.lsm.sstable import SSTableBuilder
from repro.lsm.store import ReadStats
from repro.query.join_order import (cumulative_rows, filtered_estimates,
                                     greedy_order, join_selectivity)
from repro.query.logical import analyze
from repro.query.parser import parse_query
from repro.storage.machines import DeviceSpec, HostSpec


class TestJoinOrderInternals:
    def _spec(self, sql, catalog):
        return analyze(parse_query(sql), catalog, sql=sql)

    def test_join_selectivity_uses_max_ndv(self, mini_catalog):
        spec = self._spec(
            "SELECT t.id FROM title AS t, movie_companies AS mc "
            "WHERE t.id = mc.movie_id", mini_catalog)
        sel = join_selectivity(spec, mini_catalog, spec.join_edges[0])
        # title.id has ~400 distinct values in the fixture.
        assert 0 < sel <= 1 / 100

    def _derive(self, spec, catalog):
        estimates = filtered_estimates(spec, catalog)
        order = greedy_order(spec, catalog, estimates)
        return order, estimates, cumulative_rows(spec, catalog, order,
                                                 estimates)

    def test_cartesian_fallback(self, mini_catalog):
        # No join edge at all: ordering must still produce all tables,
        # and each step is the cartesian product of the estimates.
        spec = self._spec(
            "SELECT t.id FROM title AS t, company_type AS ct "
            "WHERE t.kind_id = 1 AND ct.kind = 'kind1'", mini_catalog)
        order, estimates, cumulative = self._derive(spec, mini_catalog)
        assert set(order) == {"t", "ct"}
        assert order[0] == min(sorted(order),
                               key=lambda alias: estimates[alias][1])
        rows = [estimates[alias][1] for alias in order]
        assert cumulative == [rows[0], max(1, rows[0] * rows[1])]

    def test_single_table_order(self, mini_catalog):
        spec = self._spec("SELECT t.id FROM title AS t", mini_catalog)
        order, estimates, cumulative = self._derive(spec, mini_catalog)
        assert order == ["t"]
        assert estimates["t"] == (1.0, 400)
        assert cumulative == [400]

    def test_cumulative_rows_follow_the_given_order(self, mini_catalog):
        # The steps are independent: the cumulative rows of a forced
        # order use that order's prefixes, and the driving table's
        # estimate comes first whichever table drives.
        spec = self._spec(
            "SELECT t.id FROM title AS t, movie_companies AS mc "
            "WHERE t.id = mc.movie_id AND t.kind_id = 1", mini_catalog)
        estimates = filtered_estimates(spec, mini_catalog)
        selectivity = join_selectivity(spec, mini_catalog,
                                       spec.join_edges[0])
        for order in (["t", "mc"], ["mc", "t"]):
            first, second = (estimates[alias][1] for alias in order)
            assert cumulative_rows(spec, mini_catalog, order, estimates) == [
                first, int(round(max(1.0, first * second * selectivity)))]


class TestMachineSpecValidation:
    def test_host_spec_rejects_nonpositive(self):
        with pytest.raises(StorageError):
            HostSpec(cores=0)
        with pytest.raises(StorageError):
            HostSpec(coremark=0)

    def test_device_spec_needs_relay_core(self):
        with pytest.raises(StorageError):
            DeviceSpec(cores=1, ndp_cores=1)

    def test_device_spec_rejects_nonpositive(self):
        with pytest.raises(StorageError):
            DeviceSpec(coremark=0)

    def test_eval_rates_positive(self):
        assert HostSpec().eval_ops_per_second > 0
        assert DeviceSpec().eval_ops_per_second > 0


class TestParserErrorPaths:
    @pytest.mark.parametrize("sql", [
        "SELECT FROM t",                       # empty select list
        "SELECT t.a FROM",                     # missing table
        "SELECT t.a FROM t WHERE",             # dangling where
        "SELECT t.a FROM t WHERE t.a =",       # dangling comparison
        "SELECT t.a FROM t WHERE t.a IN ()",   # empty IN list
        "SELECT t.a FROM t WHERE BETWEEN 1 AND 2",
        "SELECT MIN(t.a FROM t",               # unclosed paren
        "SELECT t.a FROM t LIMIT x",           # non-numeric limit
        "SELECT t.a FROM a.b",                 # qualified table name
    ])
    def test_rejected(self, sql):
        with pytest.raises(ParseError):
            parse_query(sql)

    def test_not_without_predicate_keyword_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT t.a FROM t WHERE t.a NOT = 1")


class TestMergeSources:
    """Sources are cursors ``(entries, sst, index)``; with no SST, the
    entries are the whole source, as a MemTable's are."""

    def test_precedence_shadows_older(self):
        newer = ([(b"a", b"new"), (b"b", b"1")], None, 0)
        older = ([(b"a", b"old"), (b"c", b"2")], None, 0)
        merged = dict(merge_sources([newer, older]))
        assert merged == {b"a": b"new", b"b": b"1", b"c": b"2"}

    def test_live_entries_drops_tombstones(self):
        entries = [(b"a", TOMBSTONE), (b"b", b"v")]
        stats = ReadStats()
        merged = list(merge_sources([(entries, None, 0)], stats=stats))
        assert merged == [(b"b", b"v")]
        assert stats.entries_scanned == 1
        assert list(merge_sources([(entries, None, 0)])) == entries

    def test_tombstone_shadows_older_value(self):
        newer = ([(b"a", TOMBSTONE)], None, 0)
        older = ([(b"a", b"resurrected?")], None, 0)
        merged = list(merge_sources([newer, older], stats=ReadStats()))
        assert merged == []

    def test_empty_sources(self):
        assert list(merge_sources([])) == []
        assert list(merge_sources([None])) == []
        assert list(merge_sources([([], None, 0), None])) == []

    def test_three_way_order(self):
        a = ([(b"1", b"a"), (b"4", b"a")], None, 0)
        b = ([(b"2", b"b")], None, 0)
        c = ([(b"3", b"c"), (b"5", b"c")], None, 0)
        keys = [k for k, _ in merge_sources([a, b, c])]
        assert keys == [b"1", b"2", b"3", b"4", b"5"]


def _two_block_sst(prefix, sst_id):
    """Keys ``prefix`` 1..4, two to a data block (11-byte entries in
    30-byte blocks)."""
    builder = SSTableBuilder(block_size=30)
    for n in range(1, 5):
        builder.add(b"%s%d" % (prefix, n), b"v")
    sst = builder.finish(sst_id=sst_id)
    assert sst.block_count == 2
    return sst


class TestLevelCursor:
    """A level cursor (``open_level``) reads a sorted level's SSTs one
    after another, charged as if each were its own source."""

    def _blocks_per_pull(self, cursors, stats):
        rows = merge_sources(cursors, stats=stats)
        charged = []
        for _ in rows:
            charged.append(stats.data_blocks_read)
        return charged

    def test_alone_it_charges_by_the_held_next_rule(self):
        a, b = _two_block_sst(b"a", 1), _two_block_sst(b"b", 2)
        stats = ReadStats()
        cursor = open_level((a, b), None, None, stats)
        assert (stats.index_blocks_read, stats.data_blocks_read) == (2, 2)
        # Popping a block's last entry pulls the next block: a2 pulls
        # a's second block; a4 steps on to b's block 0, charged at open.
        assert self._blocks_per_pull([cursor], stats) == [
            2, 3, 3, 3, 3, 4, 4, 4]
        eager = ReadStats()
        sources = [a.seek(None, None, eager), b.seek(None, None, eager)]
        assert self._blocks_per_pull(sources, eager) == [
            2, 3, 3, 3, 3, 4, 4, 4]
        assert stats == eager

    def test_a_lone_sst_is_read_one_entry_per_pull(self):
        a = _two_block_sst(b"a", 1)
        stats = ReadStats()
        cursor = a.seek(None, None, stats)
        assert self._blocks_per_pull([cursor], stats) == [1, 1, 2, 2]

    def test_an_sst_starting_at_hi_is_charged_its_index_block_only(self):
        a, b = _two_block_sst(b"a", 1), _two_block_sst(b"b", 2)
        stats = ReadStats()
        cursor = open_level((a, b), b"a2", b"b1", stats)
        assert (stats.index_blocks_read, stats.data_blocks_read) == (2, 1)
        assert stats.bytes_read == a.open_bytes + b.index_bytes
        rows = list(merge_sources([cursor], b"b1", stats))
        assert rows == [(b"a2", b"v"), (b"a3", b"v"), (b"a4", b"v")]
        assert stats.data_blocks_read == 2
