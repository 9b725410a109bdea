"""The LSM read path against its retained entry-at-a-time reference.

:mod:`repro.lsm.iterator` reads through block cursors, hashes a key once
per point lookup and merges without a generator per entry;
:mod:`tests.lsmref` keeps the read path it replaced.  Over seeded
random histories of puts, deletes, write batches and flushes — with
leveled or tiered compaction cycling underneath — every read is run
through both, on the live tree and on pinned ``SnapshotView`` captures
with bloom filters on and off, each side with its own ``ReadStats`` and
(optionally) its own ``BlockCache``.  After every read the two must
agree on the rows, on every ``ReadStats`` field and on the cache's
hit/miss counts and LRU order; the rows must also match a dict model.
Scans are abandoned after k rows, or opened (and partly read) before
writes and drained after them, so the charges of a scan that stops
early are compared too.  Some scans sit at the boundary of two SSTs of
a sorted level: they start at the earlier one's last key, or end at the
later one's ``min_key``, whose fences admit the exclusive ``hi``, so it
is opened (an index block charged) with no key in range.

A sorted level with two or more SSTs in range is read through one level
cursor that steps from SST to SST; the reference opens every SST.  Each
leveled history counts the reads in which a level cursor stepped on to
a later SST before the consumer stopped, per kind of read (live, or a
capture with blooms on or off), and requires every kind to have some.

The ``slow`` variant runs many more histories (``--runslow``).
"""

import random
from dataclasses import asdict
from itertools import islice

import pytest

from repro.lsm.bloom import BloomFilter
from repro.lsm.cache import BlockCache
from repro.lsm.iterator import LevelRun, merge_sources
from repro.lsm.memtable import TOMBSTONE
from repro.lsm.snapshot import FamilySnapshot, SnapshotView
from repro.lsm.sstable import SSTable, SSTableBuilder
from repro.lsm.store import LSMConfig, LSMTree, ReadStats, WriteBatch
from tests import lsmref

KEY_SPACE = 240
STEPS = 400
#: Small enough to evict constantly, large enough to hit.
CACHE_BYTES = 3000
#: The share of scans drawn at a boundary of two SSTs of a sorted level.
BOUNDARY_SHARE = 0.5


def _key(rng):
    index = rng.randrange(KEY_SPACE)
    # Now and then a key between two stored ones.
    return b"k%04d" % index + (b"x" if rng.random() < 0.1 else b"")


def _value(rng):
    return bytes(rng.choice(b"abcdefgh") for _ in range(rng.randrange(1, 40)))


def _config(compaction):
    return LSMConfig(memtable_size=1024, block_size=256,
                     level_base_bytes=1024, size_ratio=2,
                     sst_target_bytes=768, max_levels=5,
                     compaction=compaction, tiered_fanout=3)


def _even(value):
    return len(value) % 2 == 0


class _Side:
    """One read path's charges: its stats and its own block cache."""

    def __init__(self, cache_bytes):
        self.cache = None if cache_bytes is None else BlockCache(cache_bytes)
        self.stats = ReadStats(cache=self.cache)

    def state(self):
        counts = asdict(self.stats)
        counts.pop("cache")
        if self.cache is None:
            return counts, None
        return counts, (self.cache.hits, self.cache.misses,
                        self.cache.lru_state())


def _expected_scan(model, lo, hi, predicate):
    return [(key, value) for key, value in sorted(model.items())
            if (lo is None or key >= lo) and (hi is None or key < hi)
            and (predicate is None or predicate(value))]


class _StepSpy:
    """Counts the blocks level cursors read from SSTs after their first
    (a block whose first key lies past the first SST's ``max_key``)."""

    def __init__(self, monkeypatch):
        self.blocks = 0
        blocks_after = LevelRun.blocks_after

        def spy(run, index, hi, stats):
            for block in blocks_after(run, index, hi, stats):
                if block[0][0] > run.first.max_key:
                    self.blocks += 1
                yield block

        monkeypatch.setattr(LevelRun, "blocks_after", spy)


class _History:
    """One seeded history: a tree, a dict model, pinned captures and the
    two read paths' charges.

    ``boundary_scans`` adds scans at the boundary of two SSTs of a
    sorted level (see :meth:`_boundary_scan_args`); without it the
    history draws exactly what it drew before those scans existed.  With a
    ``spy``, ``stepped`` counts per kind of read the abandoned scans in
    which a level cursor stepped on to a later SST."""

    def __init__(self, seed, compaction, cache_bytes, boundary_scans=True,
                 spy=None):
        self.rng = random.Random(seed)
        self.tree = LSMTree(config=_config(compaction))
        self.model = {}
        self.captures = []      # (snapshot, model as of the capture)
        self.new = _Side(cache_bytes)
        self.ref = _Side(cache_bytes)
        self.reads = 0
        self.boundary_scans = boundary_scans
        self.fenced = 0
        self.spy = spy
        self.stepped = {kind: 0 for kind in _KINDS}

    # -- writes ------------------------------------------------------
    def write(self):
        rng, tree, model = self.rng, self.tree, self.model
        draw = rng.random()
        if draw < 0.6:
            key, value = _key(rng), _value(rng)
            tree.put(key, value)
            model[key] = value
        elif draw < 0.8:
            key = _key(rng)
            tree.delete(key)
            model.pop(key, None)
        elif draw < 0.93:
            batch = WriteBatch()
            for _ in range(rng.randrange(2, 7)):
                key = _key(rng)
                if rng.random() < 0.7:
                    value = _value(rng)
                    batch.put(key, value)
                    model[key] = value
                else:
                    batch.delete(key)
                    model.pop(key, None)
            tree.apply_batch(batch)
        else:
            tree.freeze_and_flush()

    # -- read targets --------------------------------------------------
    def _target(self):
        """``(new reader, reference inputs, bloom, model)`` of the live
        tree or of a capture."""
        rng = self.rng
        if rng.random() < 0.6 or not self.captures:
            if rng.random() < 0.3:
                snapshot = FamilySnapshot.capture("default", self.tree)
                self.captures.append((snapshot, dict(self.model)))
            else:
                tree = self.tree
                return (tree, lambda: (tree.memtable,
                                       tree.levels.lookup_plan()),
                        True, self.model)
        snapshot, model = rng.choice(self.captures[-4:])
        bloom = rng.random() < 0.5
        return (SnapshotView(snapshot, use_bloom_filters=bloom),
                lambda: (snapshot.memtable, snapshot.lookup_plan),
                bloom, model)

    def _scan_args(self, plan):
        rng = self.rng
        if self.boundary_scans and rng.random() < BOUNDARY_SHARE:
            args = self._boundary_scan_args(plan)
            if args is not None:
                return args
        lo = _key(rng) if rng.random() < 0.8 else None
        if lo is not None and rng.random() < 0.3:
            # A narrow range: often one SST, so one source.
            hi = b"k%04d" % (int(lo[1:5]) + rng.randrange(1, 16))
        else:
            hi = _key(rng) if rng.random() < 0.5 else None
        if lo is not None and hi is not None and rng.random() < 0.8:
            lo, hi = min(lo, hi), max(lo, hi)
        predicate = _even if rng.random() < 0.2 else None
        return lo, hi, predicate

    def _boundary_scan_args(self, plan):
        """A range at the boundary of two SSTs of a sorted level, so the
        level cursor covers both; None when no level has two.  It ends
        at the later SST's ``min_key`` (whose fences admit the exclusive
        ``hi``: it is opened with no key in range), or starts at the
        earlier one's ``max_key``, so the cursor steps on within a few
        rows; a narrow one often leaves the cursor the only source."""
        rng = self.rng
        pairs = [pair for overlapping, ssts, _min, _max in plan.levels
                 if not overlapping for pair in zip(ssts, ssts[1:])]
        if not pairs:
            return None
        before, after = rng.choice(pairs)
        predicate = _even if rng.random() < 0.2 else None
        draw = rng.random()
        if draw < 0.25:
            self.fenced += 1
            hi = after.min_key
            lo = None if rng.random() < 0.2 else min(_key(rng), hi)
        else:
            lo = before.max_key
            hi = (after.min_key + b"\0" if draw < 0.45
                  else None if draw < 0.75 else max(_key(rng), lo))
        return lo, hi, predicate

    def _check(self, got, want, expected):
        assert got == want, "rows differ from the reference read path"
        assert got == expected, "rows differ from the dict model"
        assert self.new.state() == self.ref.state(), (
            f"charges differ after read {self.reads}")
        self.reads += 1

    # -- reads -----------------------------------------------------------
    def get(self):
        reader, inputs, bloom, model = self._target()
        key = _key(self.rng)
        got = reader.get(key, self.new.stats)
        memtable, plan = inputs()
        want = lsmref.point_lookup(memtable, plan, key, self.ref.stats,
                                   bloom)
        self._check(got, want, model.get(key))

    def scan(self):
        reader, inputs, bloom, model = self._target()
        lo, hi, predicate = self._scan_args(inputs()[1])
        rows = reader.scan(lo, hi, predicate, self.new.stats)
        reference = lsmref.range_scan(inputs, lo, hi, predicate,
                                      self.ref.stats)
        limit = (None if self.rng.random() < 0.4
                 else self.rng.randrange(0, 12))
        stepped = self.spy.blocks if self.spy else 0
        got = list(islice(rows, limit))
        want = list(islice(reference, limit))
        expected = _expected_scan(model, lo, hi, predicate)
        self._check(got, want, expected[:limit])
        if (self.spy and self.spy.blocks > stepped and limit is not None
                and len(expected) > limit):
            live = reader is self.tree
            self.stepped["live" if live else
                         "capture, bloom" if bloom else
                         "capture, no bloom"] += 1

    def scan_across_writes(self):
        """Open a live scan, pull some rows, write, then drain it."""
        tree = self.tree
        lo, hi, predicate = self._scan_args(tree.levels.lookup_plan())
        rows = tree.scan(lo, hi, predicate, self.new.stats)
        reference = lsmref.range_scan(
            lambda: (tree.memtable, tree.levels.lookup_plan()), lo, hi,
            predicate, self.ref.stats)
        pulled = self.rng.choice((0, 1, 3))
        got = list(islice(rows, pulled))
        want = list(islice(reference, pulled))
        # A scan sees the tree as of its first next().
        seen = dict(self.model)
        for _ in range(self.rng.randrange(1, 12)):
            self.write()
        if not pulled:
            seen = self.model
        got += rows
        want += reference
        self._check(got, want, _expected_scan(seen, lo, hi, predicate))

    def run(self, steps):
        rng = self.rng
        for _ in range(steps):
            draw = rng.random()
            if draw < 0.45:
                self.write()
            elif draw < 0.7:
                self.get()
            elif draw < 0.9:
                self.scan()
            elif draw < 0.95:
                # An empty MemTable: a narrow scan may read one SST.
                self.tree.freeze_and_flush()
                self.scan()
            else:
                self.scan_across_writes()
        # Finish with a read of everything and a flush of everything.
        self.tree.freeze_and_flush()
        self.scan()
        return self


#: The kinds of read :attr:`_History.stepped` counts.
_KINDS = ("live", "capture, bloom", "capture, no bloom")


def _histories(seeds):
    return [(seed, compaction, cache_bytes)
            for seed in seeds
            for compaction in ("leveled", "tiered")
            for cache_bytes in (None, CACHE_BYTES)]


@pytest.mark.parametrize("seed,compaction,cache_bytes", _histories(range(3)))
def test_read_path_matches_reference(seed, compaction, cache_bytes,
                                     monkeypatch):
    spy = _StepSpy(monkeypatch)
    history = _History(seed, compaction, cache_bytes, spy=spy).run(STEPS)
    assert history.reads > 100
    assert history.tree.compactor.stats.compactions > 0
    if compaction == "leveled":
        # Tiered levels overlap, so only leveled trees have level cursors.
        assert history.fenced > 0
        assert all(history.stepped.values()), history.stepped


def test_lone_level_cursor_keeps_the_held_next_rule():
    """Seed 2, leveled, no cache, as drawn before boundary scans existed:
    at its read 118 a level cursor is a scan's only source.  Read one
    entry per pull, as a lone SST is, it charged one data block fewer
    than the SSTs it covers charge as separate sources."""
    history = _History(2, "leveled", None, boundary_scans=False).run(STEPS)
    assert history.reads > 118


@pytest.mark.slow
def test_read_path_matches_reference_many_histories():
    for seed, compaction, cache_bytes in _histories(range(100, 150)):
        _History(seed, compaction, cache_bytes).run(3 * STEPS)


def test_a_scan_seeks_one_sst_per_sorted_level(monkeypatch):
    """The oracle cannot see laziness (charges are equal by design), so
    count the work: a 50-row scan seeks every C1 SST in range but one
    SST per sorted level, not every SST whose fences overlap."""
    rng = random.Random(11)
    tree = LSMTree(config=_config("leveled"))
    model = {}
    for _ in range(3000):
        key, value = _key(rng), _value(rng)
        tree.put(key, value)
        model[key] = value
    plan = tree.levels.lookup_plan()
    assert max(len(ssts) for _o, ssts, _min, _max in plan.levels) > 5
    sought = []
    seek = SSTable.seek

    def spy(sst, lo=None, hi=None, stats=None):
        sought.append(sst)
        return seek(sst, lo, hi, stats)

    monkeypatch.setattr(SSTable, "seek", spy)
    lazy = 0
    for index in range(0, KEY_SPACE, 6):
        lo = b"k%04d" % index
        sought.clear()
        rows = list(islice(tree.scan(lo=lo), 50))
        assert rows == _expected_scan(model, lo, None, None)[:50]
        in_range = [(overlapping, [sst for sst in ssts
                                   if sst.overlaps(lo, None)])
                    for overlapping, ssts, _min, _max in plan.levels]
        bound = sum(len(ssts) if overlapping else min(len(ssts), 1)
                    for overlapping, ssts in in_range)
        assert len(sought) <= bound
        if any(len(ssts) > 1 for overlapping, ssts in in_range
               if not overlapping):
            assert len(sought) < sum(len(ssts) for _o, ssts in in_range)
            lazy += 1
    assert lazy > 10


def _random_sst(rng, sst_id):
    keys = sorted(rng.sample(range(KEY_SPACE), rng.randrange(1, 60)))
    builder = SSTableBuilder(block_size=128)
    for index in keys:
        builder.add(b"k%04d" % index,
                    TOMBSTONE if rng.random() < 0.2 else _value(rng))
    return builder.finish(sst_id=sst_id)


@pytest.mark.parametrize("seed", range(20))
def test_compaction_merge_matches_reference(seed):
    """Without stats the merge is compaction's: tombstones kept."""
    rng = random.Random(seed)
    ssts = [_random_sst(rng, sst_id) for sst_id in range(rng.randrange(1, 6))]
    got = list(merge_sources([sst.seek() for sst in ssts]))
    want = list(lsmref.merge_sources(
        [lsmref.iter_range(sst) for sst in ssts]))
    assert got == want


def test_bloom_probe_matches_reference():
    rng = random.Random(5)
    bloom = BloomFilter(300)
    bloom.add_many([b"k%05d" % rng.randrange(10 ** 5) for _ in range(300)])
    keys = [b"k%05d" % index for index in range(3000)]
    assert ([bloom.might_contain(key) for key in keys]
            == [lsmref.bloom_might_contain(bloom, key) for key in keys])
    assert any(bloom.might_contain(key) for key in keys)
    assert not all(bloom.might_contain(key) for key in keys)
