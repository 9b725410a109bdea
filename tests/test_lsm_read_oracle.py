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
early are compared too.

The ``slow`` variant runs many more histories (``--runslow``).
"""

import random
from dataclasses import asdict
from itertools import islice

import pytest

from repro.lsm.bloom import BloomFilter
from repro.lsm.cache import BlockCache
from repro.lsm.iterator import merge_sources
from repro.lsm.memtable import TOMBSTONE
from repro.lsm.snapshot import FamilySnapshot, SnapshotView
from repro.lsm.sstable import SSTableBuilder
from repro.lsm.store import LSMConfig, LSMTree, ReadStats, WriteBatch
from tests import lsmref

KEY_SPACE = 240
STEPS = 400
#: Small enough to evict constantly, large enough to hit.
CACHE_BYTES = 3000


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


class _History:
    """One seeded history: a tree, a dict model, pinned captures and the
    two read paths' charges."""

    def __init__(self, seed, compaction, cache_bytes):
        self.rng = random.Random(seed)
        self.tree = LSMTree(config=_config(compaction))
        self.model = {}
        self.captures = []      # (snapshot, model as of the capture)
        self.new = _Side(cache_bytes)
        self.ref = _Side(cache_bytes)
        self.reads = 0

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

    def _scan_args(self):
        rng = self.rng
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
        reader, inputs, _bloom, model = self._target()
        lo, hi, predicate = self._scan_args()
        rows = reader.scan(lo, hi, predicate, self.new.stats)
        reference = lsmref.range_scan(inputs, lo, hi, predicate,
                                      self.ref.stats)
        limit = (None if self.rng.random() < 0.4
                 else self.rng.randrange(0, 12))
        got = list(islice(rows, limit))
        want = list(islice(reference, limit))
        self._check(got, want,
                    _expected_scan(model, lo, hi, predicate)[:limit])

    def scan_across_writes(self):
        """Open a live scan, pull some rows, write, then drain it."""
        tree = self.tree
        lo, hi, predicate = self._scan_args()
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


def _histories(seeds):
    return [(seed, compaction, cache_bytes)
            for seed in seeds
            for compaction in ("leveled", "tiered")
            for cache_bytes in (None, CACHE_BYTES)]


@pytest.mark.parametrize("seed,compaction,cache_bytes", _histories(range(3)))
def test_read_path_matches_reference(seed, compaction, cache_bytes):
    history = _History(seed, compaction, cache_bytes).run(STEPS)
    assert history.reads > 100
    assert history.tree.compactor.stats.compactions > 0


@pytest.mark.slow
def test_read_path_matches_reference_many_histories():
    for seed, compaction, cache_bytes in _histories(range(100, 150)):
        _History(seed, compaction, cache_bytes).run(3 * STEPS)


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
