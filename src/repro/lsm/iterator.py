"""The LSM read path: one point lookup, one range scan, and the merge.

A GET/SCAN must see the newest version of each key: the MemTable first,
then C1 SSTs newest-first, then lower levels.  The merging iterator
performs a k-way merge with precedence-based shadowing; on the read
path it drops tombstones as it goes.

:func:`point_lookup` and :func:`range_scan` are the whole read path,
for the live tree and for a pinned capture alike (paper §2.1: the
device reads its shared state "exactly like the live read path").  Each
reads a :class:`~repro.lsm.memtable.MemTable` and a
:class:`~repro.lsm.levels.LookupPlan`: the live tree passes its active
MemTable and its current plan, a capture the frozen MemTable of its
shipped entries and the plan it pinned.  Bloom probing is the only
switch: the host probes, the device does not (§2.2).

Both charge one ``ReadStats`` convention: a point read counts one
``memtable_gets``, counts ``ssts_considered`` for every SST whose fences
admit the key (before any bloom probe) and no fence skips; a scan counts
a fence skip for every SST outside its range.  Where the block charges
land:

- a point read hashes its key once (:func:`~repro.lsm.bloom.key_hashes`)
  and probes each candidate SST's filter with that pair, then charges
  the index and data block of the SSTs it searches;
- a scan opens its sources at its first ``next()``.  A C1 or tiered
  SST, and a sorted level with one SST in range, is one source, opened
  with :meth:`~repro.lsm.sstable.SSTable.seek`: its index block and the
  data block holding its first key in range are charged then.  A sorted
  level (C2..CK, key-disjoint) with two or more SSTs in range is one
  *level cursor* (:func:`open_level`, RocksDB's ``LevelIterator``): only
  its first SST is sought, and the cursor steps on to the next SST's
  block 0 when the merge has used up the previous one.  Each later
  SST is still charged at open what a seek of it would charge, its
  index block and, unless it starts at or past ``hi``, its block 0, in
  level order;
- any later data block is charged when the merge first needs an entry
  from it.  The merge holds each source's next entry, so popping a
  block's last entry pulls (and charges) the following block; a lone
  single-SST source is read one entry per pull, while a level cursor
  keeps the held-next rule even alone, as its SSTs would as separate
  sources.  A consumer that stops after k rows is charged for exactly
  the blocks those pulls reached.
"""

from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heapreplace
from itertools import chain

from repro.lsm.bloom import key_hashes
from repro.lsm.memtable import TOMBSTONE

_from_blocks = chain.from_iterable
#: A cursor with nothing left to read.
_SPENT = ((), None, 0)


def point_lookup(memtable, plan, key, stats, bloom):
    """The newest value of ``key`` (None when absent or deleted).

    Follows the C0 -> C1 -> Ck search order, charging ``stats``; with
    ``bloom`` every candidate SST's filter is probed before its blocks.
    """
    stats.memtable_gets += 1
    found, value = memtable.get(key)
    if found:
        return value  # may be None for a tombstone
    considered = negatives = 0
    if bloom:
        h1, h2 = key_hashes(key)
    for sst in plan.candidates(key):
        considered += 1
        if bloom and not sst.bloom.probe(h1, h2):
            negatives += 1
            continue
        found, value = sst.get(key, stats)
        if found:
            break
    stats.ssts_considered += considered
    if bloom:
        stats.bloom_probes += considered
        stats.bloom_negatives += negatives
        stats.ssts_skipped_bloom += negatives
    return value  # None when absent, or a tombstone


def range_scan(inputs, lo, hi, value_predicate, stats):
    """Live entries in [lo, hi), merged over the MemTable and SSTs.

    ``inputs()`` returns the ``(memtable, plan)`` pair to read and is
    called at the first ``next()``, so a scan of the live tree sees the
    tree as it is then: writes, flushes and compactions made while the
    scan is open do not reach it (see :class:`MemTable`).  With a
    ``value_predicate`` the scan still touches every entry of the range
    (the substantial-I/O case NDP targets, paper §2.2); the predicate
    filters the output stream.
    """
    rows = merge_sources(_open_sources(inputs, lo, hi, stats), hi, stats)
    if value_predicate is None:
        return rows
    return (row for row in rows if value_predicate(row[1]))


def _open_sources(inputs, lo, hi, stats):
    """A scan's cursors, newest first: the MemTable's entries in range
    (when it holds any entry at all), then per level either one
    :meth:`~repro.lsm.sstable.SSTable.seek` per SST whose fences overlap
    [lo, hi] (None when it has no key in range; it still counts as a
    source) or, for a sorted level with two or more such SSTs, one
    :func:`open_level` cursor.  A sorted level is bisected once on its
    fences; an overlapping one is fenced SST by SST."""
    memtable, plan = inputs()
    considered = 0
    if len(memtable):
        yield memtable.items(lo=lo, hi=hi), None, 0
    for overlapping, ssts, min_keys, max_keys in plan.levels:
        if overlapping:
            for sst in ssts:
                if sst.overlaps(lo, hi):
                    considered += 1
                    yield sst.seek(lo, hi, stats)
            continue
        start = 0 if lo is None else bisect_left(max_keys, lo)
        end = len(ssts) if hi is None else bisect_right(min_keys, hi)
        if end - start == 1:
            considered += 1
            yield ssts[start].seek(lo, hi, stats)
        elif end - start > 1:
            considered += end - start
            yield open_level(ssts[start:end], lo, hi, stats)
    stats.ssts_considered += considered
    stats.ssts_skipped_fence += len(plan.ssts) - considered


def open_level(run, lo, hi, stats):
    """One cursor over ``run``, two or more consecutive SSTs of a sorted
    level whose fences overlap [lo, hi].

    Seeks the first SST, then charges every later one what its own
    :meth:`~repro.lsm.sstable.SSTable.seek` would charge (``lo`` lies
    below its ``min_key``): the index block and, unless it starts at or
    past ``hi``, block 0.  Without a cache the charges are added in
    bulk; with one they go through it SST by SST, in level order, as
    seeks would.  These up-front charges keep a scan's ``ReadStats``
    and cache touches equal to seeking every SST; a scan charged only
    for the SSTs it reaches would drop them.  Only the last SST can
    start at or past ``hi`` (the fences are checked with ``hi``
    inclusive); it has no entry to read.

    The first SST always has a key in [lo, hi): its successor starts
    above its ``max_key`` and at or below ``hi``, and its ``max_key`` is
    at least ``lo``.
    """
    entries, first, index = run[0].seek(lo, hi, stats)
    later = run[1:]
    fenced_bytes = 0
    if hi is not None and later[-1].min_key >= hi:
        fenced_bytes = later[-1].index_bytes
        later = later[:-1]
    if stats.cache is not None:
        for sst in run[1:]:
            sst.charge_open(hi, stats)
    else:
        stats.index_blocks_read += len(run) - 1
        stats.data_blocks_read += len(later)
        stats.bytes_read += fenced_bytes + sum(
            sst.open_bytes for sst in later)
    return entries, LevelRun(first, later), index


class LevelRun:
    """The SSTs a level cursor reads: where its first SST's blocks run
    out, each later SST's block 0 (charged when the level was opened),
    then that SST's following blocks.  It stands where a single-SST
    cursor holds its SST (see :func:`merge_sources`)."""

    __slots__ = ("first", "later")

    def __init__(self, first, later):
        self.first = first
        self.later = later

    def blocks_after(self, index, hi, stats):
        """:meth:`SSTable.blocks_after` over the whole run: the first
        SST's blocks after ``index``, then every later SST's blocks."""
        yield from self.first.blocks_after(index, hi, stats)
        for sst in self.later:
            # Block 0 uncharged: ``blocks_after(-1)`` starts there.
            yield next(sst.blocks_after(-1, hi))
            yield from sst.blocks_after(0, hi, stats)


def merge_sources(sources, hi=None, stats=None):
    """k-way merge of sorted sources with precedence shadowing.

    Each source is a cursor ``(entries, sst, index)`` as
    :meth:`SSTable.seek` and :func:`open_level` return it: the ``(key,
    value)`` pairs of its first block, then, unless ``sst`` is None (a
    MemTable's entries are one block), the blocks after ``index`` of the
    SST (or :class:`LevelRun`), read through ``sst.blocks_after`` with
    ``hi`` and ``stats``, the bound and charges the cursors were opened
    with.  A None source is empty.
    ``sources`` is ordered newest-first and consumed at the first
    ``next()``; when several sources hold the same key, only the newest
    version is emitted.  Tombstones are emitted as-is (compaction keeps
    them unless merging into the last level), unless ``stats`` is given:
    then the merge is the read path's, which drops tombstones and counts
    every live entry it emits in ``stats.entries_scanned``.

    No generator runs per entry: each source is read through an
    iterator over its first block, then over its SST's following blocks
    flattened, so a following block is pulled when the merge first needs
    an entry from it (see the module docstring).
    """
    cursors = list(sources)
    if len(cursors) == 1:
        if cursors[0] is None:
            return
        entries, sst, index = cursors[0]
        # A lone source cannot self-shadow (MemTables and SSTs are
        # deduplicated) and is read lazily, one entry per pull.  A level
        # cursor stands for two or more sources, so it is merged.
        if not isinstance(sst, LevelRun):
            if sst is not None:
                entries = chain(entries, _from_blocks(
                    sst.blocks_after(index, hi, stats)))
            for entry in entries:
                if stats is not None:
                    if entry[1] == TOMBSTONE:
                        continue
                    stats.entries_scanned += 1
                yield entry
            return

    heap = []
    for precedence, cursor in enumerate(cursors):
        if cursor is not None:
            iterator = iter(cursor[0])
            entry = next(iterator, None)
            if entry is not None:
                heap.append((entry[0], precedence, entry, iterator))
    heapify(heap)

    last_key = None
    while heap:
        key, precedence, entry, iterator = heap[0]
        following = next(iterator, None)
        if following is None:
            # The source's first block is spent: go on to its SST's
            # following blocks, once.
            _entries, sst, index = cursors[precedence]
            if sst is not None:
                cursors[precedence] = _SPENT
                iterator = _from_blocks(sst.blocks_after(index, hi, stats))
                following = next(iterator, None)
        if following is None:
            heappop(heap)
        else:
            heapreplace(heap, (following[0], precedence, following, iterator))
        if key == last_key:
            continue  # shadowed by a newer source
        last_key = key
        if stats is not None:
            if entry[1] == TOMBSTONE:
                continue
            stats.entries_scanned += 1
        yield entry
