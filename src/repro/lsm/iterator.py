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
- a scan charges an SST's index block when it opens the SST's source,
  at its first ``next()``, and a data block when the merge first needs
  an entry from it.  With two or more sources the merge holds each
  source's next entry, so popping a block's last entry pulls (and
  charges) the following block; a lone source is read one entry per
  pull.  A consumer that stops after k rows is charged for exactly the
  blocks those pulls reached.
"""

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
    (when it holds any entry at all) and each overlapping SST's
    :meth:`~repro.lsm.sstable.SSTable.seek` (None when it has no key in
    range; it still counts as a source)."""
    memtable, plan = inputs()
    ssts, skipped = plan.overlapping(lo, hi)
    stats.ssts_skipped_fence += skipped
    stats.ssts_considered += len(ssts)
    if len(memtable):
        yield memtable.items(lo=lo, hi=hi), None, 0
    for sst in ssts:
        yield sst.seek(lo, hi, stats)


def merge_sources(sources, hi=None, stats=None):
    """k-way merge of sorted sources with precedence shadowing.

    Each source is a cursor ``(entries, sst, index)`` as
    :meth:`SSTable.seek` returns it: the ``(key, value)`` pairs of its
    first block, then, unless ``sst`` is None (a MemTable's entries are
    one block), the SST's blocks after ``index``, read through
    :meth:`SSTable.blocks_after` with ``hi`` and ``stats``, the bound
    and charges the cursors were opened with.  A None source is empty.
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
        # A lone source cannot self-shadow (MemTables and SSTs are
        # deduplicated) and is read lazily, one entry per pull.
        if cursors[0] is None:
            return
        entries, sst, index = cursors[0]
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
