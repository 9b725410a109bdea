"""The LSM read path: one point lookup, one range scan, and the merge.

A GET/SCAN must see the newest version of each key: the MemTable first,
then C1 SSTs newest-first, then lower levels.  The merging iterator
performs a k-way merge with precedence-based shadowing; tombstones
shadow older versions and are dropped at the top.

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
a fence skip for every SST outside its range.
"""

import heapq

from repro.lsm.memtable import TOMBSTONE


def point_lookup(memtable, plan, key, stats, bloom):
    """The newest value of ``key`` (None when absent or deleted).

    Follows the C0 -> C1 -> Ck search order, charging ``stats``; with
    ``bloom`` every candidate SST's filter is probed before its blocks.
    """
    stats.memtable_gets += 1
    found, value = memtable.get(key)
    if found:
        return value  # may be None for a tombstone
    for sst in plan.candidates(key):
        stats.ssts_considered += 1
        if bloom and not sst.might_contain(key, stats):
            stats.ssts_skipped_bloom += 1
            continue
        found, value = sst.get(key, stats)
        if found:
            return value
    return None


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
    memtable, plan = inputs()
    sources = []
    if len(memtable):
        sources.append(memtable.items(lo=lo, hi=hi))
    for sst in plan.ssts:
        if not sst.overlaps(lo, hi):
            stats.ssts_skipped_fence += 1
            continue
        stats.ssts_considered += 1
        sources.append(sst.iter_range(lo, hi, stats=stats))
    # A single source needs no heap merge and cannot self-shadow
    # (memtables and SSTs are internally deduplicated).
    merged = sources[0] if len(sources) == 1 else merge_sources(sources)
    for key, value in live_entries(merged):
        stats.entries_scanned += 1
        if value_predicate is None or value_predicate(value):
            yield key, value


def merge_sources(sources):
    """k-way merge of (key, value) iterators with precedence shadowing.

    ``sources`` is ordered newest-first; when several sources yield the
    same key, only the newest version is emitted.  Tombstones are emitted
    as-is (callers decide whether to drop them — compaction keeps them
    unless merging into the last level).
    """
    heap = []
    iterators = [iter(source) for source in sources]
    for precedence, iterator in enumerate(iterators):
        try:
            key, value = next(iterator)
        except StopIteration:
            continue
        heap.append((key, precedence, value))
    heapq.heapify(heap)

    last_key = None
    while heap:
        key, precedence, value = heapq.heappop(heap)
        try:
            next_key, next_value = next(iterators[precedence])
            heapq.heappush(heap, (next_key, precedence, next_value))
        except StopIteration:
            pass
        if key == last_key:
            continue  # shadowed by a newer source
        last_key = key
        yield key, value


def live_entries(merged):
    """Drop tombstones from a merged stream (read path)."""
    for key, value in merged:
        if value == TOMBSTONE:
            continue
        yield key, value
