"""Retained entry-at-a-time reference LSM read path.

This module preserves the read path as it was before the cursor merge:
a generator per SST source yielding one ``(key, value)`` per ``next()``,
a heap merge that pulls each source's next entry through that
generator, a separate tombstone filter, and a point lookup that hashes
its key twice per bloom probe.  :func:`sst_get` walks a table's sparse
index as the lookup it accelerated with a per-table key map did: the
map was only ever a shortcut to the block the walk reaches.

It is the equivalence baseline :mod:`repro.lsm.iterator` is tested
against (tests/test_lsm_read_oracle.py): over any history of writes,
flushes and compactions, both must return identical rows and charge
identical :class:`~repro.lsm.store.ReadStats` and block-cache touches,
in the same order.

It is not wired into any store; it reads the same
:class:`~repro.lsm.memtable.MemTable` and
:class:`~repro.lsm.levels.LookupPlan` objects the live path reads.
"""

import bisect
import heapq
import zlib

from repro.lsm.memtable import TOMBSTONE

__all__ = ["point_lookup", "range_scan", "merge_sources", "live_entries",
           "iter_range", "sst_get", "bloom_might_contain"]


def bloom_might_contain(bloom, key):
    """The filter's probe of ``key``, hashing it here."""
    nbits = bloom._nbits
    bits = bloom._bits
    pos = zlib.crc32(key) % nbits
    step = (((zlib.crc32(key, 0x9E3779B9) << 15) | 1)) % nbits
    for _ in range(bloom._nhashes):
        if not bits[pos >> 3] & (1 << (pos & 7)):
            return False
        pos += step
        if pos >= nbits:
            pos -= nbits
    return True


def _charge_index(sst, stats):
    if stats is None:
        return
    if stats.cache is not None and stats.cache.access(
            sst._index_cache_key, sst.index_bytes):
        stats.cache_hits += 1
        return
    stats.index_blocks_read += 1
    stats.bytes_read += sst.index_bytes


def _charge_data_block(stats, block):
    if stats is None:
        return
    if stats.cache is not None and stats.cache.access(
            block.cache_key, block.nbytes):
        stats.cache_hits += 1
        return
    stats.data_blocks_read += 1
    stats.bytes_read += block.nbytes


def _locate_block(sst, key, stats):
    _charge_index(sst, stats)
    idx = bisect.bisect_right(sst._index_keys, key) - 1
    if idx < 0:
        idx = 0
    return idx


def sst_get(sst, key, stats=None):
    """Point lookup in one table: (found, value); a tombstone is
    (True, None)."""
    if key < sst.min_key or key > sst.max_key:
        return False, None
    idx = _locate_block(sst, key, stats)
    block = sst._blocks[idx]
    _charge_data_block(stats, block)
    if stats is not None:
        stats.key_comparisons += max(1, len(block.keys).bit_length())
    for entry_key, value in block.entries:
        if entry_key == key:
            if value == TOMBSTONE:
                return True, None
            return True, value
    return False, None


def iter_range(sst, lo=None, hi=None, stats=None):
    """Yield (key, value) for keys in [lo, hi); tombstones included."""
    if lo is not None and sst._blocks:
        start = _locate_block(sst, lo, stats)
    else:
        start = 0
        _charge_index(sst, stats)
    for block in sst._blocks[start:]:
        if hi is not None and block.first_key >= hi:
            return
        _charge_data_block(stats, block)
        for key, value in block.entries:
            if lo is not None and key < lo:
                continue
            if hi is not None and key >= hi:
                return
            yield key, value


def point_lookup(memtable, plan, key, stats, bloom):
    """The newest value of ``key`` (None when absent or deleted)."""
    stats.memtable_gets += 1
    found, value = memtable.get(key)
    if found:
        return value  # may be None for a tombstone
    for sst in plan.candidates(key):
        stats.ssts_considered += 1
        if bloom:
            stats.bloom_probes += 1
            if not bloom_might_contain(sst.bloom, key):
                stats.bloom_negatives += 1
                stats.ssts_skipped_bloom += 1
                continue
        found, value = sst_get(sst, key, stats)
        if found:
            return value
    return None


def range_scan(inputs, lo, hi, value_predicate, stats):
    """Live entries in [lo, hi), merged over the MemTable and SSTs, as
    of the first ``next()``."""
    memtable, plan = inputs()
    sources = []
    if len(memtable):
        sources.append(memtable.items(lo=lo, hi=hi))
    for sst in plan.ssts:
        if not sst.overlaps(lo, hi):
            stats.ssts_skipped_fence += 1
            continue
        stats.ssts_considered += 1
        sources.append(iter_range(sst, lo, hi, stats=stats))
    # A single source needs no heap merge and cannot self-shadow.
    merged = sources[0] if len(sources) == 1 else merge_sources(sources)
    for key, value in live_entries(merged):
        stats.entries_scanned += 1
        if value_predicate is None or value_predicate(value):
            yield key, value


def merge_sources(sources):
    """k-way merge of (key, value) iterators with precedence shadowing;
    tombstones are emitted as-is."""
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
    """Drop tombstones from a merged stream."""
    for key, value in merged:
        if value == TOMBSTONE:
            continue
        yield key, value
