"""Sorted String Tables.

An SST holds sorted key/value entries in fixed-target-size *data blocks*,
preceded by a sparse *index block* (first key + offset per data block), a
bloom filter, and min/max fence keys (paper §2.2).  The table body is
allocated on the flash device, so each SST has a genuine physical
placement that NDP commands can reference.

Reads are accounted into a stats object (index blocks read, data blocks
read, bytes read, key comparisons) which the timing model prices.
"""

import bisect
from dataclasses import dataclass
from itertools import accumulate, chain, islice, repeat
from operator import itemgetter

from repro.errors import LSMError
from repro.lsm.bloom import BloomFilter
from repro.lsm.memtable import TOMBSTONE

_ENTRY_HEADER = 8      # 4-byte key length + 4-byte value length
_BLOCK_HEADER = 8
_INDEX_ENTRY_OVERHEAD = 12
#: First element of an index block's cache key; data blocks use ``"blk"``.
#: :class:`repro.lsm.store.ReadTrace` tells the two apart by it.
INDEX_BLOCK = "idx"
_value_of = itemgetter(1)


@dataclass
class _DataBlock:
    """One sorted run of entries plus its on-flash footprint."""

    first_key: bytes
    last_key: bytes
    entries: list            # list[(key, value)]
    nbytes: int
    offset: int
    cache_key: tuple         # ("blk", sst id, offset), built once
    keys: list               # sorted key array for binary search


class SSTableBuilder:
    """Accumulates sorted entries and emits an :class:`SSTable`."""

    def __init__(self, block_size=4096, bits_per_key=10):
        if block_size <= 0:
            raise LSMError("block size must be positive")
        self._block_size = block_size
        self._bits_per_key = bits_per_key
        self._entries = []
        self._last_key = None

    def add(self, key, value):
        """Append an entry; keys must arrive in strictly increasing order."""
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise LSMError("SST entries must be bytes")
        if self._last_key is not None and key <= self._last_key:
            raise LSMError(
                f"SST entries out of order: {key!r} after {self._last_key!r}")
        self._entries.append((key, value))
        self._last_key = key

    @classmethod
    def from_sorted(cls, entries, block_size=4096, bits_per_key=10):
        """A builder holding ``entries`` as they are, without :meth:`add`'s
        per-entry checks: bytes keys in strictly increasing order with
        bytes values, as a MemTable's entries are by construction."""
        builder = cls(block_size=block_size, bits_per_key=bits_per_key)
        builder._entries = entries
        if entries:
            builder._last_key = entries[-1][0]
        return builder

    def __len__(self):
        return len(self._entries)

    def finish(self, flash=None, sst_id=0, level=0):
        """Build the SSTable, allocating it on ``flash`` when given.

        A data block takes entries while they fit in ``block_size`` (its
        first entry always), so each block ends where the running entry
        bytes first pass the block's budget — found by bisecting their
        prefix sums, one search per block.
        """
        entries = self._entries
        if not entries:
            raise LSMError("cannot build an empty SSTable")
        keys = [entry[0] for entry in entries]
        bloom = BloomFilter(len(entries), self._bits_per_key)
        bloom.add_many(keys)
        ends = list(accumulate(
            (_ENTRY_HEADER + len(key) + len(value) for key, value in entries),
            initial=0))
        budget = self._block_size - _BLOCK_HEADER
        blocks = []
        offset = 0
        start = 0
        while start < len(entries):
            stop = max(start + 1,
                       bisect.bisect_right(ends, ends[start] + budget) - 1)
            nbytes = _BLOCK_HEADER + ends[stop] - ends[start]
            blocks.append(_DataBlock(
                first_key=keys[start],
                last_key=keys[stop - 1],
                entries=entries[start:stop],
                nbytes=nbytes,
                offset=offset,
                cache_key=("blk", sst_id, offset),
                keys=keys[start:stop],
            ))
            offset += nbytes
            start = stop

        index_bytes = sum(
            len(block.first_key) + _INDEX_ENTRY_OVERHEAD for block in blocks)
        total_bytes = offset + index_bytes + bloom.size_bytes
        extent = None
        if flash is not None:
            extent = flash.allocate(total_bytes, owner=f"sst-{sst_id}")
        return SSTable(
            sst_id=sst_id,
            level=level,
            blocks=blocks,
            bloom=bloom,
            index_bytes=index_bytes,
            nbytes=total_bytes,
            entry_count=len(entries),
            extent=extent,
        )


class SSTable:
    """An immutable sorted table with sparse index and bloom filter."""

    def __init__(self, sst_id, level, blocks, bloom, index_bytes, nbytes,
                 entry_count, extent=None):
        self.sst_id = sst_id
        self.level = level
        self._blocks = blocks
        self._index_keys = [block.first_key for block in blocks]
        self.bloom = bloom
        self.index_bytes = index_bytes
        self.nbytes = nbytes
        self.entry_count = entry_count
        self.extent = extent
        # Fence pointers as plain attributes: SSTs are immutable, and the
        # read path touches these on every candidate/overlap check.
        #: Smallest key in the table (fence pointer).
        self.min_key = blocks[0].first_key
        #: Largest key in the table (fence pointer).
        self.max_key = blocks[-1].last_key
        # Block-cache keys are owned here (data blocks own theirs), so
        # every touch of a block — and every recorded ReadTrace touch —
        # shares one key object instead of building a tuple per access.
        self._index_cache_key = (INDEX_BLOCK, sst_id)
        #: Bytes a seek from at or below ``min_key`` reads uncached: the
        #: index block and block 0 (see :meth:`charge_open`).
        self.open_bytes = index_bytes + blocks[0].nbytes
        # Lazy {key: (block, value)} map for point lookups; the sparse
        # index + in-block binary search is still *charged* (index and
        # data block cache accesses, key comparisons) exactly as if it
        # had been walked.
        self._point_index = None

    @property
    def block_count(self):
        """Number of data blocks."""
        return len(self._blocks)

    def overlaps(self, lo, hi):
        """Fence-pointer check against key range [lo, hi] (None = open)."""
        if lo is not None and self.max_key < lo:
            return False
        if hi is not None and self.min_key > hi:
            return False
        return True

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def _charge_index(self, stats):
        if stats is None:
            return
        if stats.cache is not None and stats.cache.access(
                self._index_cache_key, self.index_bytes):
            stats.cache_hits += 1
            return
        stats.index_blocks_read += 1
        stats.bytes_read += self.index_bytes

    def _charge_data_block(self, stats, block):
        if stats is None:
            return
        if stats.cache is not None and stats.cache.access(
                block.cache_key, block.nbytes):
            stats.cache_hits += 1
            return
        stats.data_blocks_read += 1
        stats.bytes_read += block.nbytes

    def get(self, key, stats=None):
        """Point lookup: (found, value). Tombstones return (True, None).

        Charges what the sparse-index walk to the one data block that
        can hold ``key`` costs: the index block, that data block and
        log2(block) key comparisons, whether or not the key is there (an
        absent key is a bloom false positive, or a read without blooms).
        """
        if key < self.min_key or key > self.max_key:
            return False, None
        lookup = self._point_index
        if lookup is None:
            lookup = self._point_index = {}
            for block in self._blocks:
                lookup.update(zip(block.keys, zip(
                    repeat(block), map(_value_of, block.entries))))
        hit = lookup.get(key)
        if hit is None:
            # min_key <= key: the last block starting at or before it.
            block = self._blocks[
                bisect.bisect_right(self._index_keys, key) - 1]
        else:
            block, value = hit
        self._charge_index(stats)
        self._charge_data_block(stats, block)
        if stats is not None:
            stats.key_comparisons += max(1, len(block.keys).bit_length())
        if hit is None:
            return False, None
        if value == TOMBSTONE:
            return True, None
        return True, value

    def seek(self, lo=None, hi=None, stats=None):
        """Open a read of the keys in [lo, hi) (None is open).

        Charges the index block, then each data block up to the first
        that holds a key in range.  Returns the cursor ``(entries, self,
        index)``: that block's in-range entries (a non-empty list of
        ``(key, value)`` in key order, tombstones included, bisected on
        ``block.keys``) and the block's position, from which
        :meth:`blocks_after` reads on; None when no key is in range.
        Callers must not mutate the list.
        """
        self._charge_index(stats)
        index = 0
        if lo is not None:
            index = bisect.bisect_right(self._index_keys, lo) - 1
            if index < 0:
                index = 0
        blocks = self._blocks
        while True:
            block = blocks[index]
            if hi is not None and block.first_key >= hi:
                return None
            self._charge_data_block(stats, block)
            keys = block.keys
            first = 0 if lo is None else bisect.bisect_left(keys, lo)
            if first < len(keys):
                break
            # Every key of the located block is below ``lo``; the next
            # block starts above it.
            index += 1
            if index == len(blocks):
                return None
            lo = None
        if hi is None or block.last_key < hi:
            entries = block.entries if first == 0 else block.entries[first:]
        else:
            end = bisect.bisect_left(keys, hi)
            if first >= end:
                return None
            entries = block.entries[first:end]
        return entries, self, index

    def charge_open(self, hi, stats):
        """Charge what :meth:`seek` charges for a range that starts at or
        below ``min_key``: the index block, then block 0 unless it starts
        at or past ``hi``.  A level cursor opens its later SSTs so."""
        self._charge_index(stats)
        if hi is None or self.min_key < hi:
            self._charge_data_block(stats, self._blocks[0])

    def blocks_after(self, index, hi=None, stats=None):
        """Yield the in-range entries of the data blocks after ``index``.

        Each item is a non-empty list as :meth:`seek` returns; a block
        is charged when the pull that needs it reaches it, so a reader
        that stops early is never charged for blocks it did not reach.
        """
        for block in islice(self._blocks, index + 1, None):
            if hi is not None and block.first_key >= hi:
                return
            self._charge_data_block(stats, block)
            if hi is None or block.last_key < hi:
                yield block.entries
            else:
                yield block.entries[:bisect.bisect_left(block.keys, hi)]
                return

    def iter_range(self, lo=None, hi=None, stats=None):
        """Yield the entries of keys in [lo, hi) a data block at a time:
        :meth:`seek`'s entries at the first ``next()``, then
        :meth:`blocks_after`'s.  ``hi`` is exclusive to compose cleanly
        with merging iterators."""
        cursor = self.seek(lo, hi, stats)
        if cursor is not None:
            entries, _sst, index = cursor
            yield entries
            yield from self.blocks_after(index, hi, stats)

    def iter_all(self, stats=None):
        """Full scan of the table: every ``(key, value)`` in key order."""
        return chain.from_iterable(self.iter_range(None, None, stats=stats))

    def __repr__(self):
        return (f"SSTable(id={self.sst_id}, level={self.level}, "
                f"entries={self.entry_count}, blocks={self.block_count})")
