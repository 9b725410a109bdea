"""Leveled compaction.

When a level exceeds its size target (``base * ratio^(n-1)``), one SST is
merged with the overlapping SSTs of the next level: all input entries are
sorted, shadowed versions dropped, and the result re-cut into new SSTs at
the target level.  Tombstones are only dropped when the target is the
bottom-most populated level, since deeper levels may still hold shadowed
versions (paper §2.2).
"""

from dataclasses import dataclass, field

from repro.lsm.iterator import merge_sources
from repro.lsm.memtable import TOMBSTONE
from repro.lsm.sstable import SSTableBuilder


@dataclass
class CompactionStats:
    """Aggregate compaction work, for write-amplification accounting."""

    compactions: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    entries_dropped: int = 0
    tombstones_purged: int = 0
    per_level: dict = field(default_factory=dict)


class LeveledCompactor:
    """Implements the leveled strategy over a :class:`LevelStructure`."""

    def __init__(self, levels, flash=None, level_base_bytes=8 * 1024 * 1024,
                 size_ratio=10, sst_target_bytes=2 * 1024 * 1024,
                 block_size=4096):
        self._levels = levels
        self._flash = flash
        self._base = level_base_bytes
        self._ratio = size_ratio
        self._sst_target = sst_target_bytes
        self._block_size = block_size
        self._next_sst_id = 1_000_000  # distinct from flush-produced ids
        self.stats = CompactionStats()

    def level_target_bytes(self, n):
        """Size target for level ``n`` (C1 gets the base)."""
        return self._base * (self._ratio ** (n - 1))

    def needs_compaction(self, n):
        """Whether level ``n`` exceeds its target."""
        return self._levels.level_bytes(n) > self.level_target_bytes(n)

    def maybe_compact(self):
        """Run compactions until every level is within target."""
        ran = 0
        # Bounded by total data size; each iteration strictly moves bytes
        # downward, so this terminates.
        for _ in range(1000):
            level = self._pick_level()
            if level is None:
                return ran
            self.compact_level(level)
            ran += 1
        return ran

    def _pick_level(self):
        for n in range(1, self._levels.max_levels):
            if self.needs_compaction(n):
                return n
        return None

    def compact_level(self, n):
        """Merge one SST from level ``n`` into level ``n+1``."""
        source_ssts = self._levels.level(n)
        if not source_ssts:
            return []
        if n == 1:
            # C1 overlaps: take *all* of C1 so the output is disjoint.
            victims = source_ssts
        else:
            victims = [source_ssts[0]]
        lo = min(sst.min_key for sst in victims)
        hi = max(sst.max_key for sst in victims)
        target_level = n + 1
        overlapping = self._levels.overlapping(target_level, lo, hi)

        bottom = self._is_bottom_level(target_level, overlapping)
        # Precedence: victims newest-first (C1 stores oldest-first), then
        # the target level's SSTs.
        sources = [sst.seek() for sst in reversed(victims)]
        sources += [sst.seek() for sst in overlapping]

        inputs = victims + list(overlapping)
        self.stats.bytes_read += sum(sst.nbytes for sst in inputs)
        input_entries = sum(sst.entry_count for sst in inputs)

        new_ssts = self._rewrite(merge_sources(sources), target_level, bottom)

        for sst in inputs:
            self._levels.remove(sst)
            if self._flash is not None and sst.extent is not None:
                self._flash.free(sst.extent)
        for sst in new_ssts:
            self._levels.add_to_level(target_level, sst)

        output_entries = sum(sst.entry_count for sst in new_ssts)
        self.stats.compactions += 1
        self.stats.entries_dropped += input_entries - output_entries
        self.stats.bytes_written += sum(sst.nbytes for sst in new_ssts)
        self.stats.per_level[n] = self.stats.per_level.get(n, 0) + 1
        return new_ssts

    def _is_bottom_level(self, target_level, overlapping):
        if target_level >= self._levels.max_levels:
            return True
        for deeper in range(target_level + 1, self._levels.max_levels + 1):
            if self._levels.level(deeper):
                return False
        del overlapping
        return True

    def _rewrite(self, merged, target_level, drop_tombstones):
        new_ssts = []
        builder = SSTableBuilder(block_size=self._block_size)
        built_bytes = 0
        for key, value in merged:
            if value == TOMBSTONE and drop_tombstones:
                self.stats.tombstones_purged += 1
                continue
            builder.add(key, value)
            built_bytes += len(key) + len(value)
            if built_bytes >= self._sst_target:
                new_ssts.append(self._finish(builder, target_level))
                builder = SSTableBuilder(block_size=self._block_size)
                built_bytes = 0
        if len(builder):
            new_ssts.append(self._finish(builder, target_level))
        return new_ssts

    def _finish(self, builder, target_level):
        sst_id = self._next_sst_id
        self._next_sst_id += 1
        return builder.finish(flash=self._flash, sst_id=sst_id,
                              level=target_level)
