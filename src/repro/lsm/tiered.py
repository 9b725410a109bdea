"""Size-tiered compaction.

The alternative to leveled compaction the paper mentions (§2.2,
"depending on the strategy (e.g., tiered or leveled)").  Each tier
collects sorted runs of similar size; once a tier holds ``fanout`` runs
they are merged into a single run on the next tier.  Writes are cheaper
than leveled (every record is rewritten once per tier, no overlap
merges), reads are costlier (several runs per tier must be consulted).
"""

from repro.lsm.compaction import CompactionStats
from repro.lsm.iterator import merge_sources
from repro.lsm.memtable import TOMBSTONE
from repro.lsm.sstable import SSTableBuilder


class TieredCompactor:
    """Size-tiered strategy over a tiered :class:`LevelStructure`."""

    def __init__(self, levels, flash=None, fanout=4, block_size=4096):
        if not levels.tiered:
            raise ValueError("TieredCompactor needs a tiered structure")
        self._levels = levels
        self._flash = flash
        self.fanout = fanout
        self._block_size = block_size
        self._next_sst_id = 2_000_000
        self.stats = CompactionStats()

    def needs_compaction(self, n):
        """A tier compacts once it holds ``fanout`` runs."""
        return len(self._levels.level(n)) >= self.fanout

    def maybe_compact(self):
        """Merge full tiers until no tier holds ``fanout`` runs."""
        ran = 0
        for _ in range(1000):
            tier = self._pick_tier()
            if tier is None:
                return ran
            self.compact_tier(tier)
            ran += 1
        return ran

    def _pick_tier(self):
        for n in range(1, self._levels.max_levels):
            if self.needs_compaction(n):
                return n
        return None

    def compact_tier(self, n):
        """Merge every run of tier ``n`` into one run on tier ``n+1``."""
        runs = self._levels.level(n)
        if not runs:
            return None
        target = n + 1
        bottom = all(not self._levels.level(deeper)
                     for deeper in range(target + 1,
                                         self._levels.max_levels + 1))
        # Precedence: newest run first (runs append in arrival order).
        sources = [sst.seek() for sst in reversed(runs)]
        self.stats.bytes_read += sum(sst.nbytes for sst in runs)
        input_entries = sum(sst.entry_count for sst in runs)

        builder = SSTableBuilder(block_size=self._block_size)
        for key, value in merge_sources(sources):
            if value == TOMBSTONE and bottom and not self._levels.level(
                    target):
                self.stats.tombstones_purged += 1
                continue
            builder.add(key, value)

        for sst in runs:
            self._levels.remove(sst)
            if self._flash is not None and sst.extent is not None:
                self._flash.free(sst.extent)

        new_sst = None
        if len(builder):
            sst_id = self._next_sst_id
            self._next_sst_id += 1
            new_sst = builder.finish(flash=self._flash, sst_id=sst_id,
                                     level=target)
            self._levels.add_to_level(target, new_sst)
            self.stats.bytes_written += new_sst.nbytes
            self.stats.entries_dropped += (input_entries
                                           - new_sst.entry_count)
        else:
            self.stats.entries_dropped += input_entries
        self.stats.compactions += 1
        self.stats.per_level[n] = self.stats.per_level.get(n, 0) + 1
        return new_sst
