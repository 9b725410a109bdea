"""Physical work counters.

Operators increment these while executing; the timing model converts
them into simulated seconds.  Categories follow the on-device breakdown
the paper reports in Table 4 (memcmp, internal-key compares, index-block
seeks, selection processing, data-block seeks, flash load, other).
"""

from dataclasses import dataclass, fields


@dataclass
class WorkCounters:
    """Aggregated physical work of one execution (or one batch)."""

    # I/O
    flash_bytes_read: int = 0         # bytes pulled off flash
    index_block_reads: int = 0        # sparse-index block fetches
    data_block_reads: int = 0         # data-block fetches
    # Compute
    records_evaluated: int = 0        # predicate evaluations over records
    predicate_ops: int = 0            # primitive comparison ops
    memcmp_bytes: int = 0             # bytes compared (LIKE / string ops)
    key_comparisons: int = 0          # internal key compares (LSM seeks)
    hash_probes: int = 0              # hash-table build+probe operations
    index_seeks: int = 0              # point seeks through an index
    # Data movement inside the engine
    bytes_materialized: int = 0       # memcpy into caches/buffers
    block_cache_hits: int = 0         # block reads served from cache
    # Output
    output_rows: int = 0
    output_bytes: int = 0

    def merge(self, other):
        """Accumulate another counter set into this one."""
        for spec in fields(self):
            setattr(self, spec.name,
                    getattr(self, spec.name) + getattr(other, spec.name))
        return self

    def absorb_read_stats(self, stats):
        """Fold an LSM :class:`ReadStats` into these counters."""
        self.flash_bytes_read += stats.bytes_read
        self.index_block_reads += stats.index_blocks_read
        self.data_block_reads += stats.data_blocks_read
        self.key_comparisons += stats.key_comparisons
        self.block_cache_hits += stats.cache_hits
        return self

    def delta_since(self, before):
        """The work added since ``before`` (an earlier :meth:`copy`)."""
        return WorkCounters(**{
            spec.name: getattr(self, spec.name) - getattr(before, spec.name)
            for spec in fields(self)})

    def copy(self):
        """An independent copy."""
        duplicate = WorkCounters()
        duplicate.merge(self)
        return duplicate

    def as_dict(self):
        """Plain-dict view for reporting."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}
