"""The host execution engine.

Runs complete plans (the BLK / NATIVE baselines) or the host-side
fragment of a hybrid split.  All I/O crosses the interconnect: the host
pays the external flash path for every byte it reads, which is exactly
the data movement NDP removes.
"""

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass

from repro.engine.counters import WorkCounters
from repro.engine.pipeline import PipelineConfig, PipelineExecutor, finalize
from repro.engine.results import ExecutionReport, QueryResult
from repro.engine.timing import ExecutionLocation
from repro.query.ast import conjuncts
from repro.relational.snapshot_table import SnapshotCatalog


@dataclass
class HostEngineConfig:
    """Host-side execution knobs."""

    join_buffer_bytes: int = 32 * 1024 * 1024
    block_cache_bytes: int = 512 * 1024 * 1024   # page cache share


class HostEngine:
    """Executes plans (or plan fragments) on the host CPU."""

    def __init__(self, catalog, timing_model, config=None):
        self.catalog = catalog
        self.timing = timing_model
        self.config = config or HostEngineConfig()

    def _pipeline_config(self):
        return PipelineConfig(
            join_buffer_bytes=self.config.join_buffer_bytes,
            pointer_cache=False,
            block_cache_bytes=self.config.block_cache_bytes,
        )

    # ------------------------------------------------------------------
    # Full-plan execution (BLK / NATIVE baselines)
    # ------------------------------------------------------------------
    def run_pipeline(self, plan, counters, driving_shard=None,
                     captured=None):
        """Join-pipeline portion of a plan (everything before finalize).

        ``driving_shard`` restricts the driving table to one cluster
        partition.  Returns ``(rows, row_bytes)``; work lands in
        ``counters``.  The scatter-gather executor uses this directly to
        run host-placed partitions whose finalize happens once, over the
        merged rows of all partitions.  ``captured`` is read as in
        :meth:`execute`.
        """
        catalog = (self.catalog if captured is None
                   else self._pinned_catalog(plan, captured))
        executor = PipelineExecutor(catalog, self._pipeline_config(),
                                    counters)
        residual = conjuncts(plan.residual)
        return executor.run(plan.entries, plan.spec.tables,
                            residual_conjuncts=residual,
                            driving_shard=driving_shard)

    def execute(self, plan, strategy="host-only", captured=None):
        """Run the whole plan on the host; returns an ExecutionReport.

        It reads the live tables, or with ``captured`` (an
        :meth:`~repro.engine.ndp.NDPEngine.capture` of the plan) the
        state that capture pinned, charging what the live read charged
        at the captured versions.
        """
        counters = WorkCounters()
        rows, _row_bytes = self.run_pipeline(plan, counters,
                                             captured=captured)
        result_rows, columns = finalize(rows, plan.select_items,
                                        plan.group_by, counters,
                                        limit=plan.limit)
        seconds, breakdown = self.timing.charge(counters,
                                                ExecutionLocation.HOST)
        return ExecutionReport(
            strategy=strategy,
            total_time=seconds,
            result=QueryResult(result_rows, columns),
            host_counters=counters,
            host_breakdown=breakdown,
            host_processing_time=seconds,
        )

    # ------------------------------------------------------------------
    # Fragment execution (hybrid host side)
    # ------------------------------------------------------------------
    def fragment_session(self, plan, entries, input_aliases, shared_state,
                         rows, offsets, row_bytes, residual_conjuncts=None):
        """A stateful session for the host side of a hybrid split.

        ``rows`` are the device fragment's output, of ``row_bytes`` bytes
        a row, shipped as the batches ``rows[offsets[i]:offsets[i + 1]]``.
        The session keeps one pipeline executor — and therefore one warm
        block cache — across all device-result batches, as a real engine
        would, and hands out each batch's joined rows and host work in
        batch order (:meth:`_FragmentSession.batch`).

        It reads ``shared_state``, the capture the split's NDP command
        was cut from, so both halves of the split read one database
        state however late a batch is joined.  Every table of the query
        is resolvable — a host residual may name a device alias — and
        bloom filters are probed as on the live trees, so a pinned read
        charges what the live read charged at the captured versions.
        """
        residual = (conjuncts(plan.residual) if residual_conjuncts is None
                    else list(residual_conjuncts))
        executor = PipelineExecutor(
            self._pinned_catalog(plan, shared_state),
            self._pipeline_config(), WorkCounters())
        return _FragmentSession(executor, plan.spec.tables, entries,
                                list(input_aliases), residual, rows,
                                offsets, row_bytes)

    def _pinned_catalog(self, plan, captured):
        """Every table of ``plan`` as ``captured`` pinned it, with bloom
        filters probed as on the live trees."""
        return SnapshotCatalog(self.catalog, captured,
                               set(plan.spec.tables.values()),
                               use_bloom_filters=True)

    def finalize_fragment(self, plan, rows, counters):
        """Aggregation/projection epilogue over accumulated rows."""
        result_rows, columns = finalize(rows, plan.select_items,
                                        plan.group_by, counters,
                                        limit=plan.limit)
        return QueryResult(result_rows, columns)


#: Device rows one pipeline run of a host fragment joins at most: whole
#: device batches, one at least.
_CHUNK_ROWS = 1 << 12


class _FragmentSession:
    """Joins a split's device batches with the host-side entries.

    Batches are joined a chunk of consecutive ones per pipeline run, as
    one input cut into segments (``PipelineExecutor.run(segments=)``):
    each batch's rows and :class:`WorkCounters` are exactly those of a
    run over it alone, after the batches before it.  A chunk is joined
    when its first batch is asked for, so a split cancelled before its
    host consumes anything joins nothing.
    """

    def __init__(self, executor, tables, entries, input_aliases, residual,
                 rows, offsets, row_bytes):
        self.tables = tables
        self.entries = entries
        self.input_aliases = input_aliases
        self.residual = residual
        self.rows = rows
        self.offsets = offsets
        self.row_bytes = row_bytes
        self._executor = executor
        self._joined = deque()      # (rows, counters) of joined batches

    def batch(self, index):
        """Batch ``index``'s joined rows and the host work it took.

        Batches are asked for in order, each once.
        """
        if not self._joined:
            self._join_chunk(index)
        return self._joined.popleft()

    def _join_chunk(self, first):
        """Join the chunk of batches that starts at batch ``first``."""
        offsets = self.offsets
        lo = offsets[first]
        last = min(len(offsets) - 1, max(
            first + 1, bisect_right(offsets, lo + _CHUNK_ROWS) - 1))
        parts, _row_bytes = self._executor.run(
            self.entries, self.tables,
            residual_conjuncts=self.residual,
            input_rows=self.rows[lo:offsets[last]],
            input_row_bytes=self.row_bytes,
            input_aliases=self.input_aliases,
            segments=[offset - lo for offset in offsets[first:last + 1]],
        )
        self._joined.extend(parts)
