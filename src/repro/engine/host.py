"""The host execution engine.

Runs complete plans (the BLK / NATIVE baselines) or the host-side
fragment of a hybrid split.  All I/O crosses the interconnect: the host
pays the external flash path for every byte it reads, which is exactly
the data movement NDP removes.
"""

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
    def run_pipeline(self, plan, counters, driving_shard=None):
        """Join-pipeline portion of a plan (everything before finalize).

        ``driving_shard`` restricts the driving table to one cluster
        partition.  Returns ``(rows, row_bytes)``; work lands in
        ``counters``.  The scatter-gather executor uses this directly to
        run host-placed partitions whose finalize happens once, over the
        merged rows of all partitions.
        """
        executor = PipelineExecutor(self.catalog, self._pipeline_config(),
                                    counters)
        residual = conjuncts(plan.residual)
        return executor.run(plan.entries, plan.spec.tables,
                            residual_conjuncts=residual,
                            driving_shard=driving_shard)

    def execute(self, plan, strategy="host-only"):
        """Run the whole plan on the host; returns an ExecutionReport."""
        counters = WorkCounters()
        rows, _row_bytes = self.run_pipeline(plan, counters)
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
    def fragment_session(self, plan, entries, input_aliases, counters,
                         shared_state, residual_conjuncts=None):
        """A stateful session for the host side of a hybrid split.

        The session keeps one pipeline executor — and therefore one warm
        block cache — across all device-result batches, as a real engine
        would.  ``counters`` accumulates host work across batches.

        It reads ``shared_state``, the capture the split's NDP command
        was cut from, so both halves of the split read one database
        state however late a batch is joined.  Every table of the query
        is resolvable — a host residual may name a device alias — and
        bloom filters are probed as on the live trees, so a pinned read
        charges what the live read charged at the captured versions.
        """
        residual = (conjuncts(plan.residual) if residual_conjuncts is None
                    else list(residual_conjuncts))
        catalog = SnapshotCatalog(self.catalog, shared_state,
                                  set(plan.spec.tables.values()),
                                  use_bloom_filters=True)
        return _FragmentSession(self, catalog, plan, entries,
                                list(input_aliases), counters, residual)

    def finalize_fragment(self, plan, rows, counters):
        """Aggregation/projection epilogue over accumulated rows."""
        result_rows, columns = finalize(rows, plan.select_items,
                                        plan.group_by, counters,
                                        limit=plan.limit)
        return QueryResult(result_rows, columns)


class _FragmentSession:
    """Executes device-result batches against the host-side entries."""

    def __init__(self, engine, catalog, plan, entries, input_aliases,
                 counters, residual):
        self.plan = plan
        self.entries = entries
        self.input_aliases = input_aliases
        self.counters = counters
        self.residual = residual
        self._executor = PipelineExecutor(
            catalog, engine._pipeline_config(), counters)

    def process_batch(self, batch, row_bytes):
        """Join one batch of device rows with the host-side entries."""
        rows, out_bytes = self._executor.run(
            self.entries, self.plan.spec.tables,
            residual_conjuncts=self.residual,
            input_rows=batch,
            input_row_bytes=row_bytes,
            input_aliases=self.input_aliases,
        )
        return rows, out_bytes
