"""The on-device NDP engine.

Executes the NDP-side fragment of a plan on the smart storage device:
reserves pipeline buffers under the paper's 17/17/7 MB policy, captures
the shared-state snapshot that makes execution intervention-free, runs
the volcano pipeline with device-side buffer sizes, and switches the
intermediate cache from *row* format to *pointer* format when more than
two tables are processed (paper §4.2).  Like COSMOS+, the device never
probes bloom filters: the host already did (§2.2).
"""

from dataclasses import dataclass, field

from repro.engine.counters import WorkCounters
from repro.engine.pipeline import PipelineConfig, PipelineExecutor, finalize
from repro.errors import OffloadError
from repro.lsm.snapshot import SharedState
from repro.query.physical import operator_counts

#: More device tables than this switch the intermediate cache from row
#: format to pointer format (§4.2).
POINTER_CACHE_THRESHOLD = 2

#: The device's data-block/index-block buffers, part of the 520 MB temp
#: reservation (§5), act as its block cache; scaled by ``buffer_scale``.
BLOCK_CACHE_BASE_BYTES = 520 * 1024 * 1024


@dataclass
class NDPCommand:
    """The extended nKV NDP invocation (paper Fig 7.A).

    Carries everything the device needs for autonomous execution: the
    pipeline fragment, predicates, projections, index usage, physical
    placements, and the shared-state snapshot.
    """

    entries: list                      # TableAccess fragment (device side)
    tables: dict                       # alias -> table name
    shared_state: SharedState          # the capture the fragment reads
    residual_conjuncts: list = field(default_factory=list)
    aggregates_on_device: bool = False
    select_items: list = field(default_factory=list)
    group_by: list = field(default_factory=list)
    #: Driving-table partition for cluster scatter-gather (a
    #: :class:`repro.cluster.TableShard`), None for whole-table runs.
    shard: object = None

    @property
    def payload_bytes(self):
        """Approximate command size on the wire."""
        base = 256                                    # fixed header
        base += 192 * len(self.entries)               # per-op descriptors
        base += 64 * len(self.residual_conjuncts)
        if self.shard is not None:
            base += 48                                # partition descriptor
        return base + self.shared_state.payload_bytes

    @property
    def aliases(self):
        """Aliases processed on the device."""
        return [entry.alias for entry in self.entries]

    def pipeline_shape(self):
        """(selections, secondary selections, joins, group-bys) counts."""
        group_bys = 1 if (self.aggregates_on_device and self.group_by) else 0
        return (*operator_counts(self.entries), group_bys)


@dataclass
class NDPExecution:
    """Result of one on-device fragment execution."""

    rows: list
    row_bytes: int
    counters: WorkCounters
    reservation: object
    pointer_cache: bool
    result: object = None              # QueryResult when aggregated on device
    stage_trace: list = field(default_factory=list)  # (alias, rows) pairs


@dataclass
class NDPEngineConfig:
    """Device-side execution knobs.

    ``buffer_scale`` shrinks the paper's absolute buffer sizes to the
    synthetic dataset scale, preserving the dataset-to-buffer ratio that
    produces the paper's buffer-pressure effects.
    """

    buffer_scale: float = 1.0
    # Absolute join-buffer size in bytes, bypassing scale and floor —
    # used by the §5 buffer-size ablation.
    join_buffer_override: int = None


class NDPEngine:
    """Runs NDP commands on the smart-storage device model."""

    def __init__(self, catalog, database, device, config=None):
        self.catalog = catalog
        self.database = database
        self.device = device
        self.config = config or NDPEngineConfig()

    # ------------------------------------------------------------------
    # Command preparation (host side, but owned here for cohesion)
    # ------------------------------------------------------------------
    def capture(self, plan):
        """One shared-state capture of every column family of every
        table ``plan`` reads (primary and secondary index CFs)."""
        tables = dict.fromkeys(plan.spec.tables.values())
        return SharedState.capture(self.database, [
            name for table in tables
            for name in self.catalog.table(table).column_families()])

    def prepare_command(self, plan, entries, residual_conjuncts,
                        aggregates_on_device=False, shard=None,
                        captured=None):
        """Build the NDP invocation for a plan fragment.

        Ships the shared-state snapshot of every involved column family
        (primary + any secondary index CFs), per nKV §2.1, cut from
        ``captured`` — a :meth:`capture` of the whole query, taken now
        when None; a split passes the one its host fragment reads.
        ``shard`` restricts the driving-table scan to one partition
        (cluster scatter-gather).
        """
        if not self.device.ndp_mode:
            raise OffloadError("device is not mounted in NDP mode")
        if captured is None:
            captured = self.capture(plan)
        family_names = []
        for entry in entries:
            table = self.catalog.table(entry.table_name)
            family_names.extend(table.column_families())
        return NDPCommand(
            entries=list(entries),
            tables=dict(plan.spec.tables),
            residual_conjuncts=list(residual_conjuncts),
            shared_state=captured.subset(family_names),
            aggregates_on_device=aggregates_on_device,
            select_items=list(plan.select_items),
            group_by=list(plan.group_by),
            shard=shard,
        )

    # ------------------------------------------------------------------
    # Device-side execution
    # ------------------------------------------------------------------
    def join_buffer_bytes(self):
        """Effective per-join buffer on the device."""
        if self.config.join_buffer_override is not None:
            return max(256, int(self.config.join_buffer_override))
        return max(4096,
                   int(self.device.spec.join_buffer_bytes
                       * self.config.buffer_scale))

    def block_cache_bytes(self):
        """Effective on-device block cache."""
        return max(8192,
                   int(BLOCK_CACHE_BASE_BYTES * self.config.buffer_scale))

    def execute(self, command):
        """Execute an NDP command; returns an :class:`NDPExecution`.

        Raises :class:`DeviceOverloadError` when the pipeline does not
        fit the device buffer budget — the caller then falls back to a
        host(-heavier) strategy, as the optimizer preconditions demand.
        """
        shape = command.pipeline_shape()
        reservation = self.device.reserve_pipeline(*shape)
        try:
            pointer_cache = len(command.entries) > POINTER_CACHE_THRESHOLD
            counters = WorkCounters()
            pipeline_config = PipelineConfig(
                join_buffer_bytes=self.join_buffer_bytes(),
                pointer_cache=pointer_cache,
                block_cache_bytes=self.block_cache_bytes(),
            )
            # Update-aware NDP (§2.1): execute against the shared-state
            # snapshot, never the live trees — host writes issued after
            # command preparation are invisible to this execution.
            device_catalog = self._device_catalog(command)
            executor = PipelineExecutor(device_catalog, pipeline_config,
                                        counters)
            rows, row_bytes = executor.run(
                command.entries, command.tables,
                residual_conjuncts=command.residual_conjuncts,
                driving_shard=command.shard)
            result = None
            if command.aggregates_on_device:
                result_rows, columns = finalize(
                    rows, command.select_items, command.group_by, counters)
                from repro.engine.results import QueryResult
                result = QueryResult(result_rows, columns)
            counters.output_bytes += len(rows) * row_bytes
            return NDPExecution(
                rows=rows,
                row_bytes=row_bytes,
                counters=counters,
                reservation=reservation,
                pointer_cache=pointer_cache,
                result=result,
                stage_trace=list(executor.stage_trace),
            )
        except Exception:
            self.device.release_pipeline(reservation)
            raise

    def _device_catalog(self, command):
        """The snapshot catalog one command's execution reads through."""
        from repro.relational.snapshot_table import SnapshotCatalog
        table_names = {command.tables[alias] for alias in command.aliases}
        return SnapshotCatalog(self.catalog, command.shared_state,
                               table_names)

    def release(self, execution):
        """Return the pipeline's buffers to the device."""
        self.device.release_pipeline(execution.reservation)

    def can_offload(self, entries):
        """Pre-flight buffer check for a candidate fragment."""
        return self.device.can_host_pipeline(*operator_counts(entries))
