"""Query results and execution reports.

An :class:`ExecutionReport` carries everything the paper's evaluation
charts need: total simulated time, per-side work breakdowns (Table 4),
host wait / device stall accounting, the batch timeline (Fig 17), and
the functional result rows for correctness checks.
"""

from dataclasses import dataclass, field

from repro.engine.counters import WorkCounters
from repro.engine.timing import TimingBreakdown


@dataclass
class QueryResult:
    """The functional answer of a query.

    ``rows`` is a list of plain-Python dicts.  Inside the engine,
    operators exchange :class:`repro.columns.ColumnBatch` values;
    ``finalize`` materialises this row view from the final batch (via
    ``ColumnBatch.rows()``), so report row samples stay JSON-friendly
    dicts regardless of the columnar execution underneath
    (``docs/engine.md``).
    """

    rows: list
    columns: list

    def __len__(self):
        return len(self.rows)

    def sorted_rows(self):
        """Rows in a canonical order (for comparing strategies)."""
        def row_key(row):
            return tuple(
                (value is None, str(type(value)), value if value is not None
                 else "") for value in
                (row.get(column) for column in self.columns))
        return sorted(self.rows, key=row_key)

    def scalar(self):
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ValueError("result is not scalar")
        return self.rows[0][self.columns[0]]


@dataclass
class TimelinePhase:
    """One activity interval of one actor on the simulated timeline."""

    actor: str        # 'host' | 'device'
    kind: str         # 'setup' | 'compute' | 'transfer' | 'wait' | 'stall'
    start: float
    end: float
    label: str = ""
    resource: str = ""  # BusyResource occupied for the interval, if any

    @property
    def duration(self):
        """Length of the interval."""
        return self.end - self.start


@dataclass
class ExecutionReport:
    """Full account of one query execution on one stack/strategy."""

    strategy: str
    total_time: float
    result: QueryResult
    split_index: int = None            # k of Hk for hybrid runs
    # Work
    host_counters: WorkCounters = field(default_factory=WorkCounters)
    device_counters: WorkCounters = field(default_factory=WorkCounters)
    host_breakdown: TimingBreakdown = field(default_factory=TimingBreakdown)
    device_breakdown: TimingBreakdown = field(default_factory=TimingBreakdown)
    # Phases (host side, Table 4 left)
    setup_time: float = 0.0
    host_wait_initial: float = 0.0
    host_wait_other: float = 0.0
    transfer_time: float = 0.0
    host_processing_time: float = 0.0
    # Device side
    device_busy_time: float = 0.0
    device_stall_time: float = 0.0
    # Cooperative details
    batches: int = 0
    intermediate_rows: int = 0
    intermediate_bytes: int = 0
    timeline: list = field(default_factory=list)
    #: {resource_name: {busy_time, wait_time, requests, utilization}} for
    #: the BusyResources (PCIe link, device core, host CPU) the run used.
    resource_stats: dict = field(default_factory=dict)
    #: Flat {metric: number} summary from the run's Tracer (span counts,
    #: per-track and per-category span time); empty for untraced runs.
    trace_metrics: dict = field(default_factory=dict)
    # Resilience (fault injection / graceful degradation, docs/robustness.md)
    #: Strategy label the run degraded from (e.g. "H3") when the result
    #: was produced by the host-only fallback; None for direct runs.
    fallback_from: str = None
    #: Failed NDP command submissions that were retried (or abandoned).
    retries: int = 0
    #: {fault_kind: count} injected by the run's FaultInjector.
    faults_injected: dict = field(default_factory=dict)
    #: Simulated seconds burnt on the abandoned/retried offload attempts.
    wasted_device_time: float = 0.0
    #: Simulated seconds admission control waited for device buffers.
    admission_wait_time: float = 0.0
    #: Multi-device scatter-gather details (docs/cluster.md): device
    #: count, partitioner, per-partition placements and re-executions.
    #: Empty for single-device runs.
    cluster: dict = field(default_factory=dict)
    #: Mid-query re-planning audit (docs/adaptivity.md): whether
    #: adaptivity was enabled, how often the run revised its decision,
    #: the cancelled attempts' wasted time, and one event per breaker
    #: check that acted.  Empty for non-adaptive runs; ``to_dict``
    #: normalises it to the always-present v5 ``adaptivity`` block.
    adaptivity: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    def mark_fallback(self, fallback_from, retries=0, faults_injected=None,
                      wasted_time=0.0):
        """Record that this (host-side) run replaced an abandoned offload.

        ``fallback_from`` labels the strategy the run degraded from;
        ``wasted_time`` is the abandoned attempt's simulated cost, which
        the caller folds into ``total_time`` when its clock does not
        already include it.  Returns the report.
        """
        self.fallback_from = fallback_from
        self.retries = retries
        self.faults_injected = dict(faults_injected or {})
        self.wasted_device_time = wasted_time
        return self

    @property
    def host_wait_total(self):
        """All host waiting (initial + subsequent)."""
        return self.host_wait_initial + self.host_wait_other

    def host_stage_shares(self):
        """Host stage breakdown in percent (Table 4 left).

        Stages can overlap on the wall clock (a transfer may hide under a
        wait), so shares are normalised over the *stage sum* — they always
        add up to 100% — rather than over ``total_time``, which let them
        sum past 100%.
        """
        stages = {
            "ndp_setup": self.setup_time,
            "wait_initial": self.host_wait_initial,
            "wait_subsequent": self.host_wait_other,
            "result_transfer": self.transfer_time,
            "processing": self.host_processing_time,
            "device_stall": self.device_stall_time,
        }
        stage_sum = sum(stages.values())
        if stage_sum <= 0:
            return {}
        return {name: 100.0 * value / stage_sum
                for name, value in stages.items()}

    def device_operation_shares(self):
        """Device operation breakdown in percent (Table 4 right)."""
        return self.device_breakdown.percentages()

    def summary(self):
        """One-line human-readable summary."""
        return (f"{self.strategy}: {self.total_time * 1e3:.3f} ms, "
                f"{len(self.result)} row(s), batches={self.batches}, "
                f"host_wait={self.host_wait_total * 1e3:.3f} ms, "
                f"device_stall={self.device_stall_time * 1e3:.3f} ms")

    #: Version of the :meth:`to_dict` payload layout.  Bump whenever a
    #: key is added, removed or changes meaning; ``docs/observability.md``
    #: documents each version.  v2: ``schema_version`` added, the
    #: ``resilience`` block is always present (zeros for clean runs)
    #: instead of appearing only on degraded ones.  v3: the ``cluster``
    #: block is always present (empty ``{}`` for single-device runs;
    #: populated by the scatter-gather executor, docs/cluster.md).
    #: v4: cluster reports carry an always-present
    #: ``cluster["speculation"]`` sub-block (policy, clone events,
    #: wasted time — docs/robustness.md); single-device payloads are
    #: unchanged apart from this version number, and a NULL
    #: deadline/speculation config reproduces v3 reports byte for byte
    #: modulo ``schema_version`` (pinned by the golden-report test).
    #: v5: an always-present ``adaptivity`` block audits mid-query
    #: re-planning (enabled flag, replan count, wasted time, correction
    #: factor, per-event trail — docs/adaptivity.md); non-adaptive runs
    #: carry the null block and are otherwise byte-identical to v4
    #: (adaptivity off ≡ no breaker hook, pinned by the golden tests).
    SCHEMA_VERSION = 5

    def to_dict(self, include_rows=False, include_timeline=False):
        """JSON-serialisable view of the report (for tooling/logs).

        The payload layout is stable per :attr:`SCHEMA_VERSION`: every
        key below is always present (``resilience`` included — all-zero
        for fault-free runs), so consumers never need existence checks;
        only ``rows``/``columns``/``timeline`` are opt-in via the flags.
        """
        payload = {
            "schema_version": self.SCHEMA_VERSION,
            "strategy": self.strategy,
            "split_index": self.split_index,
            "total_time": self.total_time,
            "result_rows": len(self.result),
            "setup_time": self.setup_time,
            "host_wait_initial": self.host_wait_initial,
            "host_wait_other": self.host_wait_other,
            "transfer_time": self.transfer_time,
            "host_processing_time": self.host_processing_time,
            "device_busy_time": self.device_busy_time,
            "device_stall_time": self.device_stall_time,
            "batches": self.batches,
            "intermediate_rows": self.intermediate_rows,
            "intermediate_bytes": self.intermediate_bytes,
            "host_counters": self.host_counters.as_dict(),
            "device_counters": self.device_counters.as_dict(),
            "host_stage_shares": self.host_stage_shares(),
            "device_operation_shares": self.device_operation_shares(),
            "resource_stats": self.resource_stats,
            "trace_metrics": dict(self.trace_metrics),
            "notes": {key: value for key, value in self.notes.items()
                      if isinstance(value, (str, int, float, bool, list))},
        }
        payload["cluster"] = dict(self.cluster)
        adaptivity = {
            "enabled": False,
            "replans": 0,
            "correction_factor": 1.0,
            "wasted_time": 0.0,
            "events": [],
        }
        adaptivity.update(self.adaptivity)
        payload["adaptivity"] = adaptivity
        payload["resilience"] = {
            "fallback_from": self.fallback_from,
            "retries": self.retries,
            "faults_injected": dict(self.faults_injected),
            "wasted_device_time": self.wasted_device_time,
            "admission_wait_time": self.admission_wait_time,
        }
        if include_rows:
            payload["rows"] = self.result.rows
            payload["columns"] = self.result.columns
        if include_timeline:
            payload["timeline"] = [
                {"actor": p.actor, "kind": p.kind, "start": p.start,
                 "end": p.end, "label": p.label, "resource": p.resource}
                for p in self.timeline]
        return payload
