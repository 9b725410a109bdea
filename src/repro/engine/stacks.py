"""Execution stacks (paper Fig 10).

* ``BLK``    — traditional file-system stack; all data moves to the host.
* ``NATIVE`` — direct NVMe into user space; still host-only processing.
* ``NDP``    — full on-device execution of the QEP.
* ``HYBRID`` — hybridNDP cooperative execution at a split point.

:class:`StackRunner` wires a catalog + device into the engines and runs a
query (SQL or prebuilt plan) on any stack, returning an
:class:`ExecutionReport` whose result rows are identical across stacks.
"""

import enum

from repro.context import ExecutionContext
from repro.engine.cooperative import (EXEC_TRACK, HOST_RESOURCE,
                                      CooperativeExecutor)
from repro.engine.host import HostEngine, HostEngineConfig
from repro.engine.ndp import NDPEngine, NDPEngineConfig
from repro.engine.timing import HostIOPath, TimingModel
from repro.errors import PlanError, ReproError, RetriesExhaustedError
from repro.faults import FAULTS_TRACK
from repro.query.optimizer import build_plan
from repro.storage.machines import HOST_I5


class Stack(enum.Enum):
    """Which software/hardware stack executes the query."""

    BLK = "blk"
    NATIVE = "native"
    NDP = "ndp"
    HYBRID = "hybrid"


class StackRunner:
    """Convenience facade: run queries on any stack over one catalog."""

    def __init__(self, catalog, database, device, host_spec=None,
                 buffer_scale=1.0, ndp_config=None):
        self.catalog = catalog
        self.database = database
        self.device = device
        self.host_spec = host_spec or HOST_I5
        # The host page cache is a share of host DRAM; like the device
        # buffers it is scaled to the synthetic dataset so the
        # cache-to-data ratio matches the paper's 4 GB vs 16 GB.
        page_cache = max(64 * 1024,
                         int(self.host_spec.memory_bytes // 2 * buffer_scale))
        self._host_config = HostEngineConfig(
            join_buffer_bytes=max(
                64 * 1024, int(32 * 1024 * 1024 * buffer_scale * 16)),
            block_cache_bytes=page_cache,
        )
        self._ndp_config = ndp_config or NDPEngineConfig(
            buffer_scale=buffer_scale)

        self._timing_native = TimingModel(device, self.host_spec,
                                          io_path=HostIOPath.NATIVE)
        self._timing_blk = TimingModel(device, self.host_spec,
                                       io_path=HostIOPath.BLOCK)

        self._host_native = HostEngine(catalog, self._timing_native,
                                       self._host_config)
        self._host_blk = HostEngine(catalog, self._timing_blk,
                                    self._host_config)
        self._ndp = NDPEngine(catalog, database, device, self._ndp_config)
        self._cooperative = CooperativeExecutor(
            self._host_native, self._ndp, self._timing_native)
        self._plan_cache = {}   # sql -> (statistics_version, QueryPlan)
        self._plan_cache_hits = 0
        self._plan_cache_misses = 0
        self._plan_cache_invalidations = 0

    @property
    def ndp_engine(self):
        """The NDP engine (exposed for planners and tests)."""
        return self._ndp

    @property
    def timing(self):
        """The native-path timing model used for NDP/hybrid runs."""
        return self._timing_native

    @property
    def cooperative(self):
        """The cooperative executor (exposed for the workload scheduler)."""
        return self._cooperative

    def plan(self, sql):
        """Build the physical plan for SQL text (memoised per SQL text).

        Sweeps and the concurrent scheduler re-run the same JOB queries
        many times; parsing and join-order optimisation are pure
        functions of the SQL and the catalog *statistics*, so the built
        plan is cached keyed by ``(sql, statistics_version)``: writes
        refresh the statistics and bump
        :meth:`~repro.relational.catalog.Catalog.statistics_version`, so
        a stale cached plan (built when cardinality estimates were
        different) is invalidated instead of silently reused.  Plans are
        read-only during execution — engines pull live table data
        through the catalog at run time, so updates between runs are
        still observed either way; the version only affects *estimates*.
        :meth:`plan_cache_stats` exposes the hit/miss/invalidation
        counts for reports and benches.
        """
        version = self.catalog.statistics_version()
        entry = self._plan_cache.get(sql)
        if entry is not None:
            cached_version, plan = entry
            if cached_version == version:
                self._plan_cache_hits += 1
                return plan
            self._plan_cache_invalidations += 1
        else:
            self._plan_cache_misses += 1
        plan = build_plan(sql, self.catalog)
        self._plan_cache[sql] = (version, plan)
        return plan

    def plan_cache_stats(self):
        """``{hits, misses, invalidations, entries}`` of the plan cache."""
        return {
            "hits": self._plan_cache_hits,
            "misses": self._plan_cache_misses,
            "invalidations": self._plan_cache_invalidations,
            "entries": len(self._plan_cache),
        }

    def run(self, query, stack, split_index=None, ctx=None, captured=None):
        """Execute ``query`` (SQL text or QueryPlan) on ``stack``.

        For ``Stack.HYBRID`` a ``split_index`` (the k of Hk) is required;
        any other stack rejects one.
        ``captured`` — an :meth:`~repro.engine.ndp.NDPEngine.capture` of
        the plan, taken by the caller — makes a host-only (BLK or NATIVE)
        run read the state it pinned instead of the live tables; an
        offload takes its own capture when it is staged, so the other
        stacks reject one.
        ``ctx`` (an :class:`~repro.context.ExecutionContext`) carries the
        run's tracer, fault plan and retry policy.  Tracing records
        the execution as structured spans for the
        Perfetto exporter at zero cost when absent.  A fault plan
        degrades NDP/hybrid runs deterministically; when an offload
        exhausts its retries the runner falls back to host-only
        execution mid-query and the report records the degradation
        (``fallback_from``, ``retries``, ``wasted_device_time``).
        """
        ctx = ExecutionContext.coerce(ctx)
        plan = self.plan(query) if isinstance(query, str) else query
        if split_index is not None and stack is not Stack.HYBRID:
            raise PlanError(f"split index {split_index} needs the hybrid "
                            f"stack, not {stack}")
        if stack is Stack.BLK:
            return self._traced_host(self._host_blk, plan,
                                     "host-only(blk)", ctx.tracer, captured)
        if stack is Stack.NATIVE:
            return self._traced_host(self._host_native, plan,
                                     "host-only(native)", ctx.tracer,
                                     captured)
        if captured is not None:
            raise PlanError(f"a capture is read by host-only stacks, "
                            f"not {stack}")
        if stack is Stack.HYBRID and split_index is None:
            raise PlanError("hybrid execution needs a split_index")
        try:
            if stack is Stack.NDP:
                return self._cooperative.run_full_ndp(plan, ctx)
            if stack is Stack.HYBRID:
                return self._cooperative.run_split(plan, split_index, ctx)
        except RetriesExhaustedError as failure:
            return self.host_fallback(plan, failure, ctx.tracer)
        raise PlanError(f"unknown stack {stack!r}")

    def host_fallback(self, plan, failure, tracer):
        """Graceful degradation: finish the query host-only.

        The offload abandoned after bounded retries
        (:class:`~repro.errors.RetriesExhaustedError`); re-execute the
        whole plan on the host's native path and account the wasted
        device attempt on the degraded report, so the caller still gets
        correct rows plus an honest timeline.
        """
        if tracer is not None and tracer.enabled:
            tracer.instant(FAULTS_TRACK, "fallback", failure.wasted_time,
                           args={"from": failure.strategy,
                                 "retries": failure.retries})
        report = self._traced_host(self._host_native, plan,
                                   "host-only(fallback)", tracer)
        report.mark_fallback(failure.strategy, failure.retries,
                             failure.faults_injected, failure.wasted_time)
        # The failed attempts happened before the host re-run started.
        report.total_time += failure.wasted_time
        return report

    def _traced_host(self, engine, plan, strategy, tracer, captured=None):
        """Run a host-only plan, recording its breakdown as trace spans.

        Host-only execution is not event-driven (one timing charge covers
        the whole plan), so its trace is the Table-4 breakdown laid out
        sequentially on the host compute track under one root span.
        """
        report = engine.execute(plan, strategy=strategy, captured=captured)
        if tracer is not None and tracer.enabled:
            root = tracer.begin(EXEC_TRACK, strategy, 0.0,
                                category="execution",
                                args={"strategy": strategy})
            offset = 0.0
            for category, seconds in vars(report.host_breakdown).items():
                if seconds <= 0:
                    continue
                tracer.span("host/compute", category, offset,
                            offset + seconds, category="compute",
                            parent=root,
                            args={"placement": "HOST",
                                  "resource": HOST_RESOURCE,
                                  "operator": category})
                offset += seconds
            tracer.end(root, report.total_time)
            report.trace_metrics = tracer.metrics()
        return report

    def run_all_splits(self, query, ctx_factory=None):
        """Run every strategy: BLK, H0..H(n-1), full NDP.

        Returns ``{strategy_name: ExecutionReport}`` — the raw material
        of the paper's Figs 12 and 16.  The key of each entry matches the
        report's own ``strategy`` label; the baseline runs on the BLK
        stack under the matrix's canonical ``"host-only"`` name.  Only
        repro errors are recorded in place of a report — device overload
        and friends mark an infeasible strategy, an
        :class:`~repro.errors.EventBudgetExceeded` one whose simulation
        ran out of events — and programming errors propagate.

        ``ctx_factory(strategy_name)`` — when given — is called once per
        strategy and must return an
        :class:`~repro.context.ExecutionContext` (or ``None``); the sweep
        layer uses it to emit one Perfetto trace per strategy.
        """
        def _ctx(name):
            ctx = ctx_factory(name) if ctx_factory else None
            return ExecutionContext.coerce(ctx)

        plan = self.plan(query) if isinstance(query, str) else query
        baseline = self._traced_host(self._host_blk, plan, "host-only",
                                     _ctx("host-only").tracer)
        reports = {"host-only": baseline}
        for k in range(plan.table_count):
            try:
                reports[f"H{k}"] = self.run(plan, Stack.HYBRID,
                                            split_index=k,
                                            ctx=_ctx(f"H{k}"))
            except ReproError as error:
                # overload -> infeasible; event cap -> over budget
                reports[f"H{k}"] = error
        try:
            reports["full-ndp"] = self.run(plan, Stack.NDP,
                                           ctx=_ctx("full-ndp"))
        except ReproError as error:
            reports["full-ndp"] = error
        return reports
