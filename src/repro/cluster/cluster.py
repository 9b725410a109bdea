"""Multi-device scale-out: scatter-gather cooperative execution.

A :class:`DeviceCluster` attaches ``n`` smart-storage devices to one
host over *mirrored* storage (one flash store, one LSM database, one
catalog — see :class:`repro.storage.topology.Topology`).  The
:class:`ScatterGatherExecutor` runs one query across all of them:

1. **Scatter** — a seed-deterministic
   :class:`~repro.cluster.partition.Partitioner` splits the driving
   table's scan responsibility into per-device shards; each device runs
   the hybridNDP split the :class:`~repro.core.planner.HybridPlanner`
   picked for it, restricted to its shard, as a staged split
   (``prepare_split`` → ``start`` → completion hook,
   docs/architecture.md) on one ``n``-device
   :class:`~repro.sim.SimContext` (one clock, one host CPU, one PCIe
   link + NDP core per device).
2. **Gather** — partitions complete on the shared timeline; the host
   concatenates their pre-finalize joined rows in partition order and
   runs the aggregation/sort epilogue *once* on the shared CPU.

Merge correctness: because the driving shards are disjoint and cover the
table, and inner probes read the full mirrored data set, the per-device
joined-row sets are disjoint and their union equals the serial result's
pre-finalize rows — so one final epilogue is exact for every aggregate,
including AVG (docs/cluster.md has the full argument).

Partition placement is whole-partition: a partition whose planner
decision is host-only (or whose device pipeline cannot be reserved) runs
its shard on the host's native path, serialized on the shared CPU.

Robustness (docs/robustness.md, "Stragglers, speculation, and
deadlines"):

* **Multi-fault degradation** — a device whose offload exhausts its
  retries is marked failed and its partition re-executes on the
  least-loaded surviving device; the cascade is iterative, so *any*
  number of device failures eventually degrades to the host fallback.
  A :class:`~repro.faults.RetryPolicy` ``wasted_time_budget`` caps the
  total simulated seconds one run may burn on abandoned attempts —
  once exceeded, remaining re-executions short-circuit to the host.
* **Speculative straggler mitigation** — with a
  :class:`SpeculationPolicy`, the executor watches per-partition
  progress on the shared clock; a partition running past
  ``factor ×`` the median completed duration is cloned onto an idle
  device (or the host), first result wins, the loser is cooperatively
  cancelled and its cost audited in ``report.cluster["speculation"]``.
* **Deadlines** — ``ExecutionContext.deadline`` bounds the whole run in
  simulated time: at the deadline every in-flight attempt is cancelled
  (reservations released) and the run raises
  :class:`~repro.errors.DeadlineExceededError` with a partial audit.
"""

from collections import Counter
from dataclasses import dataclass, field, replace

from repro.columns import ColumnBatch
from repro.context import ExecutionContext
from repro.core import DeviceLoad, ExecutionStrategy, PlanningContext
from repro.cluster.partition import Partitioner
from repro.engine.cooperative import CooperativeExecutor
from repro.engine.counters import WorkCounters
from repro.engine.ndp import NDPEngine
from repro.engine.pipeline import gather_fragments
from repro.engine.results import ExecutionReport, TimelinePhase
from repro.engine.timing import ExecutionLocation, TimingModel
from repro.errors import (DeadlineExceededError, DeviceOverloadError,
                          PlanError, ReproError)
from repro.faults import FAULTS_TRACK, FaultPlan
from repro.sim import HOST_RESOURCE, SimContext
from repro.storage.topology import Topology


@dataclass(frozen=True)
class ClusterFaultPlan:
    """Per-device fault plans for a cluster run.

    ``plans`` maps device index to a :class:`~repro.faults.FaultPlan`;
    devices without an entry get ``default`` (``None`` = no faults).
    Passing a plain ``FaultPlan`` as ``ExecutionContext.faults`` instead
    applies it to every device (each device still draws its own
    injector, hence its own RNG stream).
    """

    plans: dict = field(default_factory=dict)
    default: object = None

    def plan_for(self, index):
        """The fault plan device ``index`` runs under (may be None)."""
        return self.plans.get(index, self.default)


@dataclass(frozen=True)
class SpeculationPolicy:
    """When and how the scatter-gather executor clones stragglers.

    Once at least ``quorum`` (a fraction, rounded up) of the device-placed
    partitions have completed, the median completed-attempt duration
    becomes the reference; an in-flight attempt that exceeds ``factor ×``
    that median is cloned once onto the least-loaded idle surviving
    device (or the host when none is free).  The first result wins; the
    loser is cooperatively cancelled and its elapsed cost is audited in
    ``report.cluster["speculation"]`` — never mixed into
    ``wasted_device_time``, which stays the *fault* waste.
    """

    factor: float = 1.5
    quorum: float = 0.5

    def __post_init__(self):
        if self.factor < 1.0:
            raise ReproError("speculation factor must be >= 1.0")
        if not 0.0 < self.quorum <= 1.0:
            raise ReproError("speculation quorum must be in (0, 1]")

    def describe(self):
        return {"factor": self.factor, "quorum": self.quorum}


class _Attempt:
    """One in-flight device execution of a partition's shard."""

    def __init__(self, device_index, prepared, started_at,
                 speculative=False):
        self.device_index = device_index
        self.prepared = prepared
        self.started_at = started_at
        self.speculative = speculative

    def cancel(self, now, reason):
        """Cooperatively cancel and release; returns elapsed seconds."""
        self.prepared.cancel(now, reason=reason)
        return max(0.0, now - self.started_at)


class _Partition:
    """One shard's execution state inside a scatter-gather run."""

    def __init__(self, index, shard, split_index):
        self.index = index
        self.shard = shard
        self.split_index = split_index
        self.placement = None       # "Hk@dJ" | "host" | "host-fallback" | "empty"
        self.device = None          # device index, None for host/empty
        self.attempted = []         # device indexes that failed this shard
        self.rows = None            # pre-finalize joined rows
        self.completed_at = None
        self.retries = 0
        self.host_counters = None
        self.device_counters = None
        self.timeline = ()
        self.phases = {}            # ExecutionReport phase field -> value
        self.wasted_time = 0.0
        self.done = False           # first result committed
        self.duration = None        # winning attempt's elapsed seconds
        self.attempt = None         # primary in-flight _Attempt
        self.spec_attempt = None    # speculative clone's _Attempt
        self.speculated = False     # clone-once guard

    def describe(self):
        return {
            "partition": self.index,
            "placement": self.placement,
            "device": self.device,
            "shard": self.shard.describe() if self.shard is not None
            else "all",
            "rows": len(self.rows) if self.rows is not None else None,
            "completed_at": self.completed_at,
            "retries": self.retries,
            "attempted_devices": list(self.attempted),
        }


class DeviceCluster:
    """``n`` smart-storage devices over one environment's mirrored store.

    Built from an :class:`~repro.workloads.loader.Environment` plus a
    cluster :class:`~repro.storage.topology.Topology` (constructed here
    when not given): every device shares the environment's flash,
    database and catalog but owns its PCIe link, NDP core and DRAM
    budget, so each gets its own :class:`~repro.engine.ndp.NDPEngine`
    and :class:`~repro.engine.cooperative.CooperativeExecutor` around
    the shared host engine.

    Clusters may be heterogeneous (``Topology.cluster(device_specs=,
    links=)``): a device whose spec or link differs from the
    environment's gets its *own* :class:`~repro.engine.timing.TimingModel`
    priced off its hardware; homogeneous devices share the environment's
    model, so homogeneous clusters stay byte-identical to before.

    ``speculation`` (a :class:`SpeculationPolicy`, or ``None`` to
    disable) turns on speculative straggler re-execution for every run.
    """

    def __init__(self, env, n_devices=None, partitioner=None,
                 topology=None, speculation=None):
        if topology is None:
            if n_devices is None:
                raise ReproError(
                    "DeviceCluster needs n_devices or a cluster topology")
            topology = Topology.cluster(
                n_devices, partitioner=partitioner,
                device_spec=env.device.spec, host_spec=env.runner.host_spec,
                flash=env.device.flash, link=env.device.link)
        elif n_devices is not None and topology.n_devices != n_devices:
            raise ReproError(
                f"topology has {topology.n_devices} devices, "
                f"n_devices={n_devices} disagrees")
        if speculation is not None and not isinstance(speculation,
                                                     SpeculationPolicy):
            raise ReproError(
                f"speculation must be a SpeculationPolicy, "
                f"got {type(speculation).__name__}")
        self.env = env
        self.topology = topology
        self.devices = topology.devices
        self.speculation = speculation
        spec = topology.partitioning
        if spec is None:
            spec = Topology.cluster(topology.n_devices).partitioning
        self.partitioner = Partitioner.fit(
            spec.kind, topology.n_devices, env.catalog, seed=spec.seed)
        host = env.runner.cooperative.host
        timing = env.runner.timing
        ndp_config = env.runner.ndp_engine.config
        host_spec = env.runner.host_spec
        base = env.device
        self.executors = [
            CooperativeExecutor(
                host,
                NDPEngine(env.catalog, env.database, device, ndp_config),
                timing if (device.spec == base.spec
                           and device.link == base.link)
                else TimingModel(device, host_spec))
            for device in self.devices
        ]
        self.host = host
        self.timing = timing
        self.executor = ScatterGatherExecutor(self)

    @property
    def n_devices(self):
        """How many devices the cluster has."""
        return len(self.devices)

    def run(self, query, ctx=None, split_index=None):
        """Scatter-gather ``query`` across the cluster (see executor)."""
        return self.executor.run(query, ctx=ctx, split_index=split_index)


class _RunState:
    """Mutable state of one scatter-gather run."""

    def __init__(self, plan, ctx, kernel, tracer, partitions, budget):
        self.plan = plan
        self.ctx = ctx
        self.kernel = kernel
        self.tracer = tracer
        self.partitions = partitions
        self.failed_devices = set()
        self.failures = []           # audit of abandoned offloads
        self.inflight_devices = set()
        self.budget = budget         # wasted-time cap, None = unbounded
        self.budget_exhausted = False
        self.spec_events = []        # speculation audit trail
        self.spec_clones = 0
        self.spec_wasted = 0.0       # losing attempts' elapsed seconds
        self.deadline_hit = False
        self.deadline_cancelled = []
        self.injectors = []          # every device attempt's fault injector

    @property
    def wasted_total(self):
        return sum(part.wasted_time for part in self.partitions)


class ScatterGatherExecutor:
    """Runs one query as concurrent per-shard splits plus a host merge."""

    def __init__(self, cluster):
        self.cluster = cluster

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def run(self, query, ctx=None, split_index=None):
        """Execute ``query`` (SQL or plan) across the whole cluster.

        Returns a merged :class:`~repro.engine.results.ExecutionReport`
        whose rows are identical to single-device serial execution;
        ``report.cluster`` records the per-partition placements, the
        speculation audit and any degradations; ``report.resource_stats``
        has one link/core pair per device.  ``split_index`` pins every
        device partition to Hk; by default each partition runs the
        planner's load-aware choice.  ``ctx.deadline`` bounds the run in
        simulated seconds — exceeding it cancels every in-flight attempt
        and raises :class:`~repro.errors.DeadlineExceededError`.
        """
        ctx = ExecutionContext.coerce(ctx)
        cluster = self.cluster
        env = cluster.env
        plan = env.runner.plan(query) if isinstance(query, str) else query
        n = cluster.n_devices
        kernel = SimContext.fresh(n, tracer=ctx.tracer)
        tracer = ctx.sim_tracer()

        driving = plan.entries[0].table_name
        if n == 1:
            # Single device: no shard restriction at all, so the device
            # fragment is byte-identical to the serial hybrid path.
            shards = [None]
        else:
            shards = cluster.partitioner.shards(driving)

        partitions = []
        for index, shard in enumerate(shards):
            split = self._partition_split(plan, kernel, index, split_index)
            partitions.append(_Partition(index, shard, split))
        state = _RunState(plan, ctx, kernel, tracer, partitions,
                          self._wasted_budget(ctx))

        for part in partitions:
            if part.shard is not None and part.shard.is_empty:
                part.placement = "empty"
                part.rows = ColumnBatch.empty()
                part.completed_at = 0.0
                part.done = True
                continue
            if part.split_index is None:
                self._start_host(state, part, at=0.0)
            else:
                self._start_device(state, part, part.index, at=0.0)

        if ctx.deadline is not None:
            kernel.loop.schedule_at(
                ctx.deadline, lambda: self._deadline_expired(state),
                label="cluster deadline")

        kernel.loop.run()
        if state.deadline_hit:
            raise self._deadline_error(state)
        unfinished = [part.index for part in partitions
                      if part.rows is None]
        if unfinished:
            raise ReproError(
                f"scatter-gather drained with unfinished partitions: "
                f"{unfinished}")
        return self._merge(state)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _partition_split(self, plan, kernel, index, split_index):
        """The Hk each partition runs, or None for host placement."""
        if split_index is not None:
            if not 0 <= split_index < plan.table_count:
                raise PlanError(
                    f"split index {split_index} out of range for "
                    f"{plan.table_count} tables")
            return split_index
        load = DeviceLoad.snapshot(kernel.links[index], kernel.cores[index],
                                   self.cluster.devices[index], kernel.now)
        decision = self.cluster.env.planner.decide(
            plan, context=PlanningContext(device_load=load))
        if decision.strategy is ExecutionStrategy.HOST_ONLY:
            return None
        # A FULL_NDP decision carries the deepest split, table_count - 1,
        # and partitions run it as that hybrid split: full NDP would
        # finalize on-device, but the cluster must merge partitions
        # before finalizing, so the epilogue is deferred to the gather.
        return decision.split_index

    def _ctx_for(self, ctx, device_index):
        """The context device ``device_index`` executes under."""
        if isinstance(ctx.faults, ClusterFaultPlan):
            return replace(ctx, faults=ctx.faults.plan_for(device_index))
        return ctx

    def _wasted_budget(self, ctx):
        """The run's wasted-time cap: context policy, then fault plan."""
        if ctx.retry_policy is not None:
            return ctx.retry_policy.wasted_time_budget
        faults = ctx.faults
        if isinstance(faults, ClusterFaultPlan):
            faults = faults.default
        if isinstance(faults, FaultPlan):
            return faults.retry.wasted_time_budget
        return None

    def _start_device(self, state, part, device_index, at,
                      speculative=False):
        """Stage and start ``part`` on device ``device_index``."""
        executor = self.cluster.executors[device_index]
        ctx = self._ctx_for(state.ctx, device_index)
        label = (f"p{part.index}" if device_index == part.index
                 else f"p{part.index}@d{device_index}")
        if speculative:
            label += "+spec"
        try:
            prepared = executor.prepare_split(
                state.plan, part.split_index, ctx,
                kernel=state.kernel.view(device_index),
                trace_label=f"d{device_index}/{label}",
                shard=part.shard, finalize=False)
        except DeviceOverloadError:
            # The shard's pipeline does not fit this device's DRAM
            # budget; the shard runs on the host instead.
            self._start_host(state, part, at=at, speculative=speculative)
            return
        attempt = _Attempt(device_index, prepared, at,
                           speculative=speculative)
        state.injectors.append(prepared.injector)
        if speculative:
            part.spec_attempt = attempt
        else:
            part.attempt = attempt
            part.device = device_index
            part.placement = f"H{part.split_index}@d{device_index}"
        state.inflight_devices.add(device_index)
        prepared.start(
            at,
            on_complete=lambda split, part=part, attempt=attempt:
                self._attempt_done(state, part, attempt),
            on_abandon=lambda split, error, part=part, attempt=attempt:
                self._attempt_abandoned(state, part, attempt, error))

    def _attempt_done(self, state, part, attempt):
        prepared = attempt.prepared
        now = prepared.host_end
        state.inflight_devices.discard(attempt.device_index)
        if part.done:
            # Lost a same-timestamp race: the winner committed first.
            state.spec_wasted += max(0.0, now - attempt.started_at)
            prepared.release()
            return
        part.done = True
        part.duration = now - attempt.started_at
        part.device = attempt.device_index
        part.placement = f"H{part.split_index}@d{attempt.device_index}"
        part.rows = gather_fragments(prepared.joined_rows,
                                     state.plan.select_items,
                                     state.plan.group_by)
        part.completed_at = now
        part.host_counters = prepared.host_counters
        part.device_counters = prepared.execution.counters
        part.timeline = list(prepared.timeline)
        part.phases = prepared.phases()
        part.retries += prepared.command.retries
        part.wasted_time += prepared.command.wasted_time
        prepared.release()
        self._cancel_losers(state, part, attempt, now)
        self._maybe_speculate(state, now)

    # ------------------------------------------------------------------
    # Speculation
    # ------------------------------------------------------------------
    def _maybe_speculate(self, state, now):
        """After a completion: arm straggler checks if quorum is met."""
        policy = self.cluster.speculation
        if policy is None:
            return
        eligible = [part for part in state.partitions
                    if part.split_index is not None]
        durations = sorted(part.duration for part in eligible
                           if part.done and part.duration is not None)
        if not durations:
            return
        needed = max(1, -(-len(eligible) * policy.quorum // 1))
        if len(durations) < needed:
            return
        median = durations[len(durations) // 2]
        threshold = policy.factor * median
        for part in eligible:
            if part.done or part.speculated or part.attempt is None:
                continue
            fire_at = part.attempt.started_at + threshold
            if fire_at <= now:
                self._clone(state, part, now, median)
            else:
                state.kernel.loop.schedule_at(
                    fire_at,
                    lambda part=part, fire_at=fire_at, median=median:
                        self._speculation_check(state, part, fire_at,
                                                median),
                    label=f"speculation check p{part.index}")

    def _speculation_check(self, state, part, now, median):
        """A scheduled straggler check fired: clone if still running."""
        if part.done or part.speculated or part.attempt is None:
            return
        if state.deadline_hit:
            return
        self._clone(state, part, now, median)

    def _clone(self, state, part, now, median):
        """Clone the straggling ``part`` onto an idle device or the host."""
        part.speculated = True
        state.spec_clones += 1
        straggler = part.attempt.device_index
        candidates = [
            j for j in range(self.cluster.n_devices)
            if j != straggler
            and j not in state.failed_devices
            and j not in part.attempted
            and j not in state.inflight_devices
        ]
        if candidates:
            target = state.kernel.least_loaded(self.cluster.devices,
                                               candidates)
            where = f"d{target}"
        else:
            target = None
            where = "host"
        event = {
            "partition": part.index,
            "straggler_device": straggler,
            "clone": where,
            "at": now,
            "median": median,
            "elapsed": now - part.attempt.started_at,
        }
        state.spec_events.append(event)
        if state.tracer.enabled:
            state.tracer.instant(
                FAULTS_TRACK,
                f"speculate p{part.index}: d{straggler} -> {where}", now,
                args=dict(event))
        if target is not None:
            self._start_device(state, part, target, at=now,
                               speculative=True)
        else:
            self._start_host(state, part, at=now, speculative=True)

    def _cancel_losers(self, state, part, winner, now):
        """First result wins: cancel the other in-flight attempt."""
        for loser in (part.attempt, part.spec_attempt):
            if loser is None or loser is winner:
                continue
            elapsed = loser.cancel(now, reason="speculation-loser")
            state.inflight_devices.discard(loser.device_index)
            state.spec_wasted += elapsed
            state.spec_events.append({
                "partition": part.index,
                "loser_device": loser.device_index,
                "cancelled_at": now,
                "wasted": elapsed,
            })
            if state.tracer.enabled:
                state.tracer.instant(
                    FAULTS_TRACK,
                    f"speculation loser p{part.index}@"
                    f"d{loser.device_index} cancelled", now,
                    args={"partition": part.index, "wasted": elapsed})
        part.attempt = None
        part.spec_attempt = None

    # ------------------------------------------------------------------
    # Degradation
    # ------------------------------------------------------------------
    def _attempt_abandoned(self, state, part, attempt, error):
        """A device failure: re-execute the shard elsewhere.

        The failed device is excluded from all further placement.  The
        cascade is iterative — each re-execution picks the least-loaded
        surviving device, any number of failures eventually falls back
        to the host — and bounded by the run's wasted-time budget: once
        the total abandoned-attempt cost exceeds it, remaining
        re-executions short-circuit straight to the host.
        """
        now = state.kernel.now
        failed = attempt.device_index
        attempt.prepared.release()
        state.inflight_devices.discard(failed)
        part.retries += error.retries
        part.wasted_time += error.wasted_time
        part.attempted.append(failed)
        state.failed_devices.add(failed)
        state.failures.append({
            "partition": part.index,
            "device": failed,
            "at": now,
            "retries": error.retries,
            "error": str(error),
        })
        if state.tracer.enabled:
            state.tracer.instant(
                FAULTS_TRACK, f"device {failed} failed", now,
                args={"partition": part.index, "retries": error.retries})
        if part.done:
            return                   # a speculative winner already landed
        if attempt.speculative:
            part.spec_attempt = None
            if part.attempt is not None:
                return               # the primary attempt races on alone
        else:
            part.attempt = None
            if part.spec_attempt is not None:
                # The clone outlives its failed primary and becomes the
                # partition's attempt of record.
                part.spec_attempt.speculative = False
                part.attempt = part.spec_attempt
                part.spec_attempt = None
                return
        if state.budget is not None and state.wasted_total > state.budget:
            if not state.budget_exhausted:
                state.budget_exhausted = True
                state.failures.append({
                    "partition": part.index,
                    "at": now,
                    "budget": state.budget,
                    "wasted_total": state.wasted_total,
                    "error": "wasted-time budget exhausted; "
                             "degrading to host",
                })
            self._start_host(state, part, at=now, fallback=True)
            return
        survivors = [
            j for j in range(self.cluster.n_devices)
            if j not in state.failed_devices and j not in part.attempted
        ]
        if survivors:
            target = min(
                survivors,
                key=lambda j: (state.kernel.cores[j].free_at, j))
            self._start_device(state, part, target, at=now)
        else:
            self._start_host(state, part, at=now, fallback=True)

    # ------------------------------------------------------------------
    # Host placement
    # ------------------------------------------------------------------
    def _start_host(self, state, part, at, fallback=False,
                    speculative=False):
        """Run ``part``'s shard host-only, serialized on the shared CPU.

        The rows come from an eager native-path pipeline run over the
        shard (identical to the device path's pre-finalize rows by
        construction); the shared CPU resource then prices when that
        service time actually fits between the other partitions' host
        work.  A *speculative* host attempt commits only when its CPU
        slot ends and the device primary has not won by then — its CPU
        booking stands either way, the honest cost of hedging.
        """
        kernel = state.kernel
        counters = WorkCounters()
        rows, _row_bytes = self.cluster.host.run_pipeline(
            state.plan, counters, driving_shard=part.shard)
        service, _ = self.cluster.timing.charge(counters,
                                                ExecutionLocation.HOST)
        begin, end = kernel.cpu.acquire(
            at, service, label=f"host partition {part.index}")
        if speculative:
            kernel.loop.schedule_at(
                end,
                lambda: self._host_attempt_done(
                    state, part, rows, counters, service, begin, end),
                label=f"host clone p{part.index}")
            return
        self._commit_host(state, part, rows, counters, service, begin, end,
                          fallback=fallback)

    def _commit_host(self, state, part, rows, counters, service, begin,
                     end, fallback=False, speculative=False):
        part.done = True
        part.duration = end - begin
        part.placement = ("host-speculative" if speculative
                          else "host-fallback" if fallback else "host")
        part.device = None
        part.rows = rows
        part.completed_at = end
        part.host_counters = counters
        part.phases = {"host_processing_time": service}
        part.timeline = [
            TimelinePhase("host", "compute", begin, end,
                          f"partition {part.index} (host)",
                          resource=HOST_RESOURCE),
        ]
        if state.tracer.enabled:
            state.tracer.span(
                f"exec/p{part.index}", part.placement, begin, end,
                category="execution",
                args={"partition": part.index, "service_time": service})

    def _host_attempt_done(self, state, part, rows, counters, service,
                           begin, end):
        """A speculative host clone's CPU slot finished."""
        if part.done:
            state.spec_wasted += service
            state.spec_events.append({
                "partition": part.index,
                "loser_device": None,
                "cancelled_at": end,
                "wasted": service,
            })
            return
        self._commit_host(state, part, rows, counters, service, begin,
                          end, speculative=True)
        self._cancel_losers(state, part, None, end)
        self._maybe_speculate(state, end)

    # ------------------------------------------------------------------
    # Deadline
    # ------------------------------------------------------------------
    def _deadline_expired(self, state):
        """The run deadline fired: cancel everything still in flight."""
        if all(part.done for part in state.partitions):
            return
        now = state.ctx.deadline
        state.deadline_hit = True
        if state.tracer.enabled:
            state.tracer.instant(
                FAULTS_TRACK, f"deadline {now}s expired", now,
                args={"unfinished": [part.index
                                     for part in state.partitions
                                     if not part.done]})
        for part in state.partitions:
            for attempt in (part.attempt, part.spec_attempt):
                if attempt is None:
                    continue
                elapsed = attempt.cancel(now, reason="deadline")
                state.inflight_devices.discard(attempt.device_index)
                part.wasted_time += elapsed
                state.deadline_cancelled.append({
                    "partition": part.index,
                    "device": attempt.device_index,
                    "elapsed": elapsed,
                    "speculative": attempt.speculative,
                })
            part.attempt = None
            part.spec_attempt = None

    def _deadline_error(self, state):
        partitions = state.partitions
        completed = [part.index for part in partitions if part.done]
        return DeadlineExceededError(
            f"cluster run blew its {state.ctx.deadline}s deadline with "
            f"{len(partitions) - len(completed)} of {len(partitions)} "
            f"partitions unfinished",
            deadline=state.ctx.deadline,
            elapsed=state.ctx.deadline,
            retries=sum(part.retries for part in partitions),
            wasted_time=state.wasted_total,
            partial={
                "completed_partitions": completed,
                "cancelled": list(state.deadline_cancelled),
                "placements": {part.index: part.placement
                               for part in partitions},
                "failed_devices": sorted(state.failed_devices),
            })

    # ------------------------------------------------------------------
    # Gather
    # ------------------------------------------------------------------
    def _merge(self, state):
        """Concatenate partitions in order, finalize once, build report."""
        cluster = self.cluster
        kernel = state.kernel
        partitions = state.partitions
        # Partition order => deterministic gather-merge of the batches.
        merged_rows = gather_fragments([part.rows for part in partitions],
                                       state.plan.select_items,
                                       state.plan.group_by)
        merge_counters = WorkCounters()
        result = cluster.host.finalize_fragment(state.plan, merged_rows,
                                                merge_counters)
        merge_time, _ = cluster.timing.charge(merge_counters,
                                              ExecutionLocation.HOST)
        # Not kernel.now: stale no-op events (a cancelled straggler's
        # pending batch, a deadline that never fired) advance the clock
        # past the real work.  The gather is ready when the last
        # partition's host work lands; the CPU resource itself prices
        # any further wait.
        gather_at = max(part.completed_at for part in partitions)
        begin, end = kernel.cpu.acquire(gather_at, merge_time,
                                        label="gather-merge")
        # Not kernel.horizon: that includes clock.now, which a cancelled
        # attempt's stale (no-op) events drag past the real work.  The
        # makespan is the gather end or the last booked resource instant,
        # whichever is later — identical to the horizon when nothing was
        # cancelled.
        total = max([end] + [resource.free_at
                             for resource in kernel.resources()])
        if state.tracer.enabled:
            state.tracer.span("exec/gather", "gather-merge", begin, end,
                              category="execution",
                              args={"rows_in": len(merged_rows),
                                    "rows_out": len(result.rows)})

        host_counters = WorkCounters()
        device_counters = WorkCounters()
        for part in partitions:
            if part.host_counters is not None:
                host_counters.merge(part.host_counters)
            if part.device_counters is not None:
                device_counters.merge(part.device_counters)
        host_counters.merge(merge_counters)

        timeline = []
        for part in partitions:
            timeline.extend(part.timeline)
        timeline.append(TimelinePhase("host", "compute", begin, end,
                                      "gather-merge",
                                      resource=HOST_RESOURCE))
        timeline.sort(key=lambda phase: (phase.start, phase.end))

        device_parts = [part for part in partitions
                        if part.device is not None]
        split_label = (f"H{device_parts[0].split_index}" if device_parts
                       else "host")
        policy = cluster.speculation
        phases = {"host_processing_time": 0}
        for part in partitions:     # partition order: stable float sums
            for name, value in part.phases.items():
                phases[name] = phases.get(name, 0) + value
        phases["host_processing_time"] += merge_time
        report = ExecutionReport(
            strategy=f"scatter-gather[{cluster.n_devices}x{split_label}]",
            total_time=total,
            result=result,
            split_index=(device_parts[0].split_index if device_parts
                         else None),
            host_counters=host_counters,
            device_counters=device_counters,
            timeline=timeline,
            resource_stats=kernel.resource_stats(total),
            trace_metrics=state.tracer.metrics(),
            cluster={
                "n_devices": cluster.n_devices,
                "partitioner": cluster.partitioner.describe(),
                "driving_table": state.plan.entries[0].table_name,
                "merge_time": merge_time,
                "partitions": [part.describe() for part in partitions],
                "failed_devices": sorted(state.failed_devices),
                "failures": state.failures,
                "speculation": {
                    "policy": (policy.describe() if policy is not None
                               else None),
                    "clones": state.spec_clones,
                    "events": list(state.spec_events),
                    "wasted_time": state.spec_wasted,
                },
            },
            **phases,
        )
        retries = sum(part.retries for part in partitions)
        if retries:
            report.retries = retries
            report.wasted_device_time = sum(part.wasted_time
                                            for part in partitions)
        # Every attempt drew from its own injector, winners, failures and
        # cancelled losers alike; the run injected all of their faults.
        faults = Counter()
        for injector in state.injectors:
            faults.update(injector.faults_injected())
        report.faults_injected = dict(sorted(faults.items()))
        return report
