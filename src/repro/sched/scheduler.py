"""The concurrent workload scheduler.

One :class:`WorkloadScheduler` owns a :class:`~repro.sim.SimContext` —
one clock, one event loop, one host CPU, one PCIe link + NDP core per
device — and admits many queries onto it.  Each admitted offload is a
staged split (``prepare_split`` → ``start`` → ``finish``,
docs/architecture.md) interleaved with the others on the shared
resources, so queries contend for link bandwidth, device compute, host
CPU *and* the device's token-tracked DRAM budget, exactly the regime the
paper's per-operator buffer reservations (17 MB per selection, 7 MB per
join) were designed for.

Admission control and placement per arriving query:

1. **Load-aware placement** — re-run the hybrid planner with the
   kernel's current utilization folded into the cost model
   (:class:`~repro.core.cost_model.DeviceLoad`): a hot device inflates
   device-side costs, pushing marginal queries back to the host.
2. **DRAM admission** — stage the chosen split with
   :meth:`~repro.engine.cooperative.CooperativeExecutor.prepare_split`,
   which reserves the pipeline's buffers.  If the reservation does not
   fit the remaining budget the query waits in a FIFO queue until a
   completion frees buffers (head-of-line blocking keeps admission
   fair and deterministic); a query that would not fit even an *idle*
   device runs on the host instead.
3. **Host placement** — host-only queries execute eagerly over the
   capture taken at admission (same rows and charges as serial
   execution) and their service time serializes on the shared host CPU
   resource.

Determinism: arrivals are seeded, the event loop breaks timestamp ties
by insertion order, and host work is priced by the same counters as
serial runs — the same seed reproduces the whole workload timeline byte
for byte.  Under a :class:`~repro.faults.FaultPlan` every job gets a
fresh injector, but each one seeds its RNG with the plan's seed, so all
jobs replay the same fault stream; an injector passed in instead of a
plan is shared by every job, which then draw different faults.
"""

from dataclasses import dataclass, field

from repro.context import ExecutionContext
from repro.core import DeviceLoad, ExecutionStrategy, PlanningContext
from repro.engine.stacks import Stack
from repro.errors import (AdmissionTimeoutError, DeviceOverloadError,
                          ReproError)
from repro.sched.arrivals import ClosedLoopArrivals, assign_clients
from repro.sim import SimContext
from repro.workloads.job_queries import query as job_query

#: Trace track for scheduler decisions (admissions, queueing, placement).
SCHED_TRACK = "sched"


@dataclass
class QueryJob:
    """One query's life cycle inside a workload."""

    seq: int                    # submission order, unique per workload
    name: str                   # JOB query name, e.g. "8c"
    sql: str
    arrival: float              # simulated submission time
    client: int = None          # closed-loop client id, None for open loop
    deadline: float = None      # simulated-time budget after arrival
    plan: object = None
    decision: object = None     # HybridDecision under load, if planned
    placement: str = None       # "host-only" | "Hk" | "host-fallback"
                                # | "deadline-shed"
    admitted_at: float = None   # when execution actually started
    completed_at: float = None
    shed_at: float = None       # when the deadline shed/cancelled it
    report: object = None       # ExecutionReport once finished
    error: str = None           # abandon reason, if any
    # Scheduler bookkeeping (never serialized): the capture taken at
    # admission, the in-flight staged split and its device, and the
    # adaptive audit — replan count, cancelled-attempt time, breaker
    # decisions.
    _captured: object = field(default=None, repr=False)
    _prepared: object = field(default=None, repr=False)
    _target: int = field(default=None, repr=False)
    _replans: int = field(default=0, repr=False)
    _adapt_wasted: float = field(default=0.0, repr=False)
    _adapt_events: list = field(default_factory=list, repr=False)

    @property
    def latency(self):
        """Submission-to-completion latency (includes queueing)."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.arrival

    @property
    def queue_wait(self):
        """Time between submission and admission."""
        if self.admitted_at is None:
            return None
        return self.admitted_at - self.arrival

    @property
    def label(self):
        """Unique display label, e.g. ``8c#3``."""
        return f"{self.name}#{self.seq}"

    @property
    def deadline_at(self):
        """Absolute simulated time the deadline expires, or None."""
        if self.deadline is None:
            return None
        return self.arrival + self.deadline

    def to_dict(self, include_report=False):
        out = {
            "seq": self.seq,
            "name": self.name,
            "client": self.client,
            "arrival": self.arrival,
            "admitted_at": self.admitted_at,
            "completed_at": self.completed_at,
            "latency": self.latency,
            "queue_wait": self.queue_wait,
            "placement": self.placement,
            "deadline": self.deadline,
            "shed_at": self.shed_at,
            "rows": (len(self.report.result.rows)
                     if self.report is not None and self.report.result
                     else None),
            "error": self.error,
        }
        if include_report and self.report is not None:
            out["report"] = self.report.to_dict(include_timeline=True)
        return out


@dataclass
class WorkloadResult:
    """The outcome of one scheduled workload."""

    jobs: list
    makespan: float
    resource_stats: dict
    device_budget_bytes: int
    peak_reserved_bytes: int
    seed: int = None
    extras: dict = field(default_factory=dict)

    def completed(self):
        """Jobs that finished (everything not shed by a deadline)."""
        return [job for job in self.jobs if job.completed_at is not None]

    def shed(self):
        """Jobs a deadline shed from the queue or cancelled in flight."""
        return [job for job in self.jobs if job.shed_at is not None]

    def latencies(self):
        """Per-job latencies in completion order."""
        return [job.latency for job in self.completed()]

    def queries_per_second(self):
        """Completed queries over the workload makespan."""
        if self.makespan <= 0:
            return 0.0
        return len(self.completed()) / self.makespan

    def placements(self):
        """``{placement: count}`` over all jobs."""
        counts = {}
        for job in self.jobs:
            counts[job.placement] = counts.get(job.placement, 0) + 1
        return dict(sorted(counts.items()))

    def to_dict(self, include_reports=False):
        """JSON-ready summary; stable key order for determinism checks."""
        return {
            "schema_version": 3,
            "seed": self.seed,
            "makespan": self.makespan,
            "queries": len(self.jobs),
            "queries_per_second": self.queries_per_second(),
            "placements": self.placements(),
            "shed_jobs": len(self.shed()),
            "device_budget_bytes": self.device_budget_bytes,
            "peak_reserved_bytes": self.peak_reserved_bytes,
            "resource_stats": self.resource_stats,
            "jobs": [job.to_dict(include_report=include_reports)
                     for job in self.jobs],
            **self.extras,
        }


class WorkloadScheduler:
    """Admits queries onto one shared simulated device + host.

    With ``cluster`` (a :class:`repro.cluster.DeviceCluster`) the
    scheduler runs the same admission policy over ``n`` devices on one
    ``n``-device kernel: each admitted offload is
    placed *whole* on the least-loaded device (earliest free NDP core,
    then fewest reserved bytes) — correct for any device because the
    cluster's storage is mirrored — and per-device DRAM budgets are
    arbitrated independently.  Scatter-gather execution of a *single*
    query across devices lives in
    :class:`repro.cluster.ScatterGatherExecutor` instead.
    """

    def __init__(self, env, ctx=None, max_inflight=None, cluster=None,
                 queries=None, correction=None, replan=None):
        self.env = env
        self.runner = env.runner
        self.planner = env.planner
        self.cluster = cluster
        #: Shared :class:`~repro.core.planning.CostCorrection` EWMA store
        #: feeding every admission decision (None = plan from raw
        #: statistics — byte-identical to pre-adaptive behaviour).
        self.correction = correction
        #: :class:`~repro.core.planning.ReplanPolicy` enabling mid-query
        #: re-planning at pipeline breakers (None = no breaker hook).
        self.replan = replan
        #: Optional ``{name: sql}`` mapping consulted before the JOB
        #: catalog, so generated workloads (:mod:`repro.workloads.sqlgen`)
        #: schedule exactly like named JOB queries.
        self.queries = dict(queries) if queries else {}
        #: The context scheduler-driven executions run under; they share
        #: the scheduler's simulated kernel through ``kernel=``.
        self.ctx = ExecutionContext.coerce(ctx)
        self.tracer = self.ctx.sim_tracer()
        if cluster is not None:
            self.devices = list(cluster.devices)
            self.executors = cluster.executors
            self.kernel = SimContext.fresh(cluster.n_devices,
                                           tracer=self.ctx.tracer)
        else:
            self.devices = [env.device]
            self.executors = [env.runner.cooperative]
            self.kernel = SimContext.fresh(tracer=self.ctx.tracer)
        #: Offloads holding reservations, per device.
        self._device_inflight_by = [0] * len(self.devices)
        self.max_inflight = max_inflight   # None = DRAM budget only
        self.jobs = []
        self._queue = []           # FIFO of jobs awaiting admission
        self._inflight = 0         # queries currently executing
        self._peak_reserved = 0
        self._client_queues = {}   # client id -> remaining query names
        self._client_think = 0.0

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def _sql_for(self, name):
        """Resolve a query name: the ``queries`` mapping wins, then the
        JOB catalog."""
        if name in self.queries:
            return self.queries[name]
        return job_query(name)

    def submit(self, name, at=0.0, client=None, deadline=None):
        """Submit query ``name`` (JOB or ``queries=``-registered) at
        simulated time ``at``.

        ``deadline`` is the job's simulated-time budget after arrival
        (defaulting to the scheduler context's ``deadline``): a job
        still queued when it expires is *shed* (placement
        ``"deadline-shed"``, no report), an in-flight offload is
        cooperatively cancelled with its reservation released.  Host
        executions already booked on the CPU run to completion —
        cancellation is cooperative, never preemptive.
        """
        if deadline is None:
            deadline = self.ctx.deadline
        job = QueryJob(seq=len(self.jobs), name=name, sql=self._sql_for(name),
                       arrival=at, client=client, deadline=deadline)
        self.jobs.append(job)
        self.kernel.loop.schedule_at(at, lambda: self._arrive(job),
                                     label=f"arrive {job.label}")
        if deadline is not None:
            self.kernel.loop.schedule_at(
                job.deadline_at, lambda: self._deadline_check(job),
                label=f"deadline {job.label}")
        return job

    def submit_open_loop(self, names, arrivals):
        """Submit ``names`` on an :class:`OpenLoopArrivals` process."""
        for at, name in arrivals.schedule(names):
            self.submit(name, at=at)

    def submit_closed_loop(self, names, arrivals=None):
        """Run ``names`` as a closed-loop client population.

        ``arrivals`` is a :class:`ClosedLoopArrivals` spec (defaults to
        4 clients, no think time).  Queries are partitioned round-robin;
        each client submits its next query when the previous one
        completes plus think time.
        """
        arrivals = arrivals or ClosedLoopArrivals()
        queues = assign_clients(names, arrivals.clients)
        starts = arrivals.start_times()
        self._client_think = arrivals.think_time
        for client, (start, queue) in enumerate(zip(starts, queues)):
            if not queue:
                continue
            self._client_queues[client] = list(queue[1:])
            self.submit(queue[0], at=start, client=client)

    # ------------------------------------------------------------------
    # Run to completion
    # ------------------------------------------------------------------
    def run(self, max_events=5_000_000):
        """Drain the workload; returns a :class:`WorkloadResult`."""
        self.kernel.loop.run(max_events=max_events)
        unfinished = [job.label for job in self.jobs
                      if job.completed_at is None and job.shed_at is None]
        if unfinished or self._queue:
            raise ReproError(
                f"workload drained with unfinished queries: {unfinished}")
        makespan = self.kernel.horizon
        extras = {"plan_cache": self.runner.plan_cache_stats()}
        if self.replan is not None or self.correction is not None:
            extras["adaptivity"] = {
                "replans": sum(job._replans for job in self.jobs),
                "wasted_time": sum(job._adapt_wasted for job in self.jobs),
                "correction": (self.correction.snapshot()
                               if self.correction is not None else {}),
                "observations": (self.correction.observations
                                 if self.correction is not None else 0),
            }
        if self.cluster is not None:
            extras["cluster"] = {
                "n_devices": self.cluster.n_devices,
                "partitioner": self.cluster.partitioner.describe(),
            }
        return WorkloadResult(
            jobs=self.jobs,
            makespan=makespan,
            resource_stats=self.kernel.resource_stats(makespan),
            device_budget_bytes=sum(device.buffer_budget
                                    for device in self.devices),
            peak_reserved_bytes=self._peak_reserved,
            extras=extras,
        )

    # ------------------------------------------------------------------
    # Load measurement
    # ------------------------------------------------------------------
    def current_load(self, device_index=0):
        """One device's pressure snapshot fed to load-aware planning."""
        return DeviceLoad.snapshot(
            self.kernel.links[device_index], self.kernel.cores[device_index],
            self.devices[device_index], self.kernel.now,
            inflight=self._device_inflight_by[device_index])

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _arrive(self, job):
        job.plan = self.runner.plan(job.sql)
        self._queue.append(job)
        if self.tracer.enabled:
            self.tracer.instant(SCHED_TRACK, f"arrive {job.label}",
                                self.kernel.now,
                                args={"query": job.name, "seq": job.seq,
                                      "queued": len(self._queue)})
        self._drain()

    def _drain(self):
        """Admit queued queries in FIFO order until one cannot start.

        The head of the queue blocks admission (no overtaking): this
        keeps admission order — and therefore the whole timeline — a
        deterministic function of arrival order, at some utilization
        cost versus backfilling.
        """
        while self._queue:
            if (self.max_inflight is not None
                    and self._inflight >= self.max_inflight):
                return
            job = self._queue[0]
            if not self._try_start(job):
                return
            self._queue.pop(0)

    def _try_start(self, job):
        """Plan and start ``job`` now; False if it must keep waiting.

        The job reads one capture of its tables, taken here: whatever
        runs it — a staged split, a re-planned restart or the host —
        sees the state it was admitted at.
        """
        now = self.kernel.now
        job._captured = self.runner.ndp_engine.capture(job.plan)
        target = self.kernel.least_loaded(self.devices)
        load = self.current_load(target)
        job.decision = self.planner.decide(
            job.plan,
            context=PlanningContext(device_load=load,
                                    correction=self.correction,
                                    key=job.sql, replan=self.replan))
        if (job.decision.strategy is ExecutionStrategy.HOST_ONLY
                or job.decision.split_index is None):
            self._start_host(job)
            return True
        # FULL_NDP maps to the H(n-1) split: the whole join pipeline
        # runs on-device and only the epilogue (aggregation/sort) runs
        # host-side, which keeps result rows identical to serial
        # execution on one shared code path.
        try:
            prepared = self._stage(job, job.decision.split_index, target)
        except AdmissionTimeoutError as error:
            # Admission gave up: the DRAM pressure window outlasts the
            # retry policy's admission timeout, so waiting for a
            # completion cannot help.  Degrade to the host and attribute
            # the fallback to the query and device in the resilience
            # block (error.query / error.device name them too).
            job.error = str(error)
            self._start_host(
                job, self._on_device("admission-timeout", target),
                faults_injected={"dram_admission_timeout": 1})
            return True
        except DeviceOverloadError:
            if any(self._device_inflight_by):
                # Buffers are held by running queries; a completion
                # will re-drain the queue.
                return False
            # Would not fit even an idle device: run on the host.
            self._start_host(job)
            return True
        job.admitted_at = now
        self._launch(job, prepared, target, now, admitted_under=load)
        return True

    def _on_device(self, label, target):
        """``label`` as placed on device ``target`` (``H3`` / ``H3@d2``)."""
        return label if self.cluster is None else f"{label}@d{target}"

    def _stage(self, job, split_index, target):
        """Stage ``job`` at ``H{split_index}`` on device ``target``."""
        return self.executors[target].prepare_split(
            job.plan, split_index, self.ctx,
            kernel=self.kernel.view(target), trace_label=job.label,
            captured=job._captured)

    def _launch(self, job, prepared, target, now, admitted_under=None):
        """Start a staged offload, wiring completion and adaptivity.

        ``admitted_under`` is the load snapshot a fresh admission was
        decided under (None when re-planning restarts the job).
        """
        job.placement = self._on_device(f"H{prepared.split_index}", target)
        job._prepared = prepared
        job._target = target
        self._inflight += 1
        self._device_inflight_by[target] += 1
        reserved = sum(device.reserved_bytes for device in self.devices)
        self._peak_reserved = max(self._peak_reserved, reserved)
        if admitted_under is not None and self.tracer.enabled:
            self.tracer.instant(
                SCHED_TRACK, f"admit {job.label}", now,
                args={"placement": job.placement,
                      "reserved_bytes": reserved,
                      "core_utilization": round(
                          admitted_under.core_utilization, 4)})
        prepared.start(
            now,
            on_complete=lambda split: self._offload_done(job),
            on_abandon=lambda split, error:
                self._offload_abandoned(job, error),
            breaker_hook=(None if self.replan is None else
                          lambda split, i: self._breaker_check(job, split, i)))

    def _retire(self, job):
        """``job``'s offload left its device; returns the device index."""
        target = job._target
        job._prepared = None
        self._device_inflight_by[target] -= 1
        return target

    # ------------------------------------------------------------------
    # Mid-query re-planning
    # ------------------------------------------------------------------
    def _breaker_check(self, job, split, i):
        """Pipeline-breaker feedback: second-guess the in-flight plan.

        Called by the split simulation each time a device batch lands
        host-side; applies :meth:`~repro.core.planning.ReplanPolicy.check`
        with the device's saturation folded in.  A revision that changes
        the placement cooperatively cancels the offload (reason
        ``"replan"``) and either sheds the query to the host or restarts
        it at the revised split point on the same device; the cancelled
        attempt's elapsed time is accounted as ``wasted_time`` on the
        job's adaptivity audit.
        """
        policy = self.replan
        if job._replans >= policy.max_replans:
            return
        target = job._target
        now = split.clock.now
        saturated = (self.current_load(target).core_utilization
                     >= policy.saturation_shed)
        checked = policy.check(job.decision, split.batches, i + 1, now,
                               saturated=saturated)
        if checked is None:
            return
        feedback, revised, event = checked
        decision = job.decision
        if revised.strategy_name == decision.strategy_name:
            # Re-pricing with the observed cardinality still prefers the
            # running plan: record the audit, keep going.
            event["action"] = "kept"
            job._adapt_events.append(event)
            job._replans += 1
            return
        if not job._prepared.cancel(now, reason="replan"):
            return               # completed at this very timestamp
        job._replans += 1
        wasted = max(0.0, now - job.admitted_at)
        job._adapt_wasted += wasted
        self._retire(job)
        self._inflight -= 1      # _start_host / _launch re-increments
        old_placement = job.placement
        if self.tracer.enabled:
            self.tracer.instant(
                SCHED_TRACK, f"replan {job.label}", now,
                args={"from": decision.strategy_name,
                      "to": revised.strategy_name,
                      "error": round(feedback.error, 4),
                      "saturated": saturated})
        event["action"] = "shed-to-host"
        job._adapt_events.append(event)
        job.decision = revised
        restarted = None
        if (revised.strategy is not ExecutionStrategy.HOST_ONLY
                and revised.split_index is not None):
            # Shift the split point: restart on the same device at the
            # revised k.  A *larger* split may simply not fit the
            # device's remaining DRAM — then the shed stands.
            try:
                restarted = self._stage(job, revised.split_index, target)
                event["action"] = "shift-split"
            except (AdmissionTimeoutError, DeviceOverloadError) as error:
                event["restart_failed"] = type(error).__name__
        if restarted is None:
            self._start_host(job, f"replan:{old_placement}",
                             wasted_time=wasted)
        else:
            self._launch(job, restarted, target, now)
        self._drain()

    # ------------------------------------------------------------------
    # Host-side execution
    # ------------------------------------------------------------------
    def _start_host(self, job, fallback_from=None, **degraded):
        """Run ``job`` host-only; service time serializes on the CPU.

        Every host placement comes here: a host-only decision, an
        admission timeout or overload, an abandoned offload's fallback
        and a re-plan to the host.  The native host-only plan runs now
        over the job's admission capture, so its rows, counters and
        service time are a serial native run's, and its seeks share the
        snapshot seek memo with every other read of that capture's
        versions; the shared host CPU resource then prices when that
        service time actually fits between the other queries' host work.
        With ``fallback_from`` the report is marked as the degradation
        of that placement (``degraded`` passes to
        :meth:`~repro.engine.results.ExecutionReport.mark_fallback`);
        ``total_time`` runs from arrival, so it already contains the
        abandoned attempt.
        """
        now = self.kernel.now
        report = self.runner.run(job.plan, Stack.NATIVE,
                                 captured=job._captured)
        service = report.total_time
        begin, end = self.kernel.cpu.acquire(
            now, service, label=f"host-only {job.label}")
        job.placement = "host-fallback" if fallback_from else "host-only"
        job.admitted_at = begin
        job.report = report
        self._inflight += 1
        if fallback_from is not None:
            report.mark_fallback(fallback_from, **degraded)
        if self.tracer.enabled:
            self.tracer.span(
                f"exec/{job.label}", job.placement, begin, end,
                category="execution",
                args={"query": job.name, "service_time": service,
                      "strategy": report.strategy})
        self.kernel.loop.schedule_at(
            end, lambda: self._host_done(job, end),
            label=f"complete {job.label}")

    def _host_done(self, job, end):
        job.report.total_time = end - job.arrival
        self._finish(job, end)

    # ------------------------------------------------------------------
    # Completion paths
    # ------------------------------------------------------------------
    def _offload_done(self, job):
        now = self.kernel.now
        prepared = job._prepared
        job.report = prepared.finish(total_time=now - job.arrival)
        self._retire(job)
        if self.correction is not None and job.decision is not None:
            # Fold the observed intermediate-result cardinality into the
            # EWMA against the *uncorrected* estimate, so the factor
            # converges to the true statistics error.
            estimate = job.decision.estimate_for()
            if estimate.raw_rows is not None:
                self.correction.observe(job.sql, estimate.raw_rows,
                                        prepared.intermediate_rows)
        self._finish(job, now)

    def _offload_abandoned(self, job, error):
        """Mid-workload graceful degradation: re-run on the host.

        Mirrors :meth:`StackRunner.host_fallback` — the wasted device
        attempt is accounted on the degraded report — but the fallback
        executes on the *shared* host CPU at the simulated time the
        offload gave up, so the rest of the workload feels it.
        """
        now = self.kernel.now
        job._prepared.release()
        target = self._retire(job)
        self._inflight -= 1      # _start_host re-increments
        job.error = str(error)
        # The attempt's own elapsed cost, not now - arrival: queue wait
        # is not wasted device time, and successive fallbacks must each
        # account only their own attempt.
        wasted = max(0.0, now - (job.admitted_at
                                 if job.admitted_at is not None
                                 else job.arrival))
        self._start_host(job, self._on_device(error.strategy, target),
                         wasted_time=wasted, retries=error.retries,
                         faults_injected=error.faults_injected)
        self._drain()

    # ------------------------------------------------------------------
    # Deadlines
    # ------------------------------------------------------------------
    def _deadline_check(self, job):
        """The job's deadline fired: shed or cancel whatever is left.

        A job still queued is shed outright; an in-flight offload is
        cooperatively cancelled (its DRAM reservation released, its
        booked busy intervals standing as honest wasted cost).  A host
        execution already booked on the CPU runs to completion, and a
        finished job is left alone.
        """
        if job.completed_at is not None or job.shed_at is not None:
            return
        now = self.kernel.now
        if job in self._queue:
            self._queue.remove(job)
            job.shed_at = now
            job.placement = "deadline-shed"
            job.error = (f"{job.label}: deadline {job.deadline}s expired "
                         f"before admission; job shed")
            if self.tracer.enabled:
                self.tracer.instant(
                    SCHED_TRACK, f"shed {job.label}", now,
                    args={"query": job.name, "deadline": job.deadline})
            self._drain()
            return
        if job._prepared is None:
            return               # host execution: runs to completion
        if not job._prepared.cancel(now, reason="deadline"):
            return               # completed at this very timestamp
        target = self._retire(job)
        self._inflight -= 1
        job.shed_at = now
        job.error = (f"{job.label}: deadline {job.deadline}s expired "
                     f"in flight on device {target}; offload cancelled "
                     f"after {now - job.admitted_at:.6f}s")
        if self.tracer.enabled:
            self.tracer.instant(
                SCHED_TRACK, f"deadline-cancel {job.label}", now,
                args={"query": job.name, "device": target,
                      "placement": job.placement})
        self._drain()

    def _finish(self, job, now):
        job.completed_at = now
        self._inflight -= 1
        if self.replan is not None and job.report is not None:
            job.report.adaptivity = {
                "enabled": True,
                "replans": job._replans,
                "correction_factor": (
                    self.correction.factor(job.sql)
                    if self.correction is not None else 1.0),
                "wasted_time": job._adapt_wasted,
                "events": list(job._adapt_events),
            }
            # total_time is wall clock since arrival, so the cancelled
            # attempt's elapsed time is already inside it — the audit
            # block records it separately, no double charge.
        if self.tracer.enabled:
            self.tracer.instant(SCHED_TRACK, f"finish {job.label}", now,
                                args={"placement": job.placement,
                                      "latency": round(job.latency, 6)})
        # Closed loop: this job's client submits its next query.
        if job.client is not None:
            remaining = self._client_queues.get(job.client)
            if remaining:
                self.submit(remaining.pop(0), at=now + self._client_think,
                            client=job.client)
        self._drain()
