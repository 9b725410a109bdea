"""Cooperative (overlapping) host/device execution (paper §4, Fig 7).

For a split point Hk the device runs the pipeline prefix (tables 0..k and
their k joins) and streams intermediate-result batches through a bounded
set of shared buffer slots; the host fetches each batch over PCIe and
joins it with the remaining tables while the device autonomously produces
the next batch.  The device stalls when all slots are full; the host
waits when no batch is ready — both are accounted, reproducing the
Fig 17 timeline and the Table 4 stage breakdown.

The timeline is built on the :mod:`repro.sim` kernel: the PCIe link, the
device's NDP core and the host CPU are :class:`~repro.sim.BusyResource`\\ s
driven by an :class:`~repro.sim.EventLoop`.  Everything that crosses the
link — the NDP command payload, the device's per-batch result pushes and
the host's fetch/completion commands — acquires the link resource, so
transfers serialize with queuing delays that feed the ``host_wait_*`` /
``device_stall_time`` accounting instead of silently overlapping.

Every split runs through one lifecycle (docs/architecture.md):
:meth:`CooperativeExecutor.prepare_split` *stages* it on a
:class:`~repro.sim.SimContext`, ``start(at)`` schedules it, the kernel's
event loop drains it, ``finish`` builds the report.  The host's join
work is computed a chunk of device batches at a time, when the first
batch of the chunk is consumed, and priced batch by batch as each is
consumed (docs/engine.md, "Segmented host fragments").
:meth:`CooperativeExecutor.run_split` drives exactly that on a fresh
one-device kernel; the workload scheduler (:mod:`repro.sched`) and the
scatter-gather executor (:mod:`repro.cluster`) start many staged splits
on one kernel, so queries contend for the same link/core/CPU and the
same device DRAM budget.
"""

import math
from functools import partial

from repro.context import ExecutionContext
from repro.engine.counters import WorkCounters
from repro.engine.results import ExecutionReport, QueryResult, TimelinePhase
from repro.engine.timing import ExecutionLocation
from repro.errors import (DeadlineExceededError, PlanError, ReplanTriggered,
                          RetriesExhaustedError, TransientDeviceError)
from repro.faults import FAULTS_TRACK
from repro.query.ast import conjuncts
from repro.sim import (DEVICE_RESOURCE, HOST_RESOURCE, LINK_RESOURCE,
                       SimContext)

#: Track that carries one root span per traced execution.
EXEC_TRACK = "exec"


def _counter_deltas(counters):
    """Non-zero entries of a :class:`WorkCounters` delta, for trace args."""
    return {name: value for name, value in counters.as_dict().items()
            if value}


class _CommandSubmission:
    """Submitting one NDP command over the link, with bounded retries.

    The host assembles the command and pushes its payload over ``link``.
    Under fault injection a submission may fail transiently: the failed
    attempt still crossed the link, then the host backs off
    exponentially in simulated time before retrying, bounded by the
    injector's retry policy.  Split and full-NDP runs share this state
    machine; each drives it its own way (events vs. a plain loop).
    """

    def __init__(self, link, injector, tracer, strategy_label, setup_time):
        self.link = link
        self.injector = injector
        self.tracer = tracer
        self.strategy_label = strategy_label
        self.setup_time = setup_time
        self.retries = 0          # failed submissions
        self.wasted_time = 0.0    # failed-attempt link time + backoffs

    def attempt(self, attempt, at):
        """Push the payload at ``at``; returns ``(begin, end, landed)``."""
        setup = self.setup_time
        if self.injector.enabled:
            setup = self.injector.scale_transfer(at, setup)
        begin, end = self.link.acquire(at, setup,
                                       label="NDP command payload")
        landed = True
        if self.injector.enabled:
            try:
                self.injector.check_submission(attempt)
            except TransientDeviceError:
                landed = False
        return begin, end, landed

    def failed(self, attempt, begin, end, phase, origin=0.0):
        """Account failed submission ``attempt``; returns the backoff.

        The failed attempt and the backoff are recorded through the
        caller's ``phase(kind, start, end, label, resource=, operator=)``.
        Raises :class:`~repro.errors.RetriesExhaustedError` once the
        retry policy is spent.  Its ``wasted_time`` is the *elapsed*
        attempt time since ``origin``, not the absolute sim time: on a
        shared kernel the run started at origin > 0, and a partition
        that cascades through several devices accumulates each
        attempt's elapsed cost — absolute times would over-count.
        """
        self.retries += 1
        self.wasted_time += end - begin
        phase("setup", begin, end,
              f"NDP command (attempt {attempt + 1}: transient failure)",
              resource=LINK_RESOURCE, operator="ndp-command")
        if self.tracer.enabled:
            self.tracer.instant(FAULTS_TRACK, "transient-command-failure",
                                end, args={"attempt": attempt + 1,
                                           "strategy": self.strategy_label})
        policy = self.injector.retry
        if attempt >= policy.max_retries:
            if self.tracer.enabled:
                self.tracer.instant(FAULTS_TRACK, "retries-exhausted", end,
                                    args={"attempts": self.retries,
                                          "strategy": self.strategy_label})
            raise RetriesExhaustedError(
                f"{self.strategy_label}: NDP command submission failed "
                f"{self.retries} time(s), retries exhausted",
                strategy=self.strategy_label, retries=self.retries,
                wasted_time=end - origin,
                faults_injected=self.injector.faults_injected())
        backoff = policy.backoff(attempt)
        self.wasted_time += backoff
        phase("wait", end, end + backoff, f"retry backoff {attempt + 1}",
              operator="retry-backoff")
        return backoff

    def stamp(self, report, admission_wait):
        """Record a faulted run's resilience accounting on ``report``."""
        if self.injector.enabled:
            report.retries = self.retries
            report.faults_injected = self.injector.faults_injected()
            report.wasted_device_time = self.wasted_time
            report.admission_wait_time = admission_wait
        return report


class PreparedSplit:
    """A hybrid split staged for execution, and its simulation.

    Staging (:meth:`CooperativeExecutor.prepare_split`) already ran the
    device fragment — its pipeline buffers stay *reserved* on the device
    until :meth:`release` (or :meth:`finish` / :meth:`cancel`) — cut
    its output into batches and opened the host fragment session.
    ``run_split`` drives one to completion on a fresh kernel; the
    workload scheduler and the scatter-gather executor start many on one
    kernel, and the held reservations are what concurrent admission
    control arbitrates.

    The simulation is a discrete-event producer/consumer: the device
    produces intermediate batches on ``core`` and DMAs each finished
    batch over ``link`` into a shared buffer slot; the host posts a
    small fetch/completion command on ``link`` per batch and joins the
    batch on ``cpu``, which frees the slot.  The device blocks when all
    ``slots`` slots hold unconsumed batches; the host blocks when the
    next batch has not arrived yet.  The host joins for real: the first
    consume event that finds no joined batch waiting has the fragment
    session join a chunk of batches in one segmented pipeline run, and
    each consume event takes its own batch's rows and counter delta and
    prices them, in batch order — rows, counters and times are those of
    joining batch by batch.

    The simulation runs on ``kernel`` (a one-device
    :class:`~repro.sim.SimContext` or a view of a larger one), which the
    caller may share with other executions: :meth:`start` schedules the
    begin event at an absolute kernel time, whoever owns the kernel
    drains its loop, and completion / retries-exhausted are signalled
    through the ``on_complete`` / ``on_abandon`` hooks.  Host work is
    priced with this run's own fault injector, so runs interleaved on
    one kernel draw from their own RNG streams.
    """

    def __init__(self, executor, plan, split_index, execution, *,
                 device_time, device_breakdown, device_aliases, batches,
                 row_bytes, setup_time, session, kernel, tracer, injector,
                 start_offset, trace_label, finalize):
        self.executor = executor
        self.timing = executor.timing
        self.plan = plan
        self.split_index = split_index
        self.execution = execution
        self.device_time = device_time
        self.device_breakdown = device_breakdown
        self.device_aliases = device_aliases
        self.batches = batches
        self.n_batches = len(batches)
        self.per_batch_device = device_time / self.n_batches
        self.row_bytes = row_bytes
        self.slots = max(1, executor.ndp.device.spec.shared_buffer_slots)
        self.setup_time = setup_time
        self.session = session
        self.host_counters = WorkCounters()
        self.tracer = tracer
        self.strategy_label = f"H{split_index}"
        # A labelled run (one of many on its kernel) gets its own root
        # track and event labels so concurrent executions don't
        # interleave X events on one track.
        self.trace_label = trace_label or self.strategy_label
        self.exec_track = (EXEC_TRACK if trace_label is None
                           else f"{EXEC_TRACK}/{trace_label}")
        self.begin_label = ("begin" if trace_label is None
                            else f"begin {trace_label}")
        self.root_span = None
        self.injector = injector
        self.start_offset = start_offset   # admission-control wait
        #: Scatter-gather partitions defer the epilogue: the cluster
        #: merges all partitions' joined rows and finalizes *once*.
        self.finalize = finalize
        self._released = False

        self.origin = 0.0                  # kernel time this run begins
        self.on_complete = None            # completion hook
        self.on_abandon = None             # retries-exhausted hook
        self.breaker_hook = None           # pipeline-breaker hook
        self.clock = kernel.clock
        self.loop = kernel.loop
        self.link = kernel.link
        self.core = kernel.core
        self.cpu = kernel.cpu
        self.command = _CommandSubmission(
            self.link, injector, tracer, self.strategy_label, setup_time)

        self.timeline = []
        self.joined_rows = []
        self.result = None
        self.ready = [None] * self.n_batches      # batch i in its slot
        self.consumed = [None] * self.n_batches   # slot of batch i freed
        self.device_blocked = None                # (batch index, since)
        self.host_blocked = None                  # (batch index, since)

        self.host_wait_initial = 0.0
        self.host_wait_other = 0.0
        self.device_stall = 0.0
        self.transfer_total = 0.0
        self.host_processing = 0.0
        self.host_end = 0.0
        self.slow_time = 0.0      # extra compute from SlowDeviceModel
        self.completed = False    # host epilogue ran
        self.cancelled = False    # cooperatively cancelled (see cancel())
        self.cancelled_at = None
        self.cancel_reason = None

    @property
    def intermediate_rows(self):
        """Rows the device fragment produced (crossing the breaker)."""
        return len(self.execution.rows)

    # -- helpers -------------------------------------------------------
    def _phase(self, actor, kind, start, end, label, resource="",
               operator="", extra=None):
        self.timeline.append(
            TimelinePhase(actor, kind, start, end, label, resource=resource))
        if self.tracer.enabled:
            args = {"placement": "DEVICE" if actor == "device" else "HOST"}
            if resource:
                args["resource"] = resource
            if operator:
                args["operator"] = operator
            if extra:
                args.update(extra)
            self.tracer.span(f"{actor}/{kind}", label or kind, start, end,
                             category=kind, parent=self.root_span, args=args)

    def _host_wait(self, index, start, end, label):
        if end <= start:
            return
        if index == 0:
            self.host_wait_initial += end - start
        else:
            self.host_wait_other += end - start
        self._phase("host", "wait", start, end, label, operator="wait",
                    extra={"batch": index} if self.tracer.enabled else None)

    # -- life cycle ----------------------------------------------------
    def start(self, at, on_complete=None, on_abandon=None,
              breaker_hook=None):
        """Begin this run at kernel time ``at``.

        ``on_complete(split)`` fires (as an event) when the host
        epilogue finishes; ``on_abandon(split, error)`` replaces the
        :class:`~repro.errors.RetriesExhaustedError` raise when command
        submission exhausts its retries, so one query's degradation
        doesn't unwind a whole workload's event loop.
        ``breaker_hook(split, batch_index)`` is invoked as each device
        batch lands host-side — the point where observed cardinality can
        be checked against the planner's estimate (docs/adaptivity.md);
        it may :meth:`cancel` the run to re-plan.  Without one, nothing
        is called and the run is byte-identical to an unhooked one.
        """
        self.origin = at
        self.on_complete = on_complete
        self.on_abandon = on_abandon
        self.breaker_hook = breaker_hook
        if self.tracer.enabled:
            self.root_span = self.tracer.begin(
                self.exec_track, self.trace_label, at, category="execution",
                args={"strategy": self.strategy_label,
                      "batches": self.n_batches, "slots": self.slots})
        self.loop.schedule_at(at, self._begin, label=self.begin_label)

    def cancel(self, now, reason="cancelled"):
        """Cooperatively cancel this run at ``now`` and release.

        Already-scheduled events become no-ops (every event entry point
        checks the flag), so no *new* resource time is booked after the
        cancellation; busy intervals already *served* stand — they are
        the honest wasted cost, which the caller audits as
        ``now - origin`` — but a booking still in flight at ``now`` is
        truncated (:meth:`~repro.sim.resources.BusyResource.truncate`),
        so a cancelled straggler does not hold its core into the far
        future.  Safe at any point of the life cycle: a completed or
        already cancelled run is left alone, and the DRAM reservation
        release is idempotent.  Returns whether this call cancelled the
        run.
        """
        self.release()
        if self.cancelled or self.completed:
            return False
        self.cancelled = True
        self.cancelled_at = now
        self.cancel_reason = reason
        for resource in (self.core, self.link, self.cpu):
            resource.truncate(now)
        if self.tracer.enabled:
            self.tracer.instant(
                FAULTS_TRACK, f"cancelled: {reason}", now,
                args={"strategy": self.strategy_label,
                      "label": self.trace_label})
        if self.root_span is not None:
            self.tracer.end(self.root_span, now)
            self.root_span = None
        return True

    def release(self):
        """Release the device pipeline buffers (idempotent)."""
        if not self._released:
            self._released = True
            self.executor.ndp.release(self.execution)

    # -- simulation ----------------------------------------------------
    def _begin(self):
        if self.cancelled:
            return
        offset = self.origin + self.start_offset
        if self.start_offset > 0.0:
            # Admission control waited for a DRAM-pressure window to
            # pass instead of raising DeviceOverloadError outright.
            self.host_wait_initial += self.start_offset
            self._phase("host", "wait", self.origin, offset,
                        "buffer admission wait", operator="admission-wait")
        self._submit(0, offset)

    def _submit(self, attempt, at):
        if self.cancelled:
            return
        # The device cannot start before the command arrived; a failed
        # submission backs off in simulated time before the retry.
        begin, end, landed = self.command.attempt(attempt, at)
        if landed:
            self._phase("host", "setup", begin, end, "NDP command",
                        resource=LINK_RESOURCE, operator="ndp-command")
            self.loop.schedule_at(end, lambda: self._device_next(0),
                                  label="device start")
            self.loop.schedule_at(end, lambda: self._host_want(0),
                                  label="host start")
            return
        try:
            backoff = self.command.failed(
                attempt, begin, end, partial(self._phase, "host"),
                self.origin)
        except RetriesExhaustedError as error:
            self._abandon(end, error)
            return
        self.host_wait_initial += backoff
        self.loop.schedule_at(end + backoff,
                              lambda: self._submit(attempt + 1, end + backoff),
                              label=f"resubmit attempt {attempt + 2}")

    def _abandon(self, now, error):
        """Give up on the offload: close the trace and fail the run.

        Without an ``on_abandon`` hook the error propagates out of the
        kernel's event loop for the caller's host fallback (serial
        runs); with one (scheduler and cluster runs) the hook absorbs it
        so the loop keeps draining the other executions' events.
        """
        if self.root_span is not None:
            self.tracer.end(self.root_span, now)
            self.root_span = None
        if self.on_abandon is None:
            raise error
        self.on_abandon(self, error)

    # -- device process ------------------------------------------------
    def _device_next(self, i):
        """Try to start producing batch ``i`` at the current sim time."""
        if self.cancelled or i >= self.n_batches:
            return
        if i >= self.slots and self.consumed[i - self.slots] is None:
            # All slots hold unconsumed batches: stall until one frees.
            self.device_blocked = (i, self.clock.now)
            return
        self._device_produce(i)

    def _device_produce(self, i):
        if self.cancelled:
            return
        now = self.clock.now
        if self.injector.enabled:
            online = self.injector.core_offline_until(now)
            if online > now:
                # The NDP core is in an unavailability window: the lost
                # time is a device stall, and production resumes when
                # the core comes back.
                self.device_stall += online - now
                self._phase("device", "stall", now, online,
                            f"NDP core offline before batch {i}",
                            operator="stall")
                self.loop.schedule_at(online,
                                      lambda: self._device_produce(i),
                                      label=f"core online for batch {i}")
                return
        per_batch = self.per_batch_device
        if self.injector.enabled:
            per_batch = self.injector.scale_compute(now, per_batch)
            self.slow_time += per_batch - self.per_batch_device
        begin, end = self.core.acquire(now, per_batch,
                                       label=f"produce batch {i}")
        if begin > now:
            # Another query's fragment occupies the NDP core: the wait
            # is this query's device stall (cross-query contention).
            self.device_stall += begin - now
            self._phase("device", "stall", now, begin,
                        f"core busy before batch {i}", operator="stall")
        self._phase("device", "compute", begin, end,
                    f"batch {i} ({len(self.batches[i])} rows)",
                    resource=DEVICE_RESOURCE, operator="pqep-prefix",
                    extra={"batch": i, "rows": len(self.batches[i])}
                    if self.tracer.enabled else None)
        self.loop.schedule_at(end, lambda: self._device_produced(i),
                              label=f"device produced {i}")

    def _device_produced(self, i):
        if self.cancelled:
            return
        now = self.clock.now
        batch = self.batches[i]
        if batch:
            push = self.timing.transfer_time(len(batch) * self.row_bytes)
            if self.injector.enabled:
                push = self.injector.scale_transfer(now, push)
            begin, end = self.link.acquire(now, push,
                                           label=f"push batch {i}")
            if begin > now:
                # The link is carrying another transfer: queuing delay.
                self.device_stall += begin - now
                self._phase("device", "stall", now, begin,
                            f"link busy before push {i}", operator="stall")
            self._phase("device", "transfer", begin, end,
                        f"push batch {i}", resource=LINK_RESOURCE,
                        operator="dma-push",
                        extra={"batch": i,
                               "bytes": len(batch) * self.row_bytes}
                        if self.tracer.enabled else None)
            self.transfer_total += end - begin
            self.loop.schedule_at(end, lambda: self._batch_ready(i),
                                  label=f"batch {i} ready")
        else:
            # Zero-row batch: nothing crosses the link.
            self.loop.schedule_at(now, lambda: self._batch_ready(i),
                                  label=f"batch {i} ready (empty)")
        # Production of the next batch pipelines with the push DMA.
        self._device_next(i + 1)

    def _batch_ready(self, i):
        if self.cancelled:
            return
        self.ready[i] = self.clock.now
        if self.breaker_hook is not None:
            # Pipeline breaker: batch ``i`` just crossed the device→host
            # exchange.  Let the adaptive controller compare observed
            # cardinality against the decision's estimate; it may cancel
            # this run to re-plan the remaining QEP.
            self.breaker_hook(self, i)
            if self.cancelled:
                return
        if self.host_blocked is not None and self.host_blocked[0] == i:
            index, since = self.host_blocked
            self.host_blocked = None
            self._host_wait(index, since, self.clock.now,
                            f"waiting for batch {index}")
            self._host_fetch(index)

    # -- host process --------------------------------------------------
    def _host_want(self, i):
        if self.cancelled:
            return
        if i >= self.n_batches:
            self._host_epilogue()
            return
        if self.ready[i] is not None:
            self._host_fetch(i)
        else:
            self.host_blocked = (i, self.clock.now)

    def _host_fetch(self, i):
        if self.cancelled:
            return
        now = self.clock.now
        if self.batches[i]:
            fetch = self.timing.fetch_command_time()
            if self.injector.enabled:
                fetch = self.injector.scale_transfer(now, fetch)
            begin, end = self.link.acquire(now, fetch,
                                           label=f"fetch batch {i}")
            # A device push may occupy the link: the host keeps waiting.
            self._host_wait(i, now, begin, f"link busy before fetch {i}")
            self._phase("host", "transfer", begin, end,
                        f"fetch batch {i}", resource=LINK_RESOURCE,
                        operator="fetch-command",
                        extra={"batch": i} if self.tracer.enabled else None)
            self.transfer_total += end - begin
            self.loop.schedule_at(end, lambda: self._host_consume(i),
                                  label=f"host consume {i}")
        else:
            self.loop.schedule_at(now, lambda: self._host_consume(i),
                                  label=f"host consume {i} (empty)")

    def _host_consume(self, i):
        if self.cancelled:
            return
        now = self.clock.now
        self.consumed[i] = now
        if (self.device_blocked is not None
                and self.device_blocked[0] - self.slots == i):
            index, since = self.device_blocked
            self.device_blocked = None
            if now > since:
                self.device_stall += now - since
                self._phase("device", "stall", since, now,
                            f"slots full before batch {index}",
                            operator="stall")
            self._device_produce(index)

        batch_time, delta = self._join(i)
        begin, end = self.cpu.acquire(now, batch_time,
                                      label=f"process batch {i}")
        if begin > now:
            # Another query holds the host CPU: queueing counts as host
            # wait, not as processing.
            self._host_wait(i, now, begin, f"cpu busy before batch {i}")
        self._phase("host", "compute", begin, end, f"process batch {i}",
                    resource=HOST_RESOURCE, operator="fragment-join",
                    extra={"batch": i, "counters": _counter_deltas(delta)}
                    if self.tracer.enabled else None)
        self.host_processing += batch_time
        self.loop.schedule_at(end, lambda: self._host_want(i + 1),
                              label=f"host want {i + 1}")

    def _join(self, i):
        """Take batch ``i``'s joined rows and price its host work.

        Returns ``(charged_seconds, counter_delta)`` — the delta is the
        host work the batch added, which traced runs attach to the
        batch's compute span.
        """
        fragment, delta = self.session.batch(i)
        # Each fragment is one ColumnBatch; finalize concatenates them.
        self.joined_rows.append(fragment)
        self.host_counters.merge(delta)
        batch_time, _ = self.timing.charge(delta, ExecutionLocation.HOST,
                                           self.injector)
        return batch_time, delta

    def _finalize(self):
        """Run the host epilogue over the joined rows; returns
        ``(charged_seconds, counter_delta)`` like :meth:`_join`."""
        before = self.host_counters.copy()
        self.result = self.executor.host.finalize_fragment(
            self.plan, self.joined_rows, self.host_counters)
        delta = self.host_counters.delta_since(before)
        epilogue, _ = self.timing.charge(delta, ExecutionLocation.HOST,
                                         self.injector)
        return epilogue, delta

    def _host_epilogue(self):
        if self.cancelled:
            return
        now = self.clock.now
        if self.finalize:
            epilogue, delta = self._finalize()
            begin, end = self.cpu.acquire(now, epilogue, label="finalize")
            self._phase("host", "compute", begin, end, "finalize",
                        resource=HOST_RESOURCE, operator="finalize",
                        extra={"counters": _counter_deltas(delta)}
                        if self.tracer.enabled else None)
            self.host_processing += epilogue
        else:
            # Deferred epilogue: the partition's joined rows stay raw in
            # ``joined_rows``; the scatter-gather merge finalizes them.
            end = now
        self.host_end = end
        self.completed = True
        if self.root_span is not None:
            self.tracer.end(self.root_span, end)
            self.root_span = None
        if self.on_complete is not None:
            self.loop.schedule_at(
                end, lambda: self.on_complete(self),
                label=f"complete {self.trace_label}")

    # -- report --------------------------------------------------------
    def phases(self):
        """The completed simulation's phase accounting.

        Keyed by :class:`ExecutionReport` field name, so a single-split
        report takes it as is and the scatter-gather merge sums it
        across partitions.
        """
        return {
            "setup_time": self.setup_time,
            "host_wait_initial": self.host_wait_initial,
            "host_wait_other": self.host_wait_other,
            "transfer_time": self.transfer_total,
            "host_processing_time": self.host_processing,
            "device_busy_time": self.device_time + self.slow_time,
            "device_stall_time": self.device_stall,
            "batches": self.n_batches,
            "intermediate_rows": self.intermediate_rows,
            "intermediate_bytes": self.intermediate_rows * self.row_bytes,
        }

    def build_report(self, total_time, resource_stats=None):
        """The :class:`ExecutionReport` for the completed simulation.

        ``host_breakdown`` re-prices the summed host counters without a
        fault injector: the faults the run drew are in ``total_time``
        and ``faults_injected`` already, and a report draws none.
        """
        _final_time, host_breakdown = self.timing.charge(
            self.host_counters, ExecutionLocation.HOST)
        report = ExecutionReport(
            strategy=self.strategy_label,
            total_time=total_time,
            result=self.result,
            split_index=self.split_index,
            host_counters=self.host_counters,
            device_counters=self.execution.counters,
            host_breakdown=host_breakdown,
            device_breakdown=self.device_breakdown,
            timeline=self.timeline,
            resource_stats=resource_stats if resource_stats is not None
            else {},
            trace_metrics=self.tracer.metrics(),
            notes={"pointer_cache": self.execution.pointer_cache,
                   "device_aliases": self.device_aliases,
                   "device_stage_rows": self.execution.stage_trace},
            **self.phases(),
        )
        return self.command.stamp(report, self.start_offset)

    def finish(self, total_time, resource_stats=None):
        """Build the report, then release the device pipeline."""
        try:
            return self.build_report(total_time,
                                     resource_stats=resource_stats)
        finally:
            self.release()


class CooperativeExecutor:
    """Runs hybrid splits and full-NDP executions."""

    def __init__(self, host_engine, ndp_engine, timing_model):
        self.host = host_engine
        self.ndp = ndp_engine
        self.timing = timing_model

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _slot_bytes(self):
        device = self.ndp.device
        return max(1024, int(device.spec.shared_buffer_slot_bytes
                             * self.ndp.config.buffer_scale))

    def _admission_wait(self, command, injector, query):
        """Seconds admission control waits out injected DRAM pressure."""
        if not injector.enabled:
            return 0.0
        device = self.ndp.device
        return injector.admission_delay(
            device.pipeline_cost_bytes(*command.pipeline_shape()),
            device.available_bytes, query=query, device=device.spec.name)

    def _split_residual(self, plan, device_aliases):
        device_side = []
        host_side = []
        for conjunct in conjuncts(plan.residual):
            if conjunct.aliases() <= set(device_aliases):
                device_side.append(conjunct)
            else:
                host_side.append(conjunct)
        return device_side, host_side

    def _split_fragments(self, plan, split_index):
        """(device_entries, host_entries, aliases, residual split) for Hk."""
        if not 0 <= split_index < plan.table_count:
            raise PlanError(
                f"split index {split_index} out of range for "
                f"{plan.table_count} tables")
        device_entries = plan.prefix(split_index)
        host_entries = plan.suffix(split_index)
        device_aliases = [entry.alias for entry in device_entries]
        device_residual, host_residual = self._split_residual(
            plan, device_aliases)
        return (device_entries, host_entries, device_aliases,
                device_residual, host_residual)

    # ------------------------------------------------------------------
    # Hybrid split execution
    # ------------------------------------------------------------------
    def run_split(self, plan, split_index, ctx=None, breaker_hook=None):
        """Execute the plan with split point ``H{split_index}``.

        Drives the staged lifecycle on a fresh one-device kernel: stage,
        start at time zero, drain, report.  ``ctx`` (an
        :class:`~repro.context.ExecutionContext`) carries the run's
        tracer, fault plan, retry policy and deadline.  Tracing records
        the run as structured spans; faults degrade the run — transient
        submission failures retry with backoff in simulated time, and
        exhausting the retries raises
        :class:`~repro.errors.RetriesExhaustedError` for the caller's
        host fallback; a deadline cancels the run in flight and raises
        :class:`~repro.errors.DeadlineExceededError`.

        ``breaker_hook(split, batch_index)`` — when given — fires at
        every pipeline breaker (docs/adaptivity.md); a hook that cancels
        the split makes this method raise
        :class:`~repro.errors.ReplanTriggered` for the adaptive driver.
        """
        ctx = ExecutionContext.coerce(ctx)
        kernel = SimContext.fresh(tracer=ctx.tracer)
        prepared = self.prepare_split(plan, split_index, ctx, kernel=kernel)
        try:
            if ctx.deadline is not None:
                kernel.loop.schedule_at(
                    ctx.deadline,
                    lambda: prepared.cancel(ctx.deadline, reason="deadline"),
                    label="deadline")
            prepared.start(0.0, breaker_hook=breaker_hook)
            kernel.loop.run()
            if prepared.cancelled:
                raise self._cancelled_error(prepared, ctx.deadline)
            # Not kernel.horizon: a deadline that never fired still
            # advanced the clock past the real work.
            total = prepared.host_end
            return prepared.build_report(
                total, resource_stats=kernel.resource_stats(total))
        finally:
            prepared.release()

    @staticmethod
    def _cancelled_error(prepared, deadline):
        """The error a cooperatively cancelled serial run raises."""
        strategy = prepared.strategy_label
        consumed = sum(1 for t in prepared.consumed if t is not None)
        if prepared.cancel_reason == "replan":
            return ReplanTriggered(
                f"{strategy}: cancelled at a pipeline breaker "
                f"to re-plan the remaining QEP",
                strategy=strategy, at=prepared.cancelled_at,
                elapsed=prepared.cancelled_at - prepared.origin,
                batches_consumed=consumed,
                batches_total=prepared.n_batches)
        return DeadlineExceededError(
            f"{strategy}: deadline {deadline}s expired "
            f"before completion (cancelled in flight)",
            deadline=deadline, elapsed=deadline,
            retries=prepared.command.retries, wasted_time=deadline,
            faults_injected=prepared.injector.faults_injected(),
            partial={"strategy": strategy,
                     "batches_total": prepared.n_batches,
                     "batches_consumed": consumed})

    def prepare_split(self, plan, split_index, ctx=None, *, kernel,
                      trace_label=None, shard=None, finalize=True,
                      captured=None):
        """Stage split ``H{split_index}`` for execution on ``kernel``.

        Runs the device fragment eagerly — its pipeline buffers stay
        *reserved* on the device until ``release()``/``finish()``/
        ``cancel()``, which is what the concurrent scheduler's admission
        control arbitrates — and returns a :class:`PreparedSplit` ready
        to ``start(at)`` on the kernel's event loop.  Raises
        :class:`~repro.errors.DeviceOverloadError` when the pipeline does
        not fit the remaining device DRAM budget.

        ``ctx`` carries the run's tracer and fault plan; the split draws
        its own fault injector from it here.  ``trace_label`` names the
        run among the others on its kernel; ``shard`` restricts the
        driving-table scan to one partition (cluster scatter-gather);
        ``finalize=False`` defers the host epilogue so the cluster can
        merge partitions and finalize once.  ``captured`` is the
        :meth:`~repro.engine.ndp.NDPEngine.capture` of the plan the split
        reads, taken now when None.
        """
        ctx = ExecutionContext.coerce(ctx)
        injector = ctx.injector()
        (device_entries, host_entries, device_aliases, device_residual,
         host_residual) = self._split_fragments(plan, split_index)
        # One capture pins the whole split: the command ships the device
        # tables' families of it, the host fragment reads all of it.
        if captured is None:
            captured = self.ndp.capture(plan)
        # --- device fragment -----------------------------------------
        command = self.ndp.prepare_command(plan, device_entries,
                                           device_residual, shard=shard,
                                           captured=captured)
        admission_wait = self._admission_wait(
            command, injector, trace_label or f"H{split_index}")
        execution = self.ndp.execute(command)
        try:
            device_time, device_breakdown = self.timing.charge(
                execution.counters, ExecutionLocation.DEVICE, injector)

            # --- batching over shared buffer slots --------------------
            row_bytes = max(1, execution.row_bytes)
            batch_rows = max(1, self._slot_bytes() // row_bytes)
            rows = execution.rows
            n_batches = max(1, math.ceil(len(rows) / batch_rows))
            offsets = [min(i * batch_rows, len(rows))
                       for i in range(n_batches)] + [len(rows)]
            session = self.host.fragment_session(
                plan, host_entries, device_aliases, captured, rows,
                offsets, row_bytes, residual_conjuncts=host_residual)
            return PreparedSplit(
                self, plan, split_index, execution,
                device_time=device_time, device_breakdown=device_breakdown,
                device_aliases=device_aliases,
                batches=[rows[lo:hi]
                         for lo, hi in zip(offsets, offsets[1:])],
                row_bytes=row_bytes,
                setup_time=self.timing.command_setup_time(
                    command.payload_bytes),
                session=session, kernel=kernel, tracer=ctx.sim_tracer(),
                injector=injector, start_offset=admission_wait,
                trace_label=trace_label, finalize=finalize)
        except BaseException:
            self.ndp.release(execution)
            raise

    # ------------------------------------------------------------------
    # Full NDP execution
    # ------------------------------------------------------------------
    def run_full_ndp(self, plan, ctx=None):
        """Execute the whole QEP on the device (aggregation included).

        ``ctx`` carries tracer/faults/deadline like :meth:`run_split`.
        """
        ctx = ExecutionContext.coerce(ctx)
        tracer = ctx.sim_tracer()
        injector = ctx.injector()
        deadline = ctx.deadline
        command = self.ndp.prepare_command(
            plan, plan.entries, conjuncts(plan.residual),
            aggregates_on_device=True)
        admission_wait = self._admission_wait(command, injector, "full-ndp")
        execution = self.ndp.execute(command)
        try:
            device_time, device_breakdown = self.timing.charge(
                execution.counters, ExecutionLocation.DEVICE, injector)
            setup_time = self.timing.command_setup_time(command.payload_bytes)
            result = execution.result
            if result is None:
                result = QueryResult(execution.rows.rows(), [])
            if execution.result is not None:
                # Aggregated on device: a handful of scalar rows.
                result_bytes = max(64, len(result.rows) * 64)
            else:
                result_bytes = max(
                    64, len(result.rows) * max(1, execution.row_bytes))
            slot_bytes = self._slot_bytes()
            commands = max(1, math.ceil(result_bytes / max(1, slot_bytes)))
            transfer = self.timing.transfer_time(result_bytes,
                                                 commands=commands)

            # Serialize command payload, device compute, and the result
            # push on the sim kernel's resources.
            kernel = SimContext.fresh(tracer=tracer)
            link, core, cpu = kernel.resources()
            root_span = None
            if tracer.enabled:
                root_span = tracer.begin(
                    EXEC_TRACK, "full-ndp", 0.0, category="execution",
                    args={"strategy": "full-ndp", "batches": 1})
            timeline = []
            extra_wait = admission_wait   # admission + retry backoffs
            at = admission_wait
            if admission_wait > 0.0:
                timeline.append(TimelinePhase(
                    "host", "wait", 0.0, admission_wait,
                    "buffer admission wait"))

            def host_phase(kind, start, end, label, resource="",
                           operator=""):
                # Spans are emitted from the finished timeline below.
                timeline.append(TimelinePhase("host", kind, start, end,
                                              label, resource=resource))

            submission = _CommandSubmission(link, injector, tracer,
                                            "full-ndp", setup_time)
            attempt = 0
            while True:
                _s0, setup_end, landed = submission.attempt(attempt, at)
                if landed:
                    break
                try:
                    backoff = submission.failed(attempt, _s0, setup_end,
                                                host_phase)
                except RetriesExhaustedError:
                    if root_span is not None:
                        tracer.end(root_span, setup_end)
                    raise
                extra_wait += backoff
                at = setup_end + backoff
                attempt += 1
            core_stall = 0.0
            compute_start = setup_end
            if injector.enabled:
                online = injector.core_offline_until(setup_end)
                if online > setup_end:
                    core_stall = online - setup_end
                    timeline.append(TimelinePhase(
                        "device", "stall", setup_end, online,
                        "NDP core offline", resource=DEVICE_RESOURCE))
                    compute_start = online
            effective_device_time = device_time
            if injector.enabled:
                effective_device_time = injector.scale_compute(
                    compute_start, device_time)
            _c0, compute_end = core.acquire(compute_start,
                                            effective_device_time,
                                            label="full QEP")
            if injector.enabled:
                transfer = injector.scale_transfer(compute_end, transfer)
            push_begin, total = link.acquire(compute_end, transfer,
                                             label="result push")
            cpu.acquire(at, setup_time,   # host assembles the command
                        label="assemble NDP command")
            timeline.extend([
                TimelinePhase("host", "setup", _s0, setup_end, "NDP command",
                              resource=LINK_RESOURCE),
                TimelinePhase("device", "compute", _c0, compute_end,
                              "full QEP", resource=DEVICE_RESOURCE),
                TimelinePhase("host", "wait", setup_end, compute_end,
                              "full NDP wait"),
                TimelinePhase("host", "transfer", push_begin, total,
                              "result fetch", resource=LINK_RESOURCE),
            ])
            if tracer.enabled:
                _OPERATORS = {"setup": "ndp-command", "compute": "full-qep",
                              "wait": "wait", "transfer": "result-fetch",
                              "stall": "stall"}
                for phase in timeline:
                    args = {"placement": ("DEVICE" if phase.actor == "device"
                                          else "HOST"),
                            "operator": _OPERATORS[phase.kind]}
                    if phase.resource:
                        args["resource"] = phase.resource
                    if phase.kind == "compute":
                        args["counters"] = _counter_deltas(execution.counters)
                    tracer.span(f"{phase.actor}/{phase.kind}", phase.label,
                                phase.start, phase.end, category=phase.kind,
                                parent=root_span, args=args)
                tracer.end(root_span, total)
            if deadline is not None and total > deadline:
                # A full-NDP offload is one non-cancellable command: the
                # host gives up waiting at the deadline and the device's
                # result is discarded (its trace stands to ``total``).
                raise DeadlineExceededError(
                    f"full-ndp: deadline {deadline}s expired before the "
                    f"result push finished (would have taken {total:.6f}s)",
                    deadline=deadline, elapsed=deadline,
                    retries=submission.retries, wasted_time=deadline,
                    faults_injected=injector.faults_injected(),
                    partial={"strategy": "full-ndp",
                             "would_have_taken": total})
            host_wait = effective_device_time
            if injector.enabled:
                host_wait += core_stall + extra_wait
            report = ExecutionReport(
                strategy="full-ndp",
                total_time=total,
                result=result,
                split_index=plan.table_count - 1,
                device_counters=execution.counters,
                device_breakdown=device_breakdown,
                setup_time=setup_time,
                host_wait_initial=host_wait,
                transfer_time=transfer,
                device_busy_time=effective_device_time,
                device_stall_time=core_stall,
                batches=1,
                intermediate_rows=len(execution.rows),
                intermediate_bytes=len(execution.rows) * execution.row_bytes,
                timeline=timeline,
                resource_stats=kernel.resource_stats(total),
                trace_metrics=tracer.metrics(),
                notes={"pointer_cache": execution.pointer_cache},
            )
            return submission.stamp(report, admission_wait)
        finally:
            self.ndp.release(execution)
