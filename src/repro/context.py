"""The execution context: one handle for every cross-cutting collaborator.

Tracing (PR 2) and fault injection (PR 3) were threaded through the
engine as separate ``tracer=`` / ``faults=`` keyword arguments; the
concurrent scheduler would have added a third.  :class:`ExecutionContext`
stops the kwarg sprawl: every run entry point (``StackRunner.run``,
``Environment.run``, ``CooperativeExecutor.run_split`` /
``run_full_ndp``, ``run_all_splits``, the chaos and bench harnesses)
accepts a single ``ctx=`` carrying all of them.

The context is frozen: it describes *how* to run, never accumulates
per-run state.  Mutable per-run collaborators (an active
:class:`~repro.faults.FaultInjector`) are derived from it per execution
via :meth:`injector`.
"""

from dataclasses import dataclass, replace

from repro.errors import ReproError
from repro.faults import FaultPlan, as_injector
from repro.sim.trace import as_tracer


@dataclass(frozen=True)
class ExecutionContext:
    """Immutable bundle of the cross-cutting run collaborators.

    ``tracer``
        A :class:`repro.sim.Tracer` recording the run as structured
        spans, or ``None`` for zero-cost no-op tracing.
    ``faults``
        A :class:`repro.faults.FaultPlan` (a fresh injector is created
        per execution) or an already-active injector, or ``None``.
    ``retry_policy``
        A :class:`repro.faults.RetryPolicy` overriding the fault plan's
        policy, or ``None`` to use the plan's own.
    ``deadline``
        A per-query *simulated-time* budget in seconds, or ``None`` for
        unbounded runs.  Enforced cooperatively at every layer: a single
        run past its deadline is cancelled (reservations released) and
        raises :class:`~repro.errors.DeadlineExceededError` with a
        partial audit; the workload scheduler sheds queued jobs whose
        deadline already passed and cancels in-flight offloads at the
        deadline (docs/robustness.md, "Stragglers, speculation, and
        deadlines").
    """

    tracer: object = None
    faults: object = None
    retry_policy: object = None
    deadline: float = None

    def __post_init__(self):
        if self.deadline is not None and not self.deadline > 0:
            raise ReproError("deadline must be a positive number of "
                             "simulated seconds (or None)")

    @classmethod
    def coerce(cls, ctx=None):
        """Normalise an optional ``ctx`` argument to a usable context."""
        if ctx is None:
            return NULL_CONTEXT
        if not isinstance(ctx, ExecutionContext):
            raise ReproError(
                f"ctx must be an ExecutionContext, got {type(ctx).__name__}")
        return ctx

    def sim_tracer(self):
        """The context's tracer as a usable (possibly null) tracer."""
        return as_tracer(self.tracer)

    def injector(self):
        """A per-execution fault injector honouring ``retry_policy``.

        A :class:`~repro.faults.FaultPlan` yields a *fresh* injector per
        call, seeded with the plan's seed, so each execution replays the
        same random stream; an active injector passes through so one
        injector's counts can span a retry plus its fallback.
        """
        faults = self.faults
        if self.retry_policy is not None and isinstance(faults, FaultPlan):
            faults = replace(faults, retry=self.retry_policy)
        return as_injector(faults)


#: The do-nothing context: no tracing, no faults, no deadline.
NULL_CONTEXT = ExecutionContext()

