"""Adaptive mid-query re-planning for single-query execution.

:class:`AdaptiveRunner` wraps an environment's planner + stack runner
with the feedback loop of docs/adaptivity.md: plan under the EWMA
cardinality correction learned from prior executions of the same SQL,
watch every pipeline breaker while the plan runs, and — when the
observed intermediate-result cardinality is off by more than the policy
threshold — cancel the offload cooperatively and re-plan the remaining
QEP with the observed ratio pinned.  A revision either *shifts* the
split point (restart at the revised Hk) or *sheds* the query to the
host; the cancelled attempt's elapsed time is charged to the final
report's ``total_time`` and recorded in its ``adaptivity`` audit block.

The concurrent analogue — re-planning under load, with saturation
shedding — lives in :class:`repro.sched.WorkloadScheduler`
(``correction=`` / ``replan=``); this module is the serial driver the
regret bench (:mod:`repro.bench.adaptive`) measures.
"""

from repro.context import ExecutionContext
from repro.core import (CostCorrection, ExecutionStrategy, PlanningContext,
                        ReplanPolicy)
from repro.engine.stacks import Stack
from repro.errors import ReplanTriggered, RetriesExhaustedError


class _BreakerMonitor:
    """The ``breaker_hook`` driving one execution attempt.

    Fires at every pipeline breaker (a device batch landing host-side)
    and applies :meth:`~repro.core.planning.ReplanPolicy.check`.  A
    revision that changes the placement cancels the simulation with
    reason ``"replan"`` — which makes ``run_split`` raise
    :class:`~repro.errors.ReplanTriggered` — and leaves ``revised`` /
    ``feedback`` for the driver.
    """

    def __init__(self, decision, policy, budget):
        self.decision = decision
        self.policy = policy
        self.budget = budget         # revisions this attempt may spend
        self.feedback = None
        self.revised = None
        self.events = []

    def __call__(self, split, i):
        if self.budget <= 0 or self.revised is not None:
            return
        checked = self.policy.check(self.decision, split.batches, i + 1,
                                    split.clock.now)
        if checked is None:
            return
        feedback, revised, event = checked
        self.budget -= 1
        self.events.append(event)
        if revised.strategy_name == self.decision.strategy_name:
            # Re-pricing with the observed cardinality still prefers
            # the running plan: audit it, keep going.
            event["action"] = "kept"
            return
        event["action"] = ("shed-to-host"
                           if revised.strategy is ExecutionStrategy.HOST_ONLY
                           or revised.split_index is None
                           else "shift-split")
        self.feedback = feedback
        self.revised = revised
        split.cancel(split.clock.now, reason="replan")


class AdaptiveRunner:
    """Run queries with mid-query re-planning and EWMA cost correction.

    Holds the mutable state the feedback loop accumulates across runs:
    one shared :class:`~repro.core.planning.CostCorrection` keyed by SQL
    text (the plan-cache key), so repeated executions of a misestimated
    statement converge toward the oracle placement.  Stateless otherwise
    — every ``run()`` plans fresh under the current correction.
    """

    def __init__(self, env, policy=None, correction=None):
        self.env = env
        self.runner = env.runner
        self.planner = env.planner
        self.policy = policy if policy is not None else ReplanPolicy()
        self.correction = (correction if correction is not None
                           else CostCorrection())

    def run(self, query, ctx=None):
        """Execute SQL text adaptively; returns an ExecutionReport.

        The report's always-present ``adaptivity`` block records the
        audit: how many revisions fired, each breaker observation, the
        wasted (cancelled-attempt) time already folded into
        ``total_time``, and the correction factor the *next* run of the
        same SQL will plan under.
        """
        key = query if isinstance(query, str) else None
        plan = self.runner.plan(query) if isinstance(query, str) else query
        context = PlanningContext(correction=self.correction, key=key,
                                  replan=self.policy)
        decision = self.planner.decide(plan, context=context)
        current = decision
        events = []
        wasted = 0.0
        observed_pair = None     # (raw_rows estimate, observed rows)
        while True:
            if (current.strategy is ExecutionStrategy.HOST_ONLY
                    or current.split_index is None):
                report = self.runner.run(plan, Stack.NATIVE, ctx=ctx)
                break
            monitor = _BreakerMonitor(
                current, self.policy,
                budget=self.policy.max_replans - len(events))
            try:
                report = self.runner.cooperative.run_split(
                    plan, current.split_index, ctx,
                    breaker_hook=monitor)
                events.extend(monitor.events)
                estimate = current.estimate_for()
                if estimate.raw_rows is not None:
                    observed_pair = (estimate.raw_rows,
                                     report.intermediate_rows)
                break
            except ReplanTriggered as signal:
                events.extend(monitor.events)
                wasted += signal.elapsed
                observed_pair = (monitor.feedback.raw_rows,
                                 monitor.feedback.observed_rows)
                current = monitor.revised
            except RetriesExhaustedError as failure:
                events.extend(monitor.events)
                report = self.runner.host_fallback(
                    plan, failure, ExecutionContext.coerce(ctx).tracer)
                break
        if (key is not None and observed_pair is not None
                and observed_pair[0] is not None):
            self.correction.observe(key, *observed_pair)
        # The cancelled attempts ran before the final plan started.
        report.total_time += wasted
        report.adaptivity = {
            "enabled": True,
            "replans": len(events),
            "correction_factor": (self.correction.factor(key)
                                  if key is not None else 1.0),
            "wasted_time": wasted,
            "events": events,
        }
        return report
