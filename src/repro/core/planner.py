"""The hybrid planner: decide host-only / full-NDP / Hk for a query.

Ties together the baseline optimizer, the cost model, the splitter and
the device's buffer policy.  The decision flow follows §3: check the
offloading preconditions, compare total host and device QEP costs,
compute the split target, and estimate the hybrid cost as the parallel
composition of the two fragments (the cooperative model overlaps them).

Everything the decision depends on besides the query travels in a
frozen :class:`~repro.core.planning.PlanningContext` — device load,
EWMA correction state, re-planning thresholds.
"""

from repro.core.cost_model import CostModel
from repro.core.planning import CostEstimate, PlanningContext
from repro.core.splitter import SplitPlanner
from repro.core.strategy import ExecutionStrategy, HybridDecision
from repro.query.optimizer import build_plan
from repro.query.physical import operator_counts


def fit_to_device(device, plan, split_index):
    """The deepest split at or below ``split_index`` whose NDP fragment
    fits the free buffers of ``device`` (0 when no deeper one fits)."""
    while split_index > 0 and not device.can_host_pipeline(
            *operator_counts(plan.prefix(split_index))):
        split_index -= 1
    return split_index


class HybridPlanner:
    """Produces a :class:`HybridDecision` for a query."""

    def __init__(self, catalog, device, hardware, cost_model=None,
                 split_planner=None):
        self.catalog = catalog
        self.device = device
        self.hardware = hardware
        self.cost_model = cost_model or CostModel(hardware)
        self.splitter = split_planner or SplitPlanner(hardware,
                                                      self.cost_model)

    def plan(self, sql):
        """Baseline physical plan for SQL text."""
        return build_plan(sql, self.catalog)

    def decide(self, query, context=None):
        """Make the offloading decision for SQL text or a QueryPlan.

        ``context`` (a :class:`~repro.core.planning.PlanningContext`)
        carries the device pressure snapshot, the EWMA cardinality
        correction learned from prior executions, and the mid-query
        re-planning policy.  A loaded device inflates device-side costs
        so placement drifts toward host-only / smaller splits; a
        correction factor re-prices intermediate-result cardinalities
        for *both* placements.  The returned decision carries typed
        per-strategy :class:`~repro.core.planning.CostEstimate` entries
        and can ``revise(feedback)`` itself from runtime observations.
        """
        context = PlanningContext.coerce(context)
        plan = self.plan(query) if isinstance(query, str) else query
        cost_model = self.cost_model
        splitter = self.splitter
        factor = context.correction_factor()
        if context.device_load is not None or factor != 1.0:
            cost_model = cost_model.with_load(context.device_load,
                                              correction=factor)
            splitter = SplitPlanner(
                self.hardware, cost_model,
                min_transfer_bytes=self.splitter.min_transfer_bytes)
        host_cost = cost_model.plan_cost(plan, on_device=False)
        device_cost = cost_model.plan_cost(plan, on_device=True)
        c_total_host = host_cost.c_total
        c_total_device = device_cost.c_total

        preconditions = splitter.check_preconditions(plan, self.device)
        if not all(preconditions.values()):
            failed = sorted(name for name, ok in preconditions.items()
                            if not ok)
            decision = HybridDecision(
                strategy=ExecutionStrategy.HOST_ONLY,
                c_total_host=c_total_host,
                c_total_device=c_total_device,
                preconditions=preconditions,
                estimates={"host-only": CostEstimate(
                    strategy="host-only", c_total=c_total_host)},
                reason=f"preconditions failed: {', '.join(failed)}",
                correction_factor=factor,
                replan=context.replan,
            )
            return self._bind(decision, plan, context)

        # One device pricing per decision: the splitter reuses it when it
        # prices with the same model.
        choice = splitter.choose_split(
            plan, device_cost if splitter.cost_model is cost_model else None)
        split_index = fit_to_device(self.device, plan, choice.split_index)

        last = plan.table_count - 1
        estimates = {
            "host-only": CostEstimate(
                strategy="host-only", c_total=c_total_host),
            "full-ndp": CostEstimate(
                strategy="full-ndp", c_total=c_total_device,
                split_index=last,
                intermediate_rows=device_cost.nodes[last].node_ren,
                raw_rows=max(1, plan.entries[last].estimated_output_rows)),
        }
        hybrid_estimate = self._hybrid_cost(plan, device_cost, host_cost,
                                            split_index)
        estimates[f"H{split_index}"] = CostEstimate(
            strategy=f"H{split_index}", c_total=hybrid_estimate,
            split_index=split_index,
            intermediate_rows=device_cost.nodes[split_index].node_ren,
            raw_rows=max(
                1, plan.entries[split_index].estimated_output_rows))

        winner = min(estimates,
                     key=lambda name: estimates[name].c_total)
        if winner == "host-only":
            strategy = ExecutionStrategy.HOST_ONLY
            index = None
            reason = "host plan cheapest"
        elif winner == "full-ndp":
            strategy = ExecutionStrategy.FULL_NDP
            index = last
            reason = "device plan cheapest"
        else:
            strategy = ExecutionStrategy.HYBRID
            index = split_index
            reason = (f"split closest to c_target "
                      f"(distance {choice.distance:.1f})")

        decision = HybridDecision(
            strategy=strategy,
            split_index=index,
            c_total_host=c_total_host,
            c_total_device=c_total_device,
            c_target=choice.c_target,
            split_cpu=choice.split_cpu,
            split_mem=choice.split_mem,
            cumulative_costs=choice.cumulative_costs,
            estimates=estimates,
            preconditions=preconditions,
            reason=reason,
            correction_factor=factor,
            replan=context.replan,
        )
        return self._bind(decision, plan, context)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _bind(self, decision, plan, context):
        """Attach the revision closure enabling mid-query re-planning."""

        def _revise(feedback):
            revised = self.decide(plan,
                                  context=context.with_feedback(feedback))
            if (feedback.device_saturated
                    and revised.strategy is not ExecutionStrategy.HOST_ONLY):
                # A saturated device cannot absorb a restarted fragment:
                # shed to the host regardless of the cost comparison.
                revised.strategy = ExecutionStrategy.HOST_ONLY
                revised.split_index = None
                revised.reason = "device saturated at pipeline breaker"
            return revised

        return decision.bind_reviser(_revise)

    def _hybrid_cost(self, plan, device_cost, host_cost, split_index):
        """Estimated cost of Hk: fragments overlap, transfers accrue.

        The device carries the cumulative device-placement cost up to the
        split; the host carries its own placement cost for the remaining
        tables plus the intermediate-result transfer.  Cooperative
        execution overlaps the two, so the estimate is the maximum of the
        fragment costs plus the non-overlappable intermediate transfer.
        """
        device_part = device_cost.nodes[split_index].c_node
        host_part = host_cost.c_total - host_cost.nodes[split_index].c_node
        split_node = device_cost.nodes[split_index]
        transfer = split_node.c_trans
        return max(device_part, host_part) + transfer
