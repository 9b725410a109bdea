"""Split-point calculation (paper §3.3, eqs. 9-12, Fig. 5).

Preconditions for splitting: the QEP must join at least two tables, all
tables must live in a compatible (nKV) engine, the device must be in NDP
mode, and the data to move must be large enough to exploit the on-device
bandwidth.  The planner computes a target cost ``c_target`` from the
host-to-device CPU and memory ratios and picks the split point whose
cumulative cost sits closest to the target.
"""

from dataclasses import dataclass

from repro.errors import PlanError

#: Minimum bytes a query must touch before offloading pays for the
#: command round-trip (precondition (b) in §3.3).
DEFAULT_MIN_TRANSFER_BYTES = 64 * 1024


@dataclass
class SplitChoice:
    """A selected split point with its surrounding numbers."""

    split_index: int
    c_target: float
    split_cpu: float
    split_mem: float
    cumulative_costs: list
    distance: float

    @property
    def name(self):
        """Hk label."""
        return f"H{self.split_index}"


class SplitPlanner:
    """Implements eqs. (9)-(12) over a cost-model cumulative curve."""

    def __init__(self, hardware, cost_model,
                 min_transfer_bytes=DEFAULT_MIN_TRANSFER_BYTES):
        self.hardware = hardware
        self.cost_model = cost_model
        self.min_transfer_bytes = min_transfer_bytes

    # ------------------------------------------------------------------
    # Preconditions (§3)
    # ------------------------------------------------------------------
    def check_preconditions(self, plan, device):
        """Evaluate all offloading preconditions; returns a dict."""
        transfer_volume = sum(
            entry.estimated_rows * max(4, entry.projection_bytes)
            for entry in plan.entries)
        return {
            "multi_table": plan.table_count >= 2,
            "ndp_mode": bool(device.ndp_mode),
            "transfer_volume": transfer_volume >= self.min_transfer_bytes,
            "device_fits_one_table": device.can_host_pipeline(1, 0, 0, 0),
        }

    # ------------------------------------------------------------------
    # Target cost (eqs. 9-12)
    # ------------------------------------------------------------------
    def split_cpu(self):
        """Eq. (9): host-to-device CPU performance ratio in percent.

        The paper writes the ratio over flash-weighted clock frequencies
        (the weighting cancels); we use the profiler's rates for the
        work an offloaded fragment actually performs — the DRAM-bound
        seek/join path — which is what the clock frequencies proxy.
        """
        hardware = self.hardware
        return (100.0 * (hardware.eval_ndp_index * hardware.hw_fsw)
                / (hardware.eval_host * hardware.hw_fsw))

    def split_mem(self, table_count):
        """Eqs. (10)-(11): device memory demand relative to host memory."""
        hardware = self.hardware
        split_dev = (table_count * hardware.hw_mss
                     + max(0, table_count - 1) * hardware.hw_msj)
        return (100.0 * (split_dev * hardware.ndp_hw_msw)
                / (hardware.hw_msh * hardware.ndp_hw_msw))

    def c_target(self, c_total, table_count):
        """Eq. (12): the cost the device side should carry."""
        return (c_total * (self.split_cpu() + self.split_mem(table_count))
                / (2.0 * 100.0))

    # ------------------------------------------------------------------
    # Split selection (Fig. 5)
    # ------------------------------------------------------------------
    def choose_split(self, plan, device_cost=None):
        """Pick the split point closest to ``c_target``.

        The cumulative curve is evaluated with *device* placement (it is
        the NDP fragment that the cumulative cost describes), while the
        total cost anchoring the target uses the host plan, since the
        target expresses "how much of the query the device can carry".
        ``device_cost`` is this splitter's cost model's device-placement
        :class:`~repro.core.cost_model.PlanCost` of ``plan``, when the
        caller already holds it; otherwise it is priced here.
        """
        if plan.table_count < 2:
            raise PlanError("split requires at least two tables")
        if device_cost is None:
            device_cost = self.cost_model.plan_cost(plan, on_device=True)
        cumulative = device_cost.cumulative()
        c_total = cumulative[-1]
        target = self.c_target(c_total, plan.table_count)
        best_index = 0
        best_distance = None
        for index, cost in enumerate(cumulative):
            distance = abs(cost - target)
            if best_distance is None or distance < best_distance:
                best_index, best_distance = index, distance
        return SplitChoice(
            split_index=best_index,
            c_target=target,
            split_cpu=self.split_cpu(),
            split_mem=self.split_mem(plan.table_count),
            cumulative_costs=cumulative,
            distance=best_distance,
        )
