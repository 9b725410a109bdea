"""The hybridNDP cost model (paper §3.2, eqs. 1-8).

Costs are abstract, dimensionless units (like MySQL's).  For every node
of the left-deep plan we compute scan, CPU and transfer costs for HOST
and DEVICE placement using the hardware model, plus the cumulative join
cost of eq. (8); the splitter then works over the cumulative curve.

Variable names follow Table 1: ``tbl_ren`` (matching records),
``tbl_sea`` (storage-engine access cost), ``tbl_pbn``/``tbl_tbn``
(projection/total bytes), ``tbl_nbs`` (block size), ``usr_rec`` (row
evaluation cost), ``calc_sel``, ``calc_frt``, ``calc_pcf``,
``calc_tvb``, ``node_ren``, ``node_brc``, ``node_pbn``, ``cf_pcie``.
"""

from dataclasses import dataclass, field

from repro.errors import PlanError

#: MySQL's classic row evaluation cost.
DEFAULT_USR_REC = 0.1
#: Bytes per record are normalised by this so c_cpu stays commensurable
#: with c_scan; corresponds to pricing CPU work per 64 processed bytes.
_BYTES_NORM = 64.0
#: Utilization above this is priced as if it were this: the M/M/1-style
#: inflation 1/(1-u) diverges at u=1 and the measured utilization of an
#: always-busy resource approaches it, so the cap keeps the inflated
#: costs finite (at most 20x) while still making a saturated device
#: deeply unattractive.
MAX_PRICED_UTILIZATION = 0.95


def _booked_share(resource, now):
    """Busy share of a resource over the horizon it is booked until."""
    horizon = max(now, resource.free_at)
    if horizon <= 0:
        return 0.0
    return min(1.0, resource.busy_time / horizon)


@dataclass(frozen=True)
class DeviceLoad:
    """A snapshot of device-side pressure, folded into the cost model.

    The concurrent scheduler measures these from its shared sim kernel
    before admitting a query; the planner then prices *device* placement
    as if served by the loaded device, so hot devices push work back to
    the host (load-aware placement).  All fields are dimensionless
    fractions in ``[0, 1]`` except ``inflight``.
    """

    core_utilization: float = 0.0    # NDP core busy fraction so far
    link_utilization: float = 0.0    # PCIe link busy fraction so far
    reserved_fraction: float = 0.0   # device DRAM budget already reserved
    inflight: int = 0                # queries currently using the device

    @classmethod
    def snapshot(cls, link, core, device, now, inflight=0):
        """Measure one device's pressure at kernel time ``now``.

        ``link`` / ``core`` are the device's busy resources on the sim
        kernel.  Utilization is busy time over the horizon each resource
        is booked until — counting work already committed to the future,
        which is what the *next* query will actually contend with.
        """
        return cls(core_utilization=_booked_share(core, now),
                   link_utilization=_booked_share(link, now),
                   reserved_fraction=(device.reserved_bytes
                                      / max(1, device.buffer_budget)),
                   inflight=inflight)

    def compute_scale(self):
        """Inflation for on-device compute terms.

        Queueing-style ``1/(1-u)`` inflation on the core's utilization,
        compounded by DRAM pressure: a device whose pipeline buffers are
        mostly reserved makes every new fragment more expensive (smaller
        working sets, more refills).
        """
        u = min(MAX_PRICED_UTILIZATION, max(0.0, self.core_utilization))
        pressure = 1.0 + max(0.0, min(1.0, self.reserved_fraction))
        return pressure / (1.0 - u)

    def transfer_scale(self):
        """Inflation for PCIe transfer terms under link contention."""
        u = min(MAX_PRICED_UTILIZATION, max(0.0, self.link_utilization))
        return 1.0 / (1.0 - u)


@dataclass
class NodeCost:
    """Costs of one plan node (one table + its join with the prefix)."""

    alias: str
    c_scan: float
    c_cpu: float
    c_trans: float
    node_ren: int            # resulting records of this node (post-join)
    node_brc: float          # buffer-management cost of this node
    c_node: float            # cumulative cost up to and including this node


@dataclass
class PlanCost:
    """Cost of a full plan for one placement."""

    location: str            # 'host' | 'device'
    nodes: list = field(default_factory=list)

    @property
    def c_total(self):
        """Total QEP cost (cumulative cost of the last node)."""
        if not self.nodes:
            return 0.0
        return self.nodes[-1].c_node

    def cumulative(self):
        """The Fig-5 curve: cumulative cost at each split point H0..Hn-1."""
        return [node.c_node for node in self.nodes]

    def node(self, alias):
        """Cost record for one alias."""
        for node in self.nodes:
            if node.alias == alias:
                return node
        raise PlanError(f"no cost node for alias {alias!r}")


class CostModel:
    """Computes per-node and cumulative plan costs (eqs. 1-8)."""

    def __init__(self, hardware, usr_rec=DEFAULT_USR_REC,
                 block_bytes=16 * 1024, device_load=None, correction=1.0):
        self.hardware = hardware
        self.usr_rec = usr_rec
        self.block_bytes = block_bytes   # tbl_nbs
        self.device_load = device_load   # None = unloaded device
        #: Multiplicative correction on intermediate-result cardinalities
        #: (``node_ren``), learned from prior executions by the EWMA
        #: layer (:class:`~repro.core.planning.CostCorrection`).  1.0 =
        #: trust the sampled statistics; applied to *both* placements —
        #: a cardinality error is a property of the data, not of where
        #: the join runs.
        self.correction = correction

    def with_load(self, device_load, correction=None):
        """A copy of this model pricing device work under ``device_load``.

        Host-placement costs are unchanged — the load model captures
        *device* contention; host contention shows up in the simulated
        timeline, not the planning estimate.  ``correction`` optionally
        replaces the cardinality-correction factor in the same breath.
        """
        return CostModel(self.hardware, usr_rec=self.usr_rec,
                         block_bytes=self.block_bytes,
                         device_load=device_load,
                         correction=(self.correction if correction is None
                                     else correction))

    def corrected_rows(self, estimated_output_rows):
        """``node_ren`` after the EWMA cardinality correction.

        With the neutral factor this is exactly the historical
        ``max(1, estimated_output_rows)`` — corrected and uncorrected
        models price identically, so adaptivity off stays byte-identical.
        """
        node_ren = max(1, estimated_output_rows)
        if self.correction != 1.0:
            node_ren = max(1, int(round(node_ren * self.correction)))
        return node_ren

    # ------------------------------------------------------------------
    # Per-table components
    # ------------------------------------------------------------------
    def scan_cost(self, entry, on_device):
        """Eq. (2): c_scan = tbl_sea + calc_frt."""
        table_bytes = entry.table_rows * entry.record_bytes
        pages = max(1.0, table_bytes / self.hardware.flash_page_bytes)
        if entry.uses_secondary_index or entry.index_column is not None:
            # Index access touches a fraction of the pages proportional
            # to the estimated matching records.
            fraction = min(1.0, entry.estimated_rows
                           / max(1, entry.table_rows))
            pages = max(1.0, pages * fraction)
            tbl_sea = entry.estimated_rows * 0.05 + pages
        else:
            tbl_sea = pages
        calc_frt = pages * self.hardware.page_cost(on_device)
        return tbl_sea + calc_frt

    def cpu_cost(self, entry, on_device):
        """Eq. (3): c_cpu = tbl_ren * usr_rec * node_pbn * calc_pcf.

        ``calc_pcf`` depends on what the hardware executes: scans and
        selections run on the device's streaming units (near host
        parity), index-driven accesses on the DRAM-bound path.
        """
        tbl_ren = self._evaluated_rows(entry)
        node_pbn = max(4, entry.projection_bytes)
        if entry.index_column is not None:
            calc_pcf = self.hardware.index_factor(on_device)
        else:
            calc_pcf = self.hardware.streaming_factor(on_device)
        return tbl_ren * self.usr_rec * (node_pbn / _BYTES_NORM) * calc_pcf

    def transfer_cost(self, entry, on_device):
        """Eqs. (4)-(6): c_trans for one table.

        NDP placement ships only the selected records' projected bytes
        (eq. 5); host placement must move the full table (eq. 6).
        """
        cf_pcie = self.hardware.cf_pcie()
        if on_device:
            calc_tvb = (entry.estimated_selectivity * entry.table_rows
                        * max(4, entry.projection_bytes))
        else:
            calc_tvb = entry.table_rows * entry.record_bytes
        return calc_tvb * cf_pcie / self.block_bytes

    def _evaluated_rows(self, entry):
        """Records the engine actually evaluates for this table."""
        if entry.index_column is not None:
            return max(1, entry.estimated_rows)
        return max(1, entry.table_rows)

    # ------------------------------------------------------------------
    # Whole-plan cost (eq. 8 cumulation)
    # ------------------------------------------------------------------
    def plan_cost(self, plan, on_device):
        """Cost every node of the plan for one placement.

        Join handling follows §3.2: each table contributes its access
        cost (scan + cpu); the join adds ``node_ren * usr_rec`` for the
        produced records plus buffer-management cost; transfer costs are
        charged per table for host placement (everything moves) but only
        on the intermediate/final results for device placement.
        """
        nodes = []
        cumulative = 0.0
        # Projected bytes of one intermediate row up to this entry.
        node_pbn = 0
        hardware = self.hardware
        compute_scale = 1.0
        transfer_scale = 1.0
        if on_device and self.device_load is not None:
            compute_scale = self.device_load.compute_scale()
            transfer_scale = self.device_load.transfer_scale()
        # Buffer management: how many buffer refills the node's output
        # causes on its placement's buffer size.
        buffer_bytes = max(1, hardware.hw_msj if on_device
                           else hardware.hw_msh // 64)
        memcpy_factor = hardware.memcpy_factor(on_device)
        # Join work (seeks, hash probes) runs on the device's DRAM-bound
        # path, not the 31x CoreMark path.
        index_factor = hardware.index_factor(on_device)
        cf_pcie = hardware.cf_pcie()
        for entry in plan.entries:
            c_scan = self.scan_cost(entry, on_device) * compute_scale
            c_cpu = self.cpu_cost(entry, on_device) * compute_scale
            node_ren = self.corrected_rows(entry.estimated_output_rows)
            node_pbn += max(4, entry.projection_bytes)
            node_brc = (node_ren * node_pbn / buffer_bytes
                        * memcpy_factor * compute_scale)
            if on_device:
                c_trans = (node_ren * node_pbn / self.block_bytes
                           * cf_pcie) * transfer_scale
            else:
                c_trans = self.transfer_cost(entry, on_device=False)
            join_cost = 0.0
            if entry.join_algorithm is not None:
                join_cost = (node_ren * self.usr_rec * index_factor
                             * compute_scale)
            cumulative = (cumulative + c_scan + c_cpu + join_cost
                          + node_brc)
            # eq. (8): transfers are pending at the end for NDP; for the
            # host every table's transfer accrues as it is read.
            if not on_device:
                cumulative += c_trans
            nodes.append(NodeCost(
                alias=entry.alias,
                c_scan=c_scan,
                c_cpu=c_cpu + join_cost,
                c_trans=c_trans,
                node_ren=node_ren,
                node_brc=node_brc,
                c_node=cumulative + (c_trans if on_device else 0.0),
            ))
        return PlanCost(location="device" if on_device else "host",
                        nodes=nodes)

    def host_total(self, plan):
        """c_total for host-only execution (eq. 1/8, host placement)."""
        return self.plan_cost(plan, on_device=False).c_total

    def device_total(self, plan):
        """c_total for full on-device execution."""
        return self.plan_cost(plan, on_device=True).c_total
