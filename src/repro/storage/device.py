"""The smart-storage device: flash + interconnect + compute + DRAM budget.

:class:`SmartStorageDevice` is what the execution engines talk to.  It
enforces the paper's buffer policy (17 MB per selection through a primary
index, 17 MB per secondary index, 7 MB per BNL/BNLI join) against the
~400 MB NDP budget, which caps pipelines at ~12 tables with secondary
indices / ~17 without (§5).
"""

import itertools
from dataclasses import dataclass, field

from repro.errors import DeviceOverloadError, StorageError
from repro.faults import NULL_INJECTOR
from repro.storage.flash import FlashDevice
from repro.storage.interconnect import PCIeLink
from repro.storage.machines import COSMOS_PLUS, DEFAULT_LINK


@dataclass(frozen=True)
class BufferReservation:
    """Buffers reserved on the device for one NDP pipeline.

    ``token`` identifies the reservation on its device — two pipelines
    with the same operator shape are *equal* as frozen dataclasses, so
    release bookkeeping must never rely on equality (it once did, and a
    double release silently corrupted the reserved-byte accounting).
    The token is excluded from equality so shape comparison still works.
    """

    selections: int
    secondary_indexes: int
    joins: int
    group_bys: int
    total_bytes: int
    token: int = field(default=0, compare=False)

    def describe(self):
        """Human-readable reservation summary."""
        return (
            f"{self.selections} selection(s), "
            f"{self.secondary_indexes} secondary-index selection(s), "
            f"{self.joins} join(s), {self.group_bys} group-by(s) "
            f"= {self.total_bytes / (1024 * 1024):.1f} MB"
        )


class SmartStorageDevice:
    """A smart SSD in NDP mode.

    Combines the flash module, the PCIe link and the compute/DRAM spec,
    and owns the buffer bookkeeping for concurrently offloaded pipelines.
    """

    def __init__(self, spec=None, flash=None, link=None, ndp_mode=True):
        self.spec = spec or COSMOS_PLUS
        self.flash = flash or FlashDevice()
        self.link = link or DEFAULT_LINK or PCIeLink()
        self.ndp_mode = ndp_mode
        self._reserved_bytes = 0
        self._tokens = itertools.count(1)
        self._active_reservations = {}    # token -> BufferReservation

    # ------------------------------------------------------------------
    # Buffer policy (paper §5)
    # ------------------------------------------------------------------
    @property
    def buffer_budget(self):
        """Total bytes available for NDP pipeline buffers."""
        return self.spec.ndp_buffer_budget

    @property
    def reserved_bytes(self):
        """Bytes currently reserved by active pipelines."""
        return self._reserved_bytes

    @property
    def available_bytes(self):
        """Bytes still free in the NDP buffer budget."""
        return self.buffer_budget - self._reserved_bytes

    def pipeline_cost_bytes(self, selections, secondary_indexes=0, joins=0,
                            group_bys=0):
        """Buffer bytes one pipeline with the given operator mix needs."""
        if min(selections, secondary_indexes, joins, group_bys) < 0:
            raise StorageError("operator counts must be non-negative")
        spec = self.spec
        return (selections * spec.selection_buffer_bytes
                + secondary_indexes * spec.secondary_index_buffer_bytes
                + joins * spec.join_buffer_bytes
                + group_bys * spec.join_buffer_bytes)

    def can_host_pipeline(self, selections, secondary_indexes=0, joins=0,
                          group_bys=0):
        """Whether a pipeline of this shape fits the remaining budget."""
        needed = self.pipeline_cost_bytes(
            selections, secondary_indexes, joins, group_bys)
        return needed <= self.available_bytes

    def reserve_pipeline(self, selections, secondary_indexes=0, joins=0,
                         group_bys=0):
        """Reserve buffers for a pipeline; raises on overload."""
        needed = self.pipeline_cost_bytes(
            selections, secondary_indexes, joins, group_bys)
        if needed > self.available_bytes:
            raise DeviceOverloadError(
                f"NDP pipeline needs {needed / (1024 * 1024):.1f} MB but only "
                f"{self.available_bytes / (1024 * 1024):.1f} MB are free on "
                f"{self.spec.name}"
            )
        reservation = BufferReservation(
            selections=selections,
            secondary_indexes=secondary_indexes,
            joins=joins,
            group_bys=group_bys,
            total_bytes=needed,
            token=next(self._tokens),
        )
        self._reserved_bytes += needed
        self._active_reservations[reservation.token] = reservation
        return reservation

    def release_pipeline(self, reservation):
        """Release a previously reserved pipeline.

        Reservations are tracked by identity (their device-issued
        token), not dataclass equality: releasing twice, or releasing a
        reservation issued by another device, fails loudly instead of
        corrupting the budget.
        """
        active = self._active_reservations.get(reservation.token)
        if active is not reservation:
            raise StorageError(
                "reservation is not active on this device "
                "(double release, or a foreign device's reservation)")
        del self._active_reservations[reservation.token]
        self._reserved_bytes -= reservation.total_bytes
        if self._reserved_bytes < 0:
            raise StorageError(
                f"reservation accounting went negative "
                f"({self._reserved_bytes} bytes) — release/reserve mismatch")

    def max_tables(self, with_secondary_index):
        """Upper bound on tables one pipeline can process (paper: 12/17).

        With secondary indexes the 17 MB secondary selection buffer
        dominates the 7 MB join buffer per table; without them each table
        costs a primary selection plus a join buffer.
        """
        spec = self.spec
        if with_secondary_index:
            per_table = (spec.selection_buffer_bytes
                         + spec.secondary_index_buffer_bytes)
        else:
            per_table = spec.selection_buffer_bytes + spec.join_buffer_bytes
        return int(self.buffer_budget // per_table)

    # ------------------------------------------------------------------
    # Timing shortcuts used by the engines
    # ------------------------------------------------------------------
    def read_internal(self, nbytes, injector=NULL_INJECTOR):
        """Seconds for the NDP engine to pull ``nbytes`` off flash."""
        return self.flash.internal_read_time(nbytes, injector)

    def read_external(self, nbytes, commands=1, injector=NULL_INJECTOR):
        """Seconds for the host to read ``nbytes`` via NVMe over PCIe."""
        flash_time = self.flash.external_read_time(nbytes, injector)
        link_time = self.link.transfer_time(nbytes, commands=commands)
        # Flash streaming and PCIe transfer pipeline; the slower dominates,
        # plus command latency.
        return max(flash_time, link_time)

    def transfer_results(self, nbytes, commands=1):
        """Seconds to ship NDP result bytes device->host."""
        return self.link.transfer_time(nbytes, commands=commands)

    def __repr__(self):
        return (
            f"SmartStorageDevice(spec={self.spec.name!r}, "
            f"ndp_mode={self.ndp_mode}, "
            f"reserved={self._reserved_bytes / (1024 * 1024):.1f}MB)"
        )
