"""The timing model: price work counters for a placement.

Converts :class:`WorkCounters` into simulated seconds for HOST or DEVICE
execution, returning both a total and a per-category breakdown whose
names follow the paper's Table 4 (memcmp, compare internal keys, seek
index block, selection processing, seek data block, flash load, other).

Host I/O can run through two paths: the traditional *block* stack (ext4
file system with its buffer-cache copies and syscall overhead) and the
*native* NVMe stack that bypasses those layers (paper Fig 10).
"""

import enum
from dataclasses import dataclass

from repro.errors import ExecutionError
from repro.faults import NULL_INJECTOR

#: Abstract cost of evaluating one predicate op relative to a CoreMark-
#: derived record operation.
_OPS_PER_PREDICATE = 1.0
#: Internal key comparisons are short memcmps plus branching.
_OPS_PER_KEY_COMPARISON = 2.0
#: A hash build/probe is a hash + compare + pointer chase.
_OPS_PER_HASH_PROBE = 3.0
#: An index seek issues a few block-cache lookups beyond the block reads.
_OPS_PER_INDEX_SEEK = 8.0
#: Fixed per-block bookkeeping (block headers, checksums).
_OPS_PER_BLOCK = 16.0


class ExecutionLocation(enum.Enum):
    """Where a pipeline fragment runs."""

    HOST = "host"
    DEVICE = "device"


class HostIOPath(enum.Enum):
    """How the host reaches the flash (paper Fig 10 baselines)."""

    BLOCK = "block"      # ext4 on a block device (BLK baseline)
    NATIVE = "native"    # direct NVMe into user space (NATIVE baseline)


#: File-system overhead of the BLK stack: extra latency factor on I/O and
#: one extra buffer-cache copy per byte.
_BLK_IO_FACTOR = 1.30
_BLK_EXTRA_COPY = True


@dataclass
class TimingBreakdown:
    """Per-category simulated seconds (Table 4 vocabulary)."""

    memcmp: float = 0.0
    compare_internal_keys: float = 0.0
    seek_index_block: float = 0.0
    selection_processing: float = 0.0
    seek_data_block: float = 0.0
    flash_load: float = 0.0
    other: float = 0.0

    @property
    def total(self):
        """Sum over all categories."""
        return (self.memcmp + self.compare_internal_keys
                + self.seek_index_block + self.selection_processing
                + self.seek_data_block + self.flash_load + self.other)

    def merge(self, other):
        """Accumulate another breakdown."""
        self.memcmp += other.memcmp
        self.compare_internal_keys += other.compare_internal_keys
        self.seek_index_block += other.seek_index_block
        self.selection_processing += other.selection_processing
        self.seek_data_block += other.seek_data_block
        self.flash_load += other.flash_load
        self.other += other.other
        return self

    def percentages(self):
        """Category shares in percent, Table 4 style."""
        total = self.total
        if total <= 0:
            return {name: 0.0 for name in vars(self)}
        return {name: 100.0 * value / total
                for name, value in vars(self).items()}


class TimingModel:
    """Prices counters against the device + host hardware models."""

    def __init__(self, device, host_spec, io_path=HostIOPath.NATIVE):
        self.device = device
        self.host = host_spec
        self.io_path = io_path

    # ------------------------------------------------------------------
    # Per-location primitives
    # ------------------------------------------------------------------
    def _index_rate(self, location):
        """Record-op rate for index navigation (seeks, key compares)."""
        if location is ExecutionLocation.DEVICE:
            spec = self.device.spec
            return spec.eval_ops_per_second * spec.index_op_boost
        return self.host.eval_ops_per_second

    def _streaming_rate(self, location):
        """Record-op rate for streaming selection work.

        On the device, scans/selections run on the FPGA streaming units
        (paper §2.1) and so evaluate records far faster than the ARM
        CoreMark gap would suggest.
        """
        if location is ExecutionLocation.DEVICE:
            spec = self.device.spec
            return spec.eval_ops_per_second * spec.streaming_eval_boost
        return self.host.eval_ops_per_second

    def _memcmp_bandwidth(self, location):
        """Byte-compare bandwidth for streaming predicates (LIKE etc.)."""
        if location is ExecutionLocation.DEVICE:
            return self.device.spec.streaming_memcmp_bandwidth
        return self.host.memcpy_bandwidth

    def _memcpy_bandwidth(self, location):
        """Buffer-to-buffer copy bandwidth (cache materialization)."""
        if location is ExecutionLocation.DEVICE:
            return self.device.spec.memcpy_bandwidth
        return self.host.memcpy_bandwidth

    def _flash_time(self, nbytes, location, injector):
        if nbytes <= 0:
            return 0.0
        if location is ExecutionLocation.DEVICE:
            return self.device.read_internal(nbytes, injector)
        time = self.device.read_external(nbytes, injector=injector)
        if self.io_path is HostIOPath.BLOCK:
            time *= _BLK_IO_FACTOR
        return time

    # ------------------------------------------------------------------
    # Main entry point
    # ------------------------------------------------------------------
    def charge(self, counters, location, injector=NULL_INJECTOR):
        """Price ``counters`` for ``location``.

        ``injector`` is the fault injector of the run the work belongs
        to; its ECC-retry draws land in ``flash_load``.  Returns
        ``(seconds, TimingBreakdown)``.
        """
        if not isinstance(location, ExecutionLocation):
            raise ExecutionError(f"bad location {location!r}")
        streaming_rate = self._streaming_rate(location)
        memcpy = self._memcpy_bandwidth(location)
        memcmp_bw = self._memcmp_bandwidth(location)
        breakdown = TimingBreakdown()

        breakdown.flash_load = self._flash_time(
            counters.flash_bytes_read, location, injector)

        if (location is ExecutionLocation.HOST
                and self.io_path is HostIOPath.BLOCK and _BLK_EXTRA_COPY):
            # The block stack copies every read byte once more through the
            # page cache before the engine sees it.
            breakdown.other += counters.flash_bytes_read / memcpy
        breakdown.memcmp = counters.memcmp_bytes / memcmp_bw

        index_rate = self._index_rate(location)
        # An internal-key comparison is mostly a bounded memcmp plus some
        # slice/sequence-number handling; attribute the memcmp share to
        # the memcmp bucket, as the paper's Table 4 profile does.
        key_compare_time = (
            counters.key_comparisons * _OPS_PER_KEY_COMPARISON / index_rate)
        breakdown.memcmp += 0.7 * key_compare_time
        breakdown.compare_internal_keys = 0.3 * key_compare_time
        breakdown.seek_index_block = (
            counters.index_block_reads * _OPS_PER_BLOCK / index_rate
            + counters.index_seeks * _OPS_PER_INDEX_SEEK / index_rate)
        breakdown.seek_data_block = (
            counters.data_block_reads * _OPS_PER_BLOCK / index_rate)
        breakdown.selection_processing = (
            (counters.records_evaluated
             + counters.predicate_ops * _OPS_PER_PREDICATE)
            / streaming_rate)
        # The BNL hash build/probe belongs to the device's streaming join
        # unit (nKV's on-device BNL builds the hash table in the join
        # buffer); on the host it runs at the host record rate anyway.
        breakdown.other += (
            counters.hash_probes * _OPS_PER_HASH_PROBE / streaming_rate
            + counters.block_cache_hits * 2.0 / index_rate
            + counters.bytes_materialized / memcpy)
        return breakdown.total, breakdown

    def transfer_time(self, nbytes, commands=1):
        """Device -> host (or host -> device) PCIe transfer time."""
        return self.device.transfer_results(nbytes, commands=commands)

    def fetch_command_time(self):
        """Host-side doorbell/completion for consuming one result batch.

        The batch payload itself is DMAed by the device; the host only
        posts a small completion command on the link per batch.
        """
        return self.device.link.transfer_time(64, commands=1)

    def command_setup_time(self, payload_bytes):
        """Time to assemble and submit an NDP command with its payload."""
        return (self.device.link.command_latency
                + self.device.link.transfer_time(payload_bytes))
