"""Flash device model with physical placement.

The LSM layer persists SSTs into flash *extents* so the NDP invocation can
ship genuine physical-placement information (address-mapping entries) to
the device, as nKV does.  Timing distinguishes the device-internal read
path (all channels in parallel, no interconnect) from the external path
(host I/O crossing the flash controller and then PCIe), which is the
asymmetry NDP exploits.
"""

from dataclasses import dataclass

from repro.errors import StorageError
from repro.faults import NULL_INJECTOR


@dataclass(frozen=True)
class FlashGeometry:
    """Physical geometry of the flash module."""

    page_size: int = 16 * 1024
    pages_per_block: int = 256
    channels: int = 8
    # Per-channel sustained read bandwidth in bytes/second.  COSMOS+ uses
    # MLC flash in SLC mode; ~330 MB/s per channel is representative.
    channel_read_bandwidth: float = 330e6
    channel_write_bandwidth: float = 180e6
    # Latency to sense and stream out one page on one channel.
    page_read_latency: float = 60e-6
    page_write_latency: float = 250e-6

    def __post_init__(self):
        if self.page_size <= 0 or self.pages_per_block <= 0 or self.channels <= 0:
            raise StorageError("flash geometry values must be positive")

    @property
    def internal_read_bandwidth(self):
        """Aggregate on-device read bandwidth (all channels striped)."""
        return self.channels * self.channel_read_bandwidth

    @property
    def internal_write_bandwidth(self):
        """Aggregate on-device write bandwidth."""
        return self.channels * self.channel_write_bandwidth


@dataclass(frozen=True)
class FlashExtent:
    """A contiguous run of flash pages holding one storage object."""

    start_page: int
    page_count: int
    nbytes: int

    @property
    def end_page(self):
        """First page after the extent."""
        return self.start_page + self.page_count


@dataclass
class _FlashCounters:
    pages_read: int = 0
    pages_written: int = 0
    extents_allocated: int = 0


class FlashDevice:
    """Flash module: allocation, physical placement, and read timing.

    Storage objects (SSTs) call :meth:`allocate` to obtain an extent; the
    extent is the "physical placement" the NDP command carries.  Reads are
    priced against the internal or the external path.
    """

    def __init__(self, geometry=None, capacity_bytes=64 * 1024 * 1024 * 1024,
                 external_read_bandwidth=500e6):
        self.geometry = geometry or FlashGeometry()
        if capacity_bytes <= 0:
            raise StorageError("flash capacity must be positive")
        self.capacity_bytes = capacity_bytes
        # Sustained bandwidth the host sees through the flash controller's
        # external interface (before PCIe); consumer COSMOS+-class devices
        # expose far less than the aggregate channel bandwidth.
        self.external_read_bandwidth = external_read_bandwidth
        self._next_page = 0
        self._extents = {}
        self._counters = _FlashCounters()

    # ------------------------------------------------------------------
    # Allocation / placement
    # ------------------------------------------------------------------
    @property
    def total_pages(self):
        """Total page count of the module."""
        return self.capacity_bytes // self.geometry.page_size

    @property
    def used_pages(self):
        """Pages consumed by live extents (plus dead, pre-GC ones)."""
        return self._next_page

    def pages_for(self, nbytes):
        """Number of pages needed to hold ``nbytes``."""
        if nbytes < 0:
            raise StorageError(f"negative byte count {nbytes}")
        page = self.geometry.page_size
        return max(1, (nbytes + page - 1) // page)

    def allocate(self, nbytes, owner=None):
        """Allocate a fresh extent of ``nbytes`` and return it."""
        pages = self.pages_for(nbytes)
        if self._next_page + pages > self.total_pages:
            raise StorageError(
                f"flash full: need {pages} pages, "
                f"{self.total_pages - self._next_page} free"
            )
        extent = FlashExtent(self._next_page, pages, nbytes)
        self._next_page += pages
        self._extents[extent.start_page] = owner
        self._counters.extents_allocated += 1
        return extent

    def free(self, extent):
        """Release an extent (no GC model; space is simply forgotten)."""
        self._extents.pop(extent.start_page, None)

    def placement_of(self, extent):
        """Address-mapping entry for an extent, shipped with NDP commands."""
        return {
            "start_page": extent.start_page,
            "page_count": extent.page_count,
            "nbytes": extent.nbytes,
        }

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def internal_read_time(self, nbytes, injector=NULL_INJECTOR):
        """Seconds for the on-device engine to read ``nbytes`` from flash.

        ``injector`` is the pricing run's fault injector
        (:mod:`repro.faults`): it adds the ECC-retry latency it draws.
        """
        if nbytes < 0:
            raise StorageError(f"negative byte count {nbytes}")
        if nbytes == 0:
            return 0.0
        pages = self.pages_for(nbytes)
        self._counters.pages_read += pages
        geometry = self.geometry
        # Channels are read in parallel; each batch of `channels` pages
        # costs one page latency, and streaming is bandwidth-bound.
        batches = (pages + geometry.channels - 1) // geometry.channels
        latency = batches * geometry.page_read_latency
        stream = nbytes / geometry.internal_read_bandwidth
        latency += injector.flash_read_penalty(pages)
        return latency + stream

    def external_read_time(self, nbytes, injector=NULL_INJECTOR):
        """Seconds to stream ``nbytes`` out of the flash controller to the
        host interface (PCIe transfer is priced separately by the link);
        ``injector`` as for :meth:`internal_read_time`."""
        if nbytes < 0:
            raise StorageError(f"negative byte count {nbytes}")
        if nbytes == 0:
            return 0.0
        pages = self.pages_for(nbytes)
        self._counters.pages_read += pages
        geometry = self.geometry
        # Sensing latency batches over channels exactly as on the internal
        # path — a single random page still pays one full sense latency.
        batches = (pages + geometry.channels - 1) // geometry.channels
        latency = batches * geometry.page_read_latency
        stream = nbytes / self.external_read_bandwidth
        latency += injector.flash_read_penalty(pages)
        return latency + stream

    def write_time(self, nbytes):
        """Seconds to program ``nbytes`` (flush/compaction path)."""
        if nbytes < 0:
            raise StorageError(f"negative byte count {nbytes}")
        if nbytes == 0:
            return 0.0
        pages = self.pages_for(nbytes)
        self._counters.pages_written += pages
        geometry = self.geometry
        batches = (pages + geometry.channels - 1) // geometry.channels
        return (batches * geometry.page_write_latency
                + nbytes / geometry.internal_write_bandwidth)

    @property
    def counters(self):
        """Lifetime device counters (pages read/written, extents)."""
        return self._counters
