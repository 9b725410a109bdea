"""The abstract hardware model (paper Table 2).

Different hardware cannot be compared directly, so hybridNDP abstracts
the smart-storage and host characteristics into a small parameter set:
flash clock frequencies (device-internal vs host path), CPU memcpy
efficiency / clock / core counts, memory sizes (host DRAM, device
selection and join buffers), and the interconnect (PCIe version/lanes).
The parameters are produced by the §3.1 profiler and would live in the
DBMS parameter file.
"""

from dataclasses import dataclass, field
from functools import lru_cache

from repro.errors import ReproError


@lru_cache(maxsize=None)
def _pcie_cost_factor(version, lanes):
    """``PCIeLink(version, lanes).cost_factor()``, built once per link
    shape (an invalid shape raises every time and is not cached)."""
    from repro.storage.interconnect import PCIeLink
    return PCIeLink(version=version, lanes=lanes).cost_factor()


@dataclass(frozen=True)
class HardwareModel:
    """Table 2 parameters (plus the profiler-derived rates they encode)."""

    # FLASH -----------------------------------------------------------
    ndp_hw_fcf: float            # flash clock frequency, device (pages/s)
    host_hw_fcf: float           # flash clock frequency, host path (pages/s)
    hw_fsw: float = 1.0          # flash weighting for hybrid-idx calculation
    # CPU --------------------------------------------------------------
    hw_cme_host: float = 8.0e9   # host memcpy efficiency (bytes/s)
    hw_cme_ndp: float = 0.6e9    # device memcpy efficiency (bytes/s)
    hw_ccf_host: float = 3.4e9   # host CPU clock (Hz)
    hw_ccf_ndp: float = 667e6    # device CPU clock (Hz)
    hw_ccn_host: int = 4         # host cores
    hw_ccn_ndp: int = 1          # device NDP cores
    eval_host: float = 3.9e7     # record-ops/s, host (profiler flops probe)
    eval_ndp: float = 1.2e6      # record-ops/s, device (complex ARM work)
    eval_ndp_streaming: float = 4.0e7   # FPGA scan units (stream probe)
    eval_ndp_index: float = 1.5e7       # DRAM-bound seeks (chase probe)
    # MEMORY -----------------------------------------------------------
    hw_msh: int = 4 * 1024 ** 3  # host memory size (bytes)
    hw_mss: int = 17 * 1024 ** 2  # device selection-buffer size (bytes)
    hw_msj: int = 7 * 1024 ** 2   # device join-buffer size (bytes)
    ndp_hw_msw: float = 1.0      # memory weighting for hybrid-idx
    # INTERCONNECT ------------------------------------------------------
    hw_ipl: int = 8              # PCIe lanes
    hw_ipv: int = 2              # PCIe version
    pcie_bandwidth: float = 3.2e9    # measured bytes/s
    pcie_latency: float = 8e-6       # measured command latency (s)
    flash_page_bytes: int = 16 * 1024
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.ndp_hw_fcf <= 0 or self.host_hw_fcf <= 0:
            raise ReproError("flash clock frequencies must be positive")
        if self.eval_host <= 0 or self.eval_ndp <= 0:
            raise ReproError("evaluation rates must be positive")

    # ------------------------------------------------------------------
    # Derived factors the cost model consumes
    # ------------------------------------------------------------------
    @property
    def compute_gap(self):
        """Host/device record-evaluation throughput ratio (~31x)."""
        return self.eval_host / self.eval_ndp

    def page_cost(self, on_device):
        """Relative cost of reading one flash page at a location.

        Normalised so the host path costs 1.0 per page; the device pays
        less when its internal flash frequency (weighted by hw_FSW) is
        higher — eq. (2)'s ``calc_frt`` hardware factor.
        """
        if on_device:
            return self.host_hw_fcf / (self.ndp_hw_fcf * self.hw_fsw)
        return 1.0

    def compute_factor(self, on_device):
        """``calc_pcf``: CPU cost factor relative to the host (eq. 3)."""
        if on_device:
            return self.compute_gap
        return 1.0

    def streaming_factor(self, on_device):
        """CPU factor for scan/selection work (FPGA streaming units)."""
        if on_device:
            return self.eval_host / self.eval_ndp_streaming
        return 1.0

    def index_factor(self, on_device):
        """CPU factor for seek/join/hash work (DRAM-bound on device)."""
        if on_device:
            return self.eval_host / self.eval_ndp_index
        return 1.0

    def memcpy_factor(self, on_device):
        """Relative memcpy cost (hw_CME), host = 1.0."""
        if on_device:
            return self.hw_cme_host / self.hw_cme_ndp
        return 1.0

    def cf_pcie(self):
        """``cf_pcie(hw_IPV, hw_IPL)``: cost per block moved over PCIe.

        Derived from the physical-layer properties (version -> rate and
        encoding, lane count), normalised so a PCIe 3.0 x16 link costs 1.
        """
        return _pcie_cost_factor(self.hw_ipv, self.hw_ipl)

    # ------------------------------------------------------------------
    # Construction from a profiler run
    # ------------------------------------------------------------------
    @classmethod
    def from_profile(cls, report, hw_fsw=1.0, ndp_hw_msw=1.0):
        """Build the model from a :class:`ProfileReport` (§3.1 flow)."""
        return cls(
            ndp_hw_fcf=report.device_flash_page_rate,
            host_hw_fcf=report.host_flash_page_rate,
            hw_fsw=hw_fsw,
            hw_cme_host=report.host_memcpy_bandwidth,
            hw_cme_ndp=report.device_memcpy_bandwidth,
            hw_ccf_host=report.host_clock_hz,
            hw_ccf_ndp=report.device_clock_hz,
            hw_ccn_host=report.host_cores,
            hw_ccn_ndp=report.device_cores,
            eval_host=report.host_eval_ops_per_second,
            eval_ndp=report.device_eval_ops_per_second,
            eval_ndp_streaming=(report.device_streaming_ops_per_second
                                or report.device_eval_ops_per_second),
            eval_ndp_index=(report.device_index_ops_per_second
                            or report.device_eval_ops_per_second),
            hw_msh=report.host_memory_bytes,
            hw_mss=report.device_selection_buffer_bytes,
            hw_msj=report.device_join_buffer_bytes,
            ndp_hw_msw=ndp_hw_msw,
            hw_ipl=report.pcie_lanes,
            hw_ipv=report.pcie_version,
            pcie_bandwidth=report.pcie_bandwidth,
            pcie_latency=report.pcie_command_latency,
            flash_page_bytes=report.flash_page_size,
        )

    @classmethod
    def profile(cls, device, host_spec, hw_fsw=1.0, ndp_hw_msw=1.0):
        """Run the profiler against a device + host and build the model."""
        from repro.storage.profiler import HardwareProfiler
        report = HardwareProfiler(device, host_spec).run()
        return cls.from_profile(report, hw_fsw=hw_fsw, ndp_hw_msw=ndp_hw_msw)
