"""Deterministic fault injection and the graceful-degradation policy.

A :class:`FaultPlan` composes the fault models that the COSMOS+
substitution makes meaningful — transient NDP command failures, flash
read errors recovered by ECC retries, PCIe lane down-shifts, device DRAM
pressure, and device-core unavailability windows — plus the
:class:`RetryPolicy` the executor degrades under.  Plans are pure data;
all randomness comes from ``random.Random(seed)`` drawn in simulation
order, never from the wall clock, so a seeded chaos run reproduces the
same fault sequence byte-for-byte.

A plan is activated per execution as a :class:`FaultInjector`: the
injector owns the run's RNG and fault counts, and the executor consults
it at well-defined points (command submission, transfer pricing, buffer
admission, device-core dispatch) and passes it to flash read pricing
(``TimingModel.charge(..., injector)``).
Like tracing, fault injection is zero-cost when off — the default
collaborator is the singleton :data:`NULL_INJECTOR` whose ``enabled``
flag lets hot paths skip the fault checks entirely, and a disabled plan
produces byte-identical reports and traces to a run with no plan at all.

See ``docs/robustness.md`` for the model catalogue, the retry/backoff
and admission-control semantics, and the chaos-scenario harness built on
top (:mod:`repro.bench.chaos`).
"""

import random
from dataclasses import dataclass, field

from repro.errors import (AdmissionTimeoutError, ReproError,
                          TransientDeviceError)

#: Trace track carrying fault/degradation instants (see observability doc).
FAULTS_TRACK = "faults"


def _check_probability(name, value):
    if not 0.0 <= value <= 1.0:
        raise ReproError(f"{name} must be a probability in [0, 1], "
                         f"got {value}")


@dataclass(frozen=True)
class FaultWindow:
    """A half-open interval ``[start, end)`` of simulated seconds."""

    start: float
    end: float

    def __post_init__(self):
        if self.start < 0 or self.end < self.start:
            raise ReproError(
                f"fault window [{self.start}, {self.end}) is not a "
                f"non-negative, ordered interval")

    def contains(self, now):
        """Whether ``now`` falls inside the window."""
        return self.start <= now < self.end


def _sorted_windows(windows):
    return sorted(windows, key=lambda window: (window.start, window.end))


@dataclass(frozen=True)
class CommandFaultModel:
    """Transient NDP command-submission failures.

    The first ``fail_first`` submissions of a run fail deterministically
    (the repeatable "exhaust the retries" scenario); after those, each
    submission fails independently with ``probability``.
    """

    probability: float = 0.0
    fail_first: int = 0

    def __post_init__(self):
        _check_probability("command fault probability", self.probability)
        if self.fail_first < 0:
            raise ReproError("fail_first must be non-negative")

    @property
    def active(self):
        """Whether this model can inject anything."""
        return self.probability > 0.0 or self.fail_first > 0


@dataclass(frozen=True)
class FlashFaultModel:
    """Flash read errors recovered by ECC retries (latency only).

    Each read page independently needs an ECC retry with
    ``probability``; every retried page adds ``ecc_retry_latency`` of
    re-sense/decode time to the read.  Data is always recovered — the
    model degrades timing, never correctness.
    """

    probability: float = 0.0
    ecc_retry_latency: float = 150e-6

    def __post_init__(self):
        _check_probability("flash fault probability", self.probability)
        if self.ecc_retry_latency < 0:
            raise ReproError("ECC retry latency must be non-negative")

    @property
    def active(self):
        """Whether this model can inject anything."""
        return self.probability > 0.0 and self.ecc_retry_latency > 0.0


@dataclass(frozen=True)
class LinkFaultModel:
    """PCIe link degradation: lane down-shift over windows.

    Inside each window the link is retrained at reduced width, so every
    transfer priced there takes ``slowdown`` times longer.
    """

    windows: tuple = ()
    slowdown: float = 1.0

    def __post_init__(self):
        if self.slowdown < 1.0:
            raise ReproError("link slowdown must be >= 1.0")

    @property
    def active(self):
        """Whether this model can inject anything."""
        return bool(self.windows) and self.slowdown > 1.0


@dataclass(frozen=True)
class DramFaultModel:
    """Device DRAM pressure: the buffer budget shrinks inside windows.

    Admission control waits (bounded by the retry policy's
    ``admission_timeout``) for a pressure window to pass instead of
    instantly raising :class:`~repro.errors.DeviceOverloadError`.
    """

    windows: tuple = ()
    shrink_bytes: int = 0

    def __post_init__(self):
        if self.shrink_bytes < 0:
            raise ReproError("DRAM shrink must be non-negative")

    @property
    def active(self):
        """Whether this model can inject anything."""
        return bool(self.windows) and self.shrink_bytes > 0


@dataclass(frozen=True)
class CoreFaultModel:
    """Device-core unavailability windows (firmware busy, relay storms).

    While a window is open the NDP core cannot start new work; the lost
    time surfaces as extra ``device_stall`` time in the simulation.
    """

    windows: tuple = ()

    @property
    def active(self):
        """Whether this model can inject anything."""
        return bool(self.windows)


@dataclass(frozen=True)
class SlowDeviceModel:
    """A straggler device: persistent compute-throughput degradation.

    Distinct from hard failure (:class:`CommandFaultModel` storms) and
    from core brownouts (:class:`CoreFaultModel`, which *block* the core):
    inside each window the NDP core still makes progress, just
    ``slowdown`` times slower — the classic sick-but-alive storage node
    that stalls a scatter-gather indefinitely unless the cluster
    speculates (docs/robustness.md, "Stragglers, speculation, and
    deadlines").
    """

    windows: tuple = ()
    slowdown: float = 1.0

    def __post_init__(self):
        if self.slowdown < 1.0:
            raise ReproError("device slowdown must be >= 1.0")

    @property
    def active(self):
        """Whether this model can inject anything."""
        return bool(self.windows) and self.slowdown > 1.0


@dataclass(frozen=True)
class RetryPolicy:
    """How the executor degrades under transient faults.

    ``max_retries`` bounds re-submissions after the first attempt;
    attempt ``n`` (0-based) backs off ``backoff_base * backoff_factor**n``
    simulated seconds before retrying.  ``admission_timeout`` bounds how
    long admission control may wait for device buffers.
    ``wasted_time_budget`` caps the *total* simulated seconds one query
    may burn on abandoned device attempts across any number of cluster
    re-executions — once exceeded, the partition short-circuits to the
    host fallback instead of trying another survivor (``None`` =
    unbounded, the pre-budget behaviour).
    """

    max_retries: int = 3
    backoff_base: float = 5e-4
    backoff_factor: float = 2.0
    admission_timeout: float = 0.05
    wasted_time_budget: float = None

    def __post_init__(self):
        if self.max_retries < 0:
            raise ReproError("max_retries must be non-negative")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise ReproError("backoff must be non-negative and "
                             "non-decreasing")
        if self.admission_timeout < 0:
            raise ReproError("admission timeout must be non-negative")
        if (self.wasted_time_budget is not None
                and self.wasted_time_budget < 0):
            raise ReproError("wasted-time budget must be non-negative")

    def backoff(self, attempt):
        """Backoff before re-submitting after failed attempt ``attempt``."""
        return self.backoff_base * self.backoff_factor ** attempt


@dataclass(frozen=True)
class FaultPlan:
    """A seeded composition of fault models plus the retry policy.

    The default plan injects nothing (``enabled`` is False) and costs
    nothing — executions given a disabled plan are byte-identical to
    executions given no plan at all.
    """

    seed: int = 0
    commands: CommandFaultModel = field(default_factory=CommandFaultModel)
    flash: FlashFaultModel = field(default_factory=FlashFaultModel)
    link: LinkFaultModel = field(default_factory=LinkFaultModel)
    dram: DramFaultModel = field(default_factory=DramFaultModel)
    core: CoreFaultModel = field(default_factory=CoreFaultModel)
    slow: SlowDeviceModel = field(default_factory=SlowDeviceModel)
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    @property
    def enabled(self):
        """Whether any fault model can inject anything."""
        return (self.commands.active or self.flash.active
                or self.link.active or self.dram.active or self.core.active
                or self.slow.active)

    def injector(self):
        """A fresh per-run injector (its own RNG seeded from the plan)."""
        if not self.enabled:
            return NULL_INJECTOR
        return FaultInjector(self)


#: The inject-nothing plan, for explicitness at call sites.
NULL_PLAN = FaultPlan()


class NullFaultInjector:
    """The inject-nothing injector: the default wherever faults are optional.

    ``enabled`` is False so instrumented hot paths skip fault checks
    entirely; the identity-returning methods keep the rare unguarded call
    site exact (no ``+ 0.0`` drift anywhere that matters).
    """

    __slots__ = ()
    enabled = False
    retry = RetryPolicy()

    def check_submission(self, attempt):
        """Never fails a submission."""

    def flash_read_penalty(self, pages):
        """No ECC retries."""
        return 0.0

    def scale_transfer(self, now, seconds):
        """No link degradation."""
        return seconds

    def scale_compute(self, now, seconds):
        """No device slowdown."""
        return seconds

    def core_offline_until(self, now):
        """The core is always available."""
        return now

    def admission_delay(self, needed_bytes, available_bytes, query=None,
                        device=None):
        """No DRAM pressure."""
        return 0.0

    def faults_injected(self):
        """No faults, no counts."""
        return {}


#: Shared no-op injector; ``as_injector(None)`` returns it.
NULL_INJECTOR = NullFaultInjector()


def as_injector(faults):
    """Normalise an optional faults argument to a usable injector.

    Accepts ``None``, a :class:`FaultPlan` (a fresh injector is created)
    or an already-active injector (passed through, so one injector's
    counts can span retry + fallback).
    """
    if faults is None:
        return NULL_INJECTOR
    if isinstance(faults, FaultPlan):
        return faults.injector()
    return faults


class FaultInjector:
    """Active state of one :class:`FaultPlan` during one execution.

    Owns the run's ``random.Random(plan.seed)`` — draws happen in
    simulation order, which is deterministic, so the injected fault
    sequence is a pure function of (plan, execution).  Counts every
    injected fault per model for ``ExecutionReport.faults_injected``.
    """

    enabled = True

    def __init__(self, plan):
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._counts = {}

    @property
    def retry(self):
        """The plan's retry/backoff/admission policy."""
        return self.plan.retry

    def _count(self, kind, n=1):
        self._counts[kind] = self._counts.get(kind, 0) + n

    def faults_injected(self):
        """``{fault_kind: count}`` injected so far, sorted by kind."""
        return {kind: self._counts[kind] for kind in sorted(self._counts)}

    # -- transient NDP command failures --------------------------------
    def check_submission(self, attempt):
        """Raise :class:`TransientDeviceError` if this submission fails.

        ``attempt`` is 0-based; the first ``fail_first`` attempts fail
        deterministically, later ones with the model's probability.
        """
        model = self.plan.commands
        fails = attempt < model.fail_first
        if not fails and model.probability > 0.0:
            fails = self._rng.random() < model.probability
        if fails:
            self._count("transient_command")
            raise TransientDeviceError(
                f"device NACKed NDP command submission "
                f"(attempt {attempt + 1})")

    # -- flash read errors (ECC retry latency) -------------------------
    def flash_read_penalty(self, pages):
        """Extra seconds of ECC retries for a ``pages``-page flash read.

        The expected retried-page count is taken deterministically; only
        the fractional remainder is resolved with one RNG draw, keeping
        draw counts independent of read sizes.
        """
        model = self.plan.flash
        if not model.active:
            return 0.0
        expected = pages * model.probability
        retried = int(expected)
        if self._rng.random() < expected - retried:
            retried += 1
        if retried == 0:
            return 0.0
        self._count("flash_ecc_retry", retried)
        return retried * model.ecc_retry_latency

    # -- PCIe link degradation -----------------------------------------
    def scale_transfer(self, now, seconds):
        """Transfer duration for a transfer starting at ``now``."""
        model = self.plan.link
        if model.active and any(window.contains(now)
                                for window in model.windows):
            self._count("link_degraded")
            return seconds * model.slowdown
        return seconds

    # -- straggler device (compute slowdown) ---------------------------
    def scale_compute(self, now, seconds):
        """Device-compute duration for work starting at ``now``.

        Inside a :class:`SlowDeviceModel` window the NDP core runs
        ``slowdown`` times slower; the work still completes (unlike a
        :class:`CoreFaultModel` outage, which blocks it entirely).
        """
        model = self.plan.slow
        if model.active and any(window.contains(now)
                                for window in model.windows):
            self._count("slow_device")
            return seconds * model.slowdown
        return seconds

    # -- device DRAM pressure (admission control) ----------------------
    def admission_delay(self, needed_bytes, available_bytes, query=None,
                        device=None):
        """Seconds admission control must wait before reserving buffers.

        Walks the pressure windows from time zero: while the shrunk
        budget cannot host the pipeline, admission moves to the window's
        end.  Raises :class:`AdmissionTimeoutError` (a
        :class:`DeviceOverloadError`) naming the query and device when
        the wait would exceed the retry policy's ``admission_timeout``.
        """
        model = self.plan.dram
        if not model.active:
            return 0.0
        now = 0.0
        for window in _sorted_windows(model.windows):
            if not window.contains(now):
                continue
            if needed_bytes <= available_bytes - model.shrink_bytes:
                break
            now = window.end
        if now > self.retry.admission_timeout:
            who = f"{query}: " if query else ""
            where = f" on {device}" if device else ""
            raise AdmissionTimeoutError(
                f"{who}device DRAM pressure{where} holds "
                f"{model.shrink_bytes} bytes until t={now:.6f}s, past the "
                f"{self.retry.admission_timeout}s admission timeout",
                query=query, device=device, waited=now)
        if now > 0.0:
            self._count("dram_admission_wait")
        return now

    # -- device-core unavailability ------------------------------------
    def core_offline_until(self, now):
        """Earliest time >= ``now`` the NDP core can start new work."""
        model = self.plan.core
        until = now
        for window in _sorted_windows(model.windows):
            if window.contains(until):
                until = window.end
        if until > now:
            self._count("core_offline")
        return until

    def __repr__(self):
        return (f"FaultInjector(seed={self.plan.seed}, "
                f"injected={self.faults_injected()})")
