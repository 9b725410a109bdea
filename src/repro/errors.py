"""Exception hierarchy for the repro package.

Every subsystem raises subclasses of :class:`ReproError` so callers can
catch library failures without masking programming errors.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class StorageError(ReproError):
    """A storage-device operation failed (bad page, out-of-range read...)."""


class LSMError(ReproError):
    """An LSM-tree invariant was violated or an operation was invalid."""


class SchemaError(ReproError):
    """A relational schema is inconsistent or a record does not match it."""


class CatalogError(ReproError):
    """A table, column, or index was not found in the catalog."""


class ParseError(ReproError):
    """The SQL text could not be parsed."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class PlanError(ReproError):
    """A query plan could not be constructed or is malformed."""


class ExecutionError(ReproError):
    """Query execution failed."""


class ResourceError(ReproError):
    """A simulated resource was used inconsistently (over-subscription)."""


class EventBudgetExceeded(ReproError):
    """A simulation fired more events than its loop's cap allows.

    Not a device limit: the strategy ran out of simulation budget, so
    sweeps record it as ``budget`` rather than as infeasible.
    """

    def __init__(self, message, max_events=0):
        super().__init__(message)
        self.max_events = max_events


class DeviceOverloadError(ExecutionError):
    """The NDP device ran out of memory or buffer slots for the request."""


class AdmissionTimeoutError(DeviceOverloadError):
    """Admission control gave up waiting for device buffers.

    A :class:`DeviceOverloadError` subclass (existing overload handling —
    host placement, queueing — applies unchanged) that additionally names
    *which* query timed out on *which* device so resilience reporting can
    attribute the fallback.
    """

    def __init__(self, message, query=None, device=None, waited=0.0):
        super().__init__(message)
        self.query = query          # query label, when known
        self.device = device        # device spec name / index, when known
        self.waited = waited        # seconds the admission wait would need


class OffloadError(ReproError):
    """An NDP offload precondition was violated."""


class TransientDeviceError(ExecutionError):
    """A device command failed transiently; retrying may succeed.

    Raised by the fault injector for injected NDP command-submission
    failures.  The cooperative executor retries with exponential backoff
    in simulated time instead of failing the strategy outright.
    """


class DeadlineExceededError(ExecutionError):
    """A query blew its simulated-time deadline and was cancelled.

    Carries a partial audit of the work done before cancellation so
    callers can account the wasted effort: ``deadline`` is the budget,
    ``elapsed`` the simulated time actually consumed, and ``partial`` a
    JSON-ready dict of whatever progress the layer that cancelled could
    observe (completed partitions, retries, wasted time...).
    """

    def __init__(self, message, deadline=None, elapsed=None, retries=0,
                 wasted_time=0.0, faults_injected=None, partial=None):
        super().__init__(message)
        self.deadline = deadline
        self.elapsed = elapsed
        self.retries = retries
        self.wasted_time = wasted_time
        self.faults_injected = dict(faults_injected or {})
        self.partial = dict(partial or {})


class ReplanTriggered(ExecutionError):
    """A pipeline-breaker check cancelled the run to re-plan mid-flight.

    Internal control flow of adaptive execution (docs/adaptivity.md):
    the breaker hook observed a cardinality estimate off by more than
    the :class:`~repro.core.planning.ReplanPolicy` threshold and
    cooperatively cancelled the simulation.  ``elapsed`` is the
    cancelled attempt's simulated cost (the price of changing course),
    ``batches_consumed`` how far the host side got.  The adaptive
    driver catches this and restarts the remaining work under the
    revised decision; it escaping to user code is a bug.
    """

    def __init__(self, message, strategy=None, at=0.0, elapsed=0.0,
                 batches_consumed=0, batches_total=0):
        super().__init__(message)
        self.strategy = strategy
        self.at = at
        self.elapsed = elapsed
        self.batches_consumed = batches_consumed
        self.batches_total = batches_total


class RetriesExhaustedError(ExecutionError):
    """An offloaded execution gave up after its bounded retries.

    Carries what the abandoned attempt cost so the caller (``StackRunner``
    mid-query fallback) can account it on the degraded report.
    """

    def __init__(self, message, strategy=None, retries=0, wasted_time=0.0,
                 faults_injected=None):
        super().__init__(message)
        self.strategy = strategy
        self.retries = retries
        self.wasted_time = wasted_time
        self.faults_injected = dict(faults_injected or {})
