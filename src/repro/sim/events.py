"""A small discrete-event loop.

Used by the cooperative executor to interleave host- and device-side
progress.  Events fire in timestamp order; ties break by insertion order so
runs are fully deterministic.  The heap holds plain ``(time, seq, action,
label)`` tuples: ``seq`` is unique, so ``action`` is never compared.
"""

import heapq
import itertools
import math

from repro.errors import EventBudgetExceeded, ReproError
from repro.sim.trace import as_tracer

#: Events one :meth:`EventLoop.run` fires at most, guarding against
#: runaway loops.
MAX_EVENTS = 1_000_000


class EventLoop:
    """Timestamp-ordered event loop over a shared :class:`SimClock`.

    Actions are callables invoked with no arguments; they may schedule
    further events.  ``run()`` drains the queue and returns the final time.

    With a :class:`~repro.sim.trace.Tracer` attached, every fired event
    is recorded as an instant on the ``events`` track.
    """

    def __init__(self, clock, tracer=None):
        self._clock = clock
        self.tracer = as_tracer(tracer)
        self._queue = []
        self._counter = itertools.count()
        self._fired = 0

    @property
    def fired(self):
        """Number of events executed so far."""
        return self._fired

    @property
    def pending(self):
        """Number of events still queued."""
        return len(self._queue)

    def schedule_at(self, time, action, label=""):
        """Schedule ``action`` at absolute simulated ``time``."""
        if not time >= self._clock.now:
            if math.isnan(time):
                raise ReproError("cannot schedule event at a NaN time")
            raise ReproError(
                f"cannot schedule event at {time} before now={self._clock.now}"
            )
        heapq.heappush(self._queue,
                       (time, next(self._counter), action, label))

    def schedule_after(self, delay, action, label=""):
        """Schedule ``action`` after ``delay`` seconds of simulated time."""
        if delay < 0:
            raise ReproError(f"negative delay {delay}")
        return self.schedule_at(self._clock.now + delay, action, label=label)

    def step(self):
        """Execute the next event; return its ``(time, seq, action,
        label)`` tuple, or None if the queue is empty."""
        if not self._queue:
            return None
        event = heapq.heappop(self._queue)
        time, seq, action, label = event
        self._clock.advance_to(time)
        self._fired += 1
        if self.tracer.enabled:
            self.tracer.instant("events", label or "event", time,
                                args={"seq": seq})
        action()
        return event

    def run(self, max_events=None):
        """Drain the queue; returns the final time.

        Raises :class:`~repro.errors.EventBudgetExceeded` when events
        are still queued after ``max_events`` (default
        :data:`MAX_EVENTS`) have fired.
        """
        if max_events is None:
            max_events = MAX_EVENTS
        while self._queue:
            if self._fired >= max_events:
                raise EventBudgetExceeded(
                    f"event loop exceeded {max_events} events",
                    max_events=max_events)
            self.step()
        return self._clock.now
