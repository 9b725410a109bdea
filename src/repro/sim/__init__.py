"""Deterministic simulated-time kernel.

The cooperative execution model (paper §4) overlaps host and device work.
Rather than measuring Python wall-clock time (which cannot reflect the
COSMOS+ / host hardware gap), execution engines count physical work and the
kernel here advances a simulated clock.  Everything is deterministic.
"""

from repro.sim.clock import SimClock
from repro.sim.events import EventLoop
from repro.sim.kernel import (DEVICE_RESOURCE, HOST_RESOURCE, LINK_RESOURCE,
                              SimContext, device_resource_names)
from repro.sim.resources import BusyResource
from repro.sim.trace import (NULL_TRACER, CounterRecord, InstantRecord,
                             NullTracer, SpanRecord, Tracer, as_tracer)

__all__ = ["SimClock", "EventLoop", "BusyResource", "SimContext",
           "device_resource_names",
           "LINK_RESOURCE", "DEVICE_RESOURCE", "HOST_RESOURCE", "Tracer",
           "NullTracer", "NULL_TRACER", "SpanRecord", "InstantRecord",
           "CounterRecord", "as_tracer"]
