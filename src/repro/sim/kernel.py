"""The simulation kernel: one clock, one loop, one resource set.

A :class:`SimContext` bundles the handles every simulated execution
needs — the :class:`~repro.sim.SimClock`, the
:class:`~repro.sim.EventLoop`, the host CPU and one PCIe link + NDP core
:class:`~repro.sim.BusyResource` pair per device.  Every driver builds
one and runs staged splits on it (docs/architecture.md, "One split
lifecycle"): a serial run owns a fresh one-device kernel, the workload
scheduler admits many queries onto one, the scatter-gather executor
starts one split per device — so contention shows up as queueing delay
on the shared resources instead of being invisible.
"""

from dataclasses import dataclass

from repro.sim.clock import SimClock
from repro.sim.events import EventLoop
from repro.sim.resources import BusyResource
from repro.sim.trace import as_tracer

#: Resource names used in ``ExecutionReport.resource_stats`` / timelines.
LINK_RESOURCE = "pcie_link"
DEVICE_RESOURCE = "device_core1"
HOST_RESOURCE = "host_cpu"


def device_resource_names(index):
    """``(link_name, core_name)`` for device ``index`` of a cluster."""
    return (f"{LINK_RESOURCE}[{index}]", f"{DEVICE_RESOURCE}[{index}]")


@dataclass
class SimContext:
    """One simulated machine: clock, event loop, host CPU, device pairs.

    ``links[i]`` / ``cores[i]`` are device ``i``'s PCIe link and NDP
    core.  :meth:`view` projects a multi-device kernel down to one
    device, which is what a split simulation runs against: it shares
    the clock, loop and host CPU, so per-device contention and
    utilization fall out of the one timeline.
    """

    clock: SimClock
    loop: EventLoop
    cpu: BusyResource
    links: list
    cores: list

    @classmethod
    def fresh(cls, n_devices=None, tracer=None):
        """A new kernel at time zero.

        Without ``n_devices`` this is the one-device machine with the
        plain resource names (``pcie_link`` / ``device_core1``); with it,
        ``n_devices`` pairs named ``pcie_link[i]`` / ``device_core1[i]``.
        """
        if n_devices is None:
            names = [(LINK_RESOURCE, DEVICE_RESOURCE)]
        elif n_devices < 1:
            raise ValueError("a kernel needs at least one device")
        else:
            names = [device_resource_names(i) for i in range(n_devices)]
        tracer = as_tracer(tracer)
        clock = SimClock()
        return cls(
            clock=clock,
            loop=EventLoop(clock, tracer=tracer),
            cpu=BusyResource(HOST_RESOURCE, tracer=tracer),
            links=[BusyResource(link, tracer=tracer) for link, _ in names],
            cores=[BusyResource(core, tracer=tracer) for _, core in names],
        )

    @property
    def n_devices(self):
        """How many devices share this kernel."""
        return len(self.links)

    @property
    def link(self):
        """The PCIe link of a one-device kernel (or :meth:`view`)."""
        (link,) = self.links
        return link

    @property
    def core(self):
        """The NDP core of a one-device kernel (or :meth:`view`)."""
        (core,) = self.cores
        return core

    def view(self, index):
        """Device ``index``'s slice of the kernel: same clock/loop/CPU."""
        return SimContext(clock=self.clock, loop=self.loop, cpu=self.cpu,
                          links=[self.links[index]],
                          cores=[self.cores[index]])

    def least_loaded(self, devices, candidates=None):
        """Index of the device the next offload should land on.

        Earliest-free NDP core first (work committed to the future is
        what the offload will wait behind), fewest reserved DRAM bytes
        of ``devices[i]`` second, lowest index last — a deterministic
        total order.  ``candidates`` restricts the choice.
        """
        if candidates is None:
            candidates = range(self.n_devices)
        return min(candidates,
                   key=lambda i: (self.cores[i].free_at,
                                  devices[i].reserved_bytes, i))

    @property
    def now(self):
        """Current simulated time."""
        return self.clock.now

    def resources(self):
        """All busy resources: per-device (link, core) pairs, then CPU."""
        out = []
        for link, core in zip(self.links, self.cores):
            out.extend((link, core))
        out.append(self.cpu)
        return tuple(out)

    @property
    def horizon(self):
        """Latest simulated instant any resource is booked until."""
        return max(self.clock.now,
                   *(resource.free_at for resource in self.resources()))

    def resource_stats(self, horizon=None):
        """``{name: stats}`` for all resources over ``[0, horizon]``."""
        if horizon is None:
            horizon = self.horizon
        return {resource.name: resource.stats(horizon)
                for resource in self.resources()}
