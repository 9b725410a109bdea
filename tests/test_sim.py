"""Tests for the simulated-time kernel (clock, events, resources)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EventBudgetExceeded, ReproError, ResourceError
from repro.sim import BusyResource, EventLoop, SimClock, Tracer


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(start=5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ReproError):
            SimClock(start=-1.0)

    def test_advance(self):
        clock = SimClock()
        assert clock.advance(1.5) == 1.5
        assert clock.advance(0.5) == 2.0

    def test_advance_negative_rejected(self):
        clock = SimClock()
        with pytest.raises(ReproError):
            clock.advance(-0.1)

    def test_advance_to_moves_forward(self):
        clock = SimClock()
        clock.advance_to(3.0)
        assert clock.now == 3.0

    def test_advance_to_never_rewinds(self):
        clock = SimClock(start=10.0)
        clock.advance_to(3.0)
        assert clock.now == 10.0

    def test_reset(self):
        clock = SimClock(start=4.0)
        clock.reset()
        assert clock.now == 0.0


class TestEventLoop:
    def test_events_fire_in_time_order(self):
        clock = SimClock()
        loop = EventLoop(clock)
        fired = []
        loop.schedule_at(2.0, lambda: fired.append("b"))
        loop.schedule_at(1.0, lambda: fired.append("a"))
        loop.schedule_at(3.0, lambda: fired.append("c"))
        loop.run()
        assert fired == ["a", "b", "c"]
        assert clock.now == 3.0

    def test_ties_break_by_insertion_order(self):
        loop = EventLoop(SimClock())
        fired = []
        for name in "xyz":
            loop.schedule_at(1.0, lambda n=name: fired.append(n))
        loop.run()
        assert fired == ["x", "y", "z"]

    def test_schedule_after_uses_relative_delay(self):
        clock = SimClock(start=5.0)
        loop = EventLoop(clock)
        seen = []
        loop.schedule_after(2.5, lambda: seen.append(clock.now))
        loop.run()
        assert seen == [7.5]

    def test_scheduling_in_the_past_rejected(self):
        clock = SimClock(start=5.0)
        loop = EventLoop(clock)
        with pytest.raises(ReproError):
            loop.schedule_at(1.0, lambda: None)

    def test_nan_time_rejected(self):
        loop = EventLoop(SimClock())
        with pytest.raises(ReproError, match="NaN"):
            loop.schedule_at(float("nan"), lambda: None)
        with pytest.raises(ReproError, match="NaN"):
            loop.schedule_after(float("nan"), lambda: None)
        assert loop.pending == 0

    def test_actions_may_schedule_more_events(self):
        clock = SimClock()
        loop = EventLoop(clock)
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                loop.schedule_after(1.0, lambda: chain(n + 1))

        loop.schedule_at(0.0, lambda: chain(0))
        loop.run()
        assert fired == [0, 1, 2, 3]
        assert clock.now == 3.0

    def test_runaway_guard(self):
        loop = EventLoop(SimClock())

        def forever():
            loop.schedule_after(1.0, forever)

        loop.schedule_at(0.0, forever)
        with pytest.raises(EventBudgetExceeded) as raised:
            loop.run(max_events=100)
        assert isinstance(raised.value, ReproError)
        assert raised.value.max_events == 100 == loop.fired

    def test_step_returns_none_on_empty_queue(self):
        assert EventLoop(SimClock()).step() is None

    def test_counters(self):
        loop = EventLoop(SimClock())
        loop.schedule_at(1.0, lambda: None)
        loop.schedule_at(2.0, lambda: None)
        assert loop.pending == 2
        loop.run()
        assert loop.fired == 2
        assert loop.pending == 0


class TestBusyResource:
    def test_idle_resource_serves_immediately(self):
        resource = BusyResource("pcie")
        begin, end = resource.acquire(1.0, 0.5)
        assert (begin, end) == (1.0, 1.5)

    def test_queued_request_waits(self):
        resource = BusyResource("pcie")
        resource.acquire(0.0, 2.0)
        begin, end = resource.acquire(1.0, 1.0)
        assert (begin, end) == (2.0, 3.0)
        assert resource.wait_time == 1.0

    def test_busy_time_accumulates(self):
        resource = BusyResource("core")
        resource.acquire(0.0, 1.0)
        resource.acquire(5.0, 2.0)
        assert resource.busy_time == 3.0
        assert resource.requests == 2

    def test_utilization(self):
        resource = BusyResource("core")
        resource.acquire(0.0, 2.0)
        assert resource.utilization(4.0) == 0.5
        assert resource.utilization(0.0) == 0.0

    def test_utilization_not_clamped_oversubscription_raises(self):
        # Regression: the old clamp to 1.0 hid double-booking bugs.
        resource = BusyResource("core")
        resource.acquire(0.0, 10.0)
        with pytest.raises(ResourceError):
            resource.utilization(5.0)

    def test_utilization_full_horizon_is_exactly_one(self):
        resource = BusyResource("core")
        resource.acquire(0.0, 5.0)
        assert resource.utilization(5.0) == 1.0

    def test_stats(self):
        resource = BusyResource("link")
        resource.acquire(0.0, 2.0)
        resource.acquire(1.0, 1.0)
        stats = resource.stats(4.0)
        assert stats["busy_time"] == 3.0
        assert stats["wait_time"] == 1.0
        assert stats["requests"] == 2
        assert stats["utilization"] == pytest.approx(0.75)

    def test_reset(self):
        resource = BusyResource("core")
        resource.acquire(0.0, 2.0)
        resource.reset()
        assert resource.free_at == 0.0
        assert resource.busy_time == 0.0


# Bounded, finite floats: wide enough to exercise queueing and idle
# gaps, narrow enough that float rounding stays far from the 1e-9
# utilization tolerance.
_starts = st.floats(min_value=0.0, max_value=1e6,
                    allow_nan=False, allow_infinity=False)
_durations = st.floats(min_value=0.0, max_value=1e3,
                       allow_nan=False, allow_infinity=False)
_workloads = st.lists(st.tuples(_starts, _durations),
                      min_size=1, max_size=30)


class TestBusyResourceProperties:
    @given(workload=_workloads)
    @settings(max_examples=60, deadline=None)
    def test_busy_intervals_never_overlap(self, workload):
        tracer = Tracer()
        resource = BusyResource("res", tracer=tracer)
        for start, duration in workload:
            begin, end = resource.acquire(start, duration)
            assert begin >= start
            assert end == begin + duration
        busy = [s for s in tracer.spans if s.track == "resource/res"]
        assert len(busy) == len(workload)
        for a, b in zip(busy, busy[1:]):
            assert b.start >= a.end

    @given(workload=_workloads)
    @settings(max_examples=60, deadline=None)
    def test_utilization_never_exceeds_one(self, workload):
        resource = BusyResource("res")
        for start, duration in workload:
            resource.acquire(start, duration)
        horizon = resource.free_at
        # Must not raise ResourceError: disjoint busy intervals inside
        # [0, horizon] can never oversubscribe the horizon.
        assert resource.utilization(horizon) <= 1.0 + 1e-9

    @given(workload=_workloads)
    @settings(max_examples=60, deadline=None)
    def test_accounting_matches_requests(self, workload):
        tracer = Tracer()
        resource = BusyResource("res", tracer=tracer)
        waits = 0.0
        for start, duration in workload:
            begin, _ = resource.acquire(start, duration)
            waits += begin - start
        assert resource.busy_time == pytest.approx(
            sum(duration for _, duration in workload))
        assert resource.wait_time == pytest.approx(waits)
        queue = [s for s in tracer.spans
                 if s.track == "resource/res/queue"]
        assert sum(s.duration for s in queue) == pytest.approx(waits)


class TestEventLoopProperties:
    @given(times=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                    allow_nan=False,
                                    allow_infinity=False),
                          min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_drain_order_is_stable_sort_by_time(self, times):
        """Same-timestamp events fire in insertion order, so the drain
        order is exactly a stable sort regardless of schedule order."""
        loop = EventLoop(SimClock())
        fired = []
        for index, time in enumerate(times):
            loop.schedule_at(time, lambda i=index: fired.append(i))
        loop.run()
        expected = [index for index, _ in
                    sorted(enumerate(times), key=lambda item: item[1])]
        assert fired == expected

    @given(times=st.lists(st.floats(min_value=0.0, max_value=1e3,
                                    allow_nan=False,
                                    allow_infinity=False),
                          min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_clock_ends_at_latest_event(self, times):
        clock = SimClock()
        loop = EventLoop(clock)
        for time in times:
            loop.schedule_at(time, lambda: None)
        loop.run()
        assert clock.now == max(times)
        assert loop.fired == len(times)
