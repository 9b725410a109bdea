"""Device buffer-reservation accounting (repro.storage.device).

Regression suite for the release-by-equality bug: two pipelines with the
same operator shape are *equal* frozen dataclasses, so releasing one of
them twice used to double-decrement ``reserved_bytes`` and silently
corrupt the budget.  Reservations are now tracked by device-issued
token, double/foreign releases fail loudly, and the accounting can never
go negative — which the interleaving property test hammers on.

The second half covers the cooperative-cancellation accounting added
for deadlines and speculative execution: truncating a
:class:`~repro.sim.BusyResource` booking must never corrupt busy time
or touch another caller's interval, and cancelling an in-flight
:class:`~repro.engine.cooperative.PreparedSplit` at *any* point of its
life cycle must leave no resource booked past the cancel instant and no
DRAM reservation live.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.context import ExecutionContext
from repro.engine.stacks import Stack
from repro.errors import (DeadlineExceededError, DeviceOverloadError,
                          ReplanTriggered, StorageError)
from repro.sim import BusyResource, SimContext
from repro.storage.device import SmartStorageDevice
from repro.workloads.job_queries import query


def _device():
    return SmartStorageDevice()


class TestReleaseIdentity:
    def test_double_release_fails_loudly(self):
        device = _device()
        reservation = device.reserve_pipeline(2, 1, 1)
        device.release_pipeline(reservation)
        with pytest.raises(StorageError):
            device.release_pipeline(reservation)
        assert device.reserved_bytes == 0

    def test_same_shape_reservations_are_distinct(self):
        # The original bug: equal dataclasses aliased each other in a
        # list-based `remove`, so releasing A twice freed B's bytes.
        device = _device()
        first = device.reserve_pipeline(2, 1, 1)
        second = device.reserve_pipeline(2, 1, 1)
        assert first == second          # equal shapes...
        assert first is not second      # ...but distinct reservations
        device.release_pipeline(first)
        with pytest.raises(StorageError):
            device.release_pipeline(first)
        assert device.reserved_bytes == second.total_bytes
        device.release_pipeline(second)
        assert device.reserved_bytes == 0

    def test_foreign_reservation_rejected(self):
        ours = _device()
        theirs = _device()
        reservation = theirs.reserve_pipeline(1)
        with pytest.raises(StorageError):
            ours.release_pipeline(reservation)
        assert ours.reserved_bytes == 0
        assert theirs.reserved_bytes == reservation.total_bytes

    def test_release_restores_budget(self):
        device = _device()
        reservation = device.reserve_pipeline(3, 2, 2, 1)
        assert device.available_bytes == (device.buffer_budget
                                          - reservation.total_bytes)
        device.release_pipeline(reservation)
        assert device.available_bytes == device.buffer_budget


@st.composite
def _ops(draw):
    """A sequence of interleaved reserve/release operations.

    Each element is either a pipeline shape to reserve or the index of
    an earlier op whose reservation to release (skipped when already
    released — and sometimes deliberately *not* skipped, to exercise
    the double-release rejection).
    """
    n = draw(st.integers(min_value=1, max_value=24))
    ops = []
    for i in range(n):
        if i and draw(st.booleans()):
            ops.append(("release", draw(st.integers(0, i - 1)),
                        draw(st.booleans())))
        else:
            ops.append(("reserve",
                        draw(st.integers(0, 6)), draw(st.integers(0, 4)),
                        draw(st.integers(0, 4)), draw(st.integers(0, 1))))
    return ops


class TestInterleavingProperty:
    @settings(max_examples=200, deadline=None)
    @given(_ops())
    def test_accounting_never_corrupts(self, ops):
        device = _device()
        reservations = {}    # op index -> reservation (live or released)
        live = set()         # indices with a live reservation
        for index, op in enumerate(ops):
            if op[0] == "reserve":
                _, sel, sec, joins, gbs = op
                try:
                    reservations[index] = device.reserve_pipeline(
                        sel, sec, joins, gbs)
                    live.add(index)
                except DeviceOverloadError:
                    pass     # over budget: correctly refused
            else:
                _, target, force_double = op
                reservation = reservations.get(target)
                if reservation is None:
                    continue
                if target in live:
                    device.release_pipeline(reservation)
                    live.discard(target)
                elif force_double:
                    # Double release must fail loudly, not corrupt.
                    with pytest.raises(StorageError):
                        device.release_pipeline(reservation)
            expected = sum(reservations[i].total_bytes for i in live)
            assert device.reserved_bytes == expected
            assert 0 <= device.reserved_bytes <= device.buffer_budget
        for index in live:
            device.release_pipeline(reservations[index])
        assert device.reserved_bytes == 0


@st.composite
def _resource_timeline(draw):
    """Interleaved ``acquire``/``truncate`` calls with arbitrary times."""
    n = draw(st.integers(min_value=1, max_value=16))
    finite = dict(allow_nan=False, allow_infinity=False)
    ops = []
    for _ in range(n):
        if draw(st.booleans()):
            ops.append(("acquire",
                        draw(st.floats(min_value=0.0, max_value=10.0,
                                       **finite)),
                        draw(st.floats(min_value=0.0, max_value=5.0,
                                       **finite))))
        else:
            ops.append(("truncate",
                        draw(st.floats(min_value=0.0, max_value=20.0,
                                       **finite))))
    return ops


class TestTruncateProperty:
    """``BusyResource.truncate`` reclaims only the in-flight tail.

    The model tracks every interval the resource actually served; after
    any interleaving of acquisitions and truncations, busy time must
    equal the sum of served intervals, earlier callers' bookings must be
    untouched, and the resource can never end up over-subscribed.
    """

    @settings(max_examples=200, deadline=None)
    @given(_resource_timeline())
    def test_truncate_never_corrupts_busy_time(self, ops):
        resource = BusyResource("prop")
        served = []        # [begin, end] intervals actually served
        for op in ops:
            if op[0] == "acquire":
                _, start, duration = op
                free_before = resource.free_at
                begin, end = resource.acquire(start, duration)
                assert begin == max(start, free_before)
                assert end == begin + duration
                served.append([begin, end])
            else:
                _, now = op
                in_flight = (served
                             and served[-1][0] <= now < resource.free_at)
                expected = resource.free_at - now if in_flight else 0.0
                reclaimed = resource.truncate(now)
                assert reclaimed == pytest.approx(expected, abs=1e-12)
                if in_flight:
                    served[-1][1] = now
                    assert resource.free_at == now
            total = sum(end - begin for begin, end in served)
            assert resource.busy_time == pytest.approx(total, abs=1e-9)
            assert resource.busy_time >= -1e-12
            horizon = max(resource.free_at, 1e-9)
            assert resource.utilization(horizon) <= 1.0 + 1e-9


@pytest.fixture(scope="module")
def staged_split(job_env):
    """The 1a hybrid plan, its deepest split, and its serial makespan."""
    plan = job_env.runner.plan(query("1a"))
    split = plan.table_count - 1
    report = job_env.run(plan, Stack.HYBRID, split_index=split)
    return plan, split, report.total_time


class TestCancellationProperty:
    """Cancelling a prepared split leaks neither DRAM nor resource time.

    For any cancel instant — mid-flight or after completion — the
    device pipeline reservation must be released, and a mid-flight
    cancel must leave every kernel resource free no later than the
    cancel instant (the truncated tail is given back).
    """

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=0.05, max_value=1.2,
                     allow_nan=False, allow_infinity=False))
    def test_cancel_releases_reservation_and_resources(
            self, job_env, staged_split, fraction):
        plan, split, total = staged_split
        reserved_before = job_env.device.reserved_bytes
        cancel_at = fraction * total

        kernel = SimContext.fresh()
        prepared = job_env.runner.cooperative.prepare_split(
            plan, split, ExecutionContext(), kernel=kernel,
            trace_label="cancel-prop")
        assert job_env.device.reserved_bytes > reserved_before
        prepared.start(0.0)
        kernel.loop.schedule_at(
            cancel_at, lambda: prepared.cancel(cancel_at, reason="prop"),
            label="cancel")
        kernel.loop.run()

        # The reservation is never live afterwards, cancelled or not.
        assert job_env.device.reserved_bytes == reserved_before
        if prepared.cancelled:
            for resource in (prepared.link, prepared.core, prepared.cpu):
                assert resource.free_at <= cancel_at + 1e-9, resource
        else:
            # Cancel arrived after completion: result must be intact.
            assert prepared.completed
            assert prepared.result is not None

    def test_double_cancel_is_idempotent(self, job_env, staged_split):
        plan, split, total = staged_split
        reserved_before = job_env.device.reserved_bytes
        kernel = SimContext.fresh()
        prepared = job_env.runner.cooperative.prepare_split(
            plan, split, ExecutionContext(), kernel=kernel,
            trace_label="cancel-twice")
        prepared.start(0.0)
        cancel_at = 0.25 * total
        kernel.loop.schedule_at(
            cancel_at, lambda: prepared.cancel(cancel_at, reason="first"),
            label="cancel")
        kernel.loop.run()
        assert prepared.cancelled
        assert prepared.cancel(total, reason="second") is False
        assert job_env.device.reserved_bytes == reserved_before

    @pytest.mark.parametrize("reason", ["deadline", "replan"])
    def test_serial_cancel_releases_exactly_once(
            self, job_env, staged_split, monkeypatch, reason):
        # run_split drives the same staged lifecycle: a deadline or a
        # breaker-hook cancel must release the pipeline once, not zero
        # times (leak) and not twice (double-release StorageError).
        plan, split, total = staged_split
        ndp = job_env.runner.ndp_engine
        released = []
        release = ndp.release
        monkeypatch.setattr(
            ndp, "release",
            lambda execution: (released.append(execution),
                               release(execution))[1])
        reserved_before = job_env.device.reserved_bytes
        cooperative = job_env.runner.cooperative
        if reason == "deadline":
            with pytest.raises(DeadlineExceededError):
                cooperative.run_split(
                    plan, split, ExecutionContext(deadline=0.4 * total))
        else:
            with pytest.raises(ReplanTriggered) as excinfo:
                cooperative.run_split(
                    plan, split,
                    breaker_hook=lambda split, i: split.cancel(
                        split.clock.now, reason="replan"))
            assert excinfo.value.elapsed > 0.0
        assert len(released) == 1
        assert job_env.device.reserved_bytes == reserved_before
