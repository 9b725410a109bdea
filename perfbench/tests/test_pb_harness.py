"""The pass loop on fake workloads: failures, timeouts, aggregation."""

import json
import time

import pytest

from perfbench import harness, metrics
from perfbench.harness import Failure, Verdict, Workload


class FakeWorkload(Workload):
    """Ops are plain callables; an op is right when it returns its id."""

    name = "fake"

    def __init__(self, ops):
        self._ops = ops

    def setup(self, seed, quick):
        return {}

    def prepare(self, state, seed, quick):
        return list(self._ops)

    def judge(self, state, ops, outcomes):
        verdict = Verdict()
        for (op_id, _fn), outcome in zip(ops, outcomes):
            if isinstance(outcome, Failure):
                verdict.failures[op_id] = outcome.reason
            elif isinstance(outcome, Exception):
                verdict.counts.append((op_id, "refused"))
            else:
                if outcome != op_id:
                    verdict.failures[op_id] = "wrong rows"
                verdict.rows.append((op_id, repr(outcome)))
        return verdict


def _good(op_id):
    return op_id, (lambda: op_id)


def _run(ops, **kwargs):
    return harness.run_workload(FakeWorkload(ops), seconds=0, quick=True,
                                **kwargs)


def test_clean_run_has_no_failed_ops():
    document = _run([_good("a"), _good("b"), _good("c")])
    assert document["failed"] == 0 and document["attempted"] == 3
    assert document["end_to_end"]["failed_ops_share"]["value"] == 0
    assert document["passes"] == 2
    line = json.loads(harness.contract_line(document))
    assert line["correct"] is True
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == set(metrics.CONTRACT_END_TO_END)
    for entry in line["metrics"].values():
        assert set(entry) == {"value", "unit"} and entry["value"] > 0


def test_wrong_rows_raise_failed_ops_share():
    document = _run([_good("a"), ("b", lambda: "not b"), _good("c"),
                     _good("d")])
    assert document["failed"] == 1
    assert document["failures"] == {"b": "wrong rows"}
    assert document["end_to_end"]["failed_ops_share"]["value"] == 0.25
    assert json.loads(harness.contract_line(document))["correct"] is False


def test_timeout_raises_failed_ops_share():
    def runaway():
        time.sleep(5)
        return "slow"

    begin = time.perf_counter()
    document = _run([_good("a"), ("slow", runaway)], op_timeout_s=0.05)
    assert time.perf_counter() - begin < 2
    assert document["failed"] == 1
    assert "timeout" in document["failures"]["slow"]
    assert document["end_to_end"]["failed_ops_share"]["value"] == 0.5


def test_untyped_exception_fails_but_typed_refusal_completes():
    from repro.errors import DeviceOverloadError

    def refuse():
        raise DeviceOverloadError("does not fit the device")

    def crash():
        raise KeyError("bug")

    document = _run([_good("a"), ("refused", refuse), ("crash", crash)])
    assert list(document["failures"]) == ["crash"]
    assert "KeyError" in document["failures"]["crash"]


def test_nondeterministic_outcomes_are_a_failure():
    calls = iter(range(100))

    class Drifting(FakeWorkload):
        def judge(self, state, ops, outcomes):
            verdict = super().judge(state, ops, outcomes)
            verdict.sims.append(("a", repr(next(calls))))
            return verdict

    document = harness.run_workload(Drifting([_good("a")]), seconds=0,
                                    quick=True)
    assert "harness/determinism" in document["failures"]


def test_op_time_is_the_minimum_over_passes():
    delays = iter([0.03, 0.001, 0.02])

    def op():
        time.sleep(next(delays, 0.02))
        return "a"

    class ThreePasses(FakeWorkload):
        pass

    workload = ThreePasses([("a", op)])
    document = harness.run_workload(workload, seconds=0.045, quick=False)
    assert document["passes"] >= 2
    assert document["end_to_end"]["wall_s"]["value"] < 0.01


def test_host_metrics_and_leave_one_out_noise():
    values, used = harness.host_metrics([1_000_000] * 300 + [9_000_000] * 5)
    assert used == 95
    assert values["wall_s"] == pytest.approx(0.345)
    assert values["op_ms_p50"] == pytest.approx(1.0)
    assert values["op_ms_geomean"] > 1.0
    steady = [[100, 200], [100, 200], [100, 200]]
    assert harness.leave_one_out_noise(steady)["wall_s"] == 0
    # One lucky pass: dropping it moves the minimum by a third.
    lucky = [[100, 200], [150, 300], [150, 300]]
    assert harness.leave_one_out_noise(lucky)["wall_s"] == pytest.approx(0.5)
    assert harness.leave_one_out_noise(steady[:2]) == {}
