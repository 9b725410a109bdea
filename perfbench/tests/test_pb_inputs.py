"""Inputs are a pure function of --seed."""

import pytest

from perfbench.workloads import WORKLOADS
from perfbench.workloads.lsm_mixed import _op_stream


def test_kv_op_stream_is_a_pure_function_of_the_seed():
    first, live = _op_stream(3, 500, 2000)
    again, live_again = _op_stream(3, 500, 2000)
    other, _live = _op_stream(4, 500, 2000)
    assert first == again and live == live_again
    assert first != other
    kinds = [op[0] for op in first]
    shares = {kind: kinds.count(kind) / len(kinds) for kind in set(kinds)}
    assert shares["get"] == pytest.approx(0.45, abs=0.05)
    assert shares["put"] == pytest.approx(0.40, abs=0.05)
    assert shares["delete"] == pytest.approx(0.05, abs=0.03)
    assert shares["scan"] == pytest.approx(0.10, abs=0.03)


@pytest.mark.parametrize("name", ["job_sweep", "job_heavy", "plan_cold",
                                  "sched_cluster"])
def test_op_lists_are_a_pure_function_of_the_seed(name):
    workload = WORKLOADS[name]
    state = workload.setup(5, True)

    def ids(seed):
        return [op_id for op_id, _fn in workload.prepare(state, seed, True)]

    assert ids(5) == ids(5)
    if name.startswith("job_"):
        # The JOB op set is fixed; the seed only orders it.
        assert sorted(ids(5)) == sorted(ids(6))
    if name != "job_heavy":          # two ops can shuffle to the same order
        assert ids(5) != ids(6)
