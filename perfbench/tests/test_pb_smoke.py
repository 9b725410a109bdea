"""--quick smoke of every workload, untraced and traced."""

import json

import pytest

from perfbench import harness, metrics, tracing
from perfbench.workloads import WORKLOADS


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_untraced(name):
    document = harness.run_workload(WORKLOADS[name], seed=7, seconds=0,
                                    quick=True)
    assert document["failed"] == 0, document["failures"]
    line = json.loads(harness.contract_line(document))
    assert line["correct"] and line["attempted"] >= 1
    assert set(line["metrics"]) == set(metrics.CONTRACT_END_TO_END)
    assert all(entry["value"] > 0 for entry in line["metrics"].values())
    for metric in metrics.END_TO_END.values():
        present = metric.name in document["end_to_end"]
        assert present == (name in metric.workloads), metric.name


@pytest.mark.parametrize("name", ["job_sweep", "sched_cluster",
                                  "lsm_mixed"])
def test_quick_traced(name, tmp_path):
    trace_file = tmp_path / "trace.json"
    document = harness.run_workload(WORKLOADS[name], seed=7, seconds=0,
                                    traced=True, quick=True,
                                    trace_out=str(trace_file))
    assert not tracing.installed()
    # Traced rows, simulated times and counts equal the untraced ones.
    assert document["failed"] == 0, document["failures"]
    line = json.loads(harness.contract_line(document))
    assert set(line["metrics"]) == set(metrics.PER_LAYER)
    layer = {key: entry["value"] for key, entry in line["metrics"].items()}
    assert layer["harness.trace_spans"] > 0
    assert layer["lsm.get_calls"] > 0 and layer["lsm.self_s"] > 0
    attributed = sum(layer[f"{name}.self_s"] for name in metrics.LAYERS)
    assert attributed <= layer["harness.traced_wall_s"] * 1.001
    events = json.loads(trace_file.read_text())["traceEvents"]
    assert sum(event["ph"] == "X" for event in events) == \
        layer["harness.trace_spans"]
    for name_, entry in document["end_to_end"].items():
        if name_ in metrics.PER_LAYER:
            assert layer[name_] == entry["value"]
