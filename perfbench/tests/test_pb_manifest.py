"""BENCHMARK.json against the registry and the driver's format limits."""

import json
import os
import re

from perfbench import ROOT, metrics
from perfbench.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_manifest_equals_the_registry():
    manifest = _manifest()
    expected = metrics.benchmark_manifest(
        manifest["run_seconds"],
        {name: workload.why for name, workload in WORKLOADS.items()})
    assert manifest == expected


def test_names_units_and_limits():
    manifest = _manifest()
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["perfbench"]
    assert tuple(w["name"] for w in manifest["workloads"]) == \
        metrics.WORKLOADS == tuple(WORKLOADS)
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert isinstance(manifest["run_seconds"], int)
    assert 1 <= manifest["run_seconds"] <= 60
    names = ([w["name"] for w in manifest["workloads"]]
             + [m["name"] for m in manifest["end_to_end"]]
             + [m["name"] for m in manifest["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in manifest["end_to_end"])}]
    size = os.path.getsize(os.path.join(ROOT, "BENCHMARK.json"))
    assert size <= 64 * 1024


def test_every_issue_metric_is_carried_somewhere():
    carried = set(metrics.CONTRACT_END_TO_END) | set(metrics.PER_LAYER)
    assert set(metrics.END_TO_END) <= carried
    for metric in metrics.END_TO_END.values():
        assert set(metric.workloads) <= set(metrics.WORKLOADS)
