"""compare: verdicts, exact metrics, exit status."""

import io
import json

from perfbench import compare, metrics


def _doc(workload, **values):
    return {"workload": workload, "noise": {},
            "end_to_end": {name: {"value": value,
                                  "unit": metrics.END_TO_END[name].unit}
                           for name, value in values.items()}}


def test_verdicts():
    wall = metrics.END_TO_END["wall_s"]
    assert compare.judge(wall, 2.0, 2.1, None)[1] == "ok"
    assert compare.judge(wall, 2.0, 2.3, None)[1] == "regressed"
    assert compare.judge(wall, 2.0, 1.0, None)[1] == "ok"
    assert compare.judge(wall, 2.0, 2.3, 0.2)[1] == "unresolved"
    assert compare.judge(wall, 2.0, 2.0, 0.2)[1] == "unresolved"
    ratio, _verdict = compare.judge(wall, 2.0, 2.1, None)
    assert ratio == 1.05


def test_simulated_metrics_compare_exactly():
    sim = metrics.END_TO_END["sim_total_s"]
    assert compare.judge(sim, 0.5, 0.5 * (1 + 1e-12), None)[1] == "ok"
    assert compare.judge(sim, 0.5, 0.5001, None)[1] == "regressed"
    assert compare.judge(sim, 0.5, 0.4999, None)[1] == "ok (moved)"
    speedup = metrics.END_TO_END["sim_best_speedup_geomean"]
    assert compare.judge(speedup, 1.3, 1.2, None)[1] == "regressed"


def test_any_rise_in_failed_ops_share_regresses():
    share = metrics.END_TO_END["failed_ops_share"]
    assert compare.judge(share, 0, 0, None)[1] == "ok"
    assert compare.judge(share, 0, 0.01, None)[1] == "regressed"


def test_main_exit_status(tmp_path):
    def write(name, wall):
        documents = {workload: _doc(workload, wall_s=wall,
                                    failed_ops_share=0)
                     for workload in metrics.WORKLOADS}
        path = tmp_path / name
        path.write_text(json.dumps({"workloads": documents}))
        return str(path)

    base, same, slow = write("a", 2.0), write("b", 2.05), write("c", 3.0)
    assert compare.main([base, same]) == 0
    assert compare.main([base, slow]) == 1
    assert compare.main([base]) == 2
    out = io.StringIO()
    assert compare.compare(compare.load_set(base), compare.load_set(slow),
                           stream=out) == len(metrics.WORKLOADS)
    assert "regressed" in out.getvalue()
