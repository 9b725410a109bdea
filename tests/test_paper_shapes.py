"""The paper's shapes, asserted on what ``python -m repro experiment``
prints (``repro.bench.experiments``).

One test per figure, table and ablation of the evaluation (§5, plus the
§2.1 / §2.2 / §7 ablations), with generous bands around the paper's
numbers: absolute times are simulated, the claims are who wins and
where the crossovers fall.  The 23-query Fig 12/13 matrix needs
``--runslow``; ``python -m repro survey`` is its runner.
"""

import pytest

import repro.__main__ as cli
from repro.bench.experiments import (JOIN_BUFFER_SIZES, ablation_compaction,
                                     ablation_enterprise,
                                     ablation_join_algorithms,
                                     ablation_join_buffer, classify_matrix,
                                     exp1_stacks_fig11, exp1_table3,
                                     exp3_decisions_fig13,
                                     exp4_nonindexed_fig14,
                                     exp5_insitu_index_fig15,
                                     exp6_split_sweep_fig16,
                                     exp6_table4, exp6_timeline_fig17,
                                     exp_intro_fig2, ext_groupby_offload,
                                     profiler_compute_gap)
from repro.bench.parallel import sweep_job_matrix
from repro.workloads.loader import build_environment

#: One query per JOB family area, spanning 4..14 tables.
FIG12_QUERIES = ["1a", "2d", "3b", "4a", "5c", "6b", "7a", "8c", "8d",
                 "10a", "11a", "13b", "14a", "16b", "17b", "17e", "19d",
                 "21a", "22c", "25b", "28a", "32a", "33c"]


def registered_env(name, index=0):
    """Environment ``index`` of experiment ``name`` as the CLI builds it
    (at the session ``job_env``'s scale and seed)."""
    _experiment, *env_args = cli._EXPERIMENTS[name]
    return build_environment(scale=0.0004, seed=7, **env_args[index])


def test_fig02_intro(job_env):
    # Full NDP is worst, host-only slow, a mid split best.
    times = exp_intro_fig2(job_env)["times"]
    mid = [k for k in times if k.startswith("H") and k != "H0"][0]
    assert times[mid] < times["host-only"], "mid split should beat host"
    assert times["full-ndp"] > times[mid], "full NDP should lose to split"


def test_fig11_stacks(job_env):
    results = exp1_stacks_fig11(job_env)
    for name, row in results.items():
        assert row["hybridndp"] <= row["blk"] * 1.05, name
    # 17b is NDP-favourable: full NDP roughly on par with NATIVE.
    assert results["17b"]["ndp"] <= results["17b"]["native"] * 1.8
    # 8c is compute-heavy: full NDP clearly worse than host.
    assert results["8c"]["ndp"] > results["8c"]["native"]


def test_tab03_intermediates(job_env):
    result = exp1_table3(job_env)
    valid = [e for e in result["rows"] if "error" not in e]
    assert len(valid) >= 5
    # The intermediate count must vary across splits.
    assert len({e["intermediate_rows"] for e in valid}) > 1


@pytest.fixture(scope="module")
def job_matrix(job_env):
    """The Exp-2 strategy matrix, shared by Fig 12 and Fig 13."""
    return sweep_job_matrix(query_names=FIG12_QUERIES, env=job_env)


@pytest.mark.slow
def test_fig12_job_matrix(job_matrix):
    # Paper: hybrid wins or ties in ~47% (up to 4.2x), full NDP best in
    # ~1.7%.
    summary = classify_matrix(job_matrix)
    assert summary["total"] >= 20
    assert summary["green_yellow_pct"] >= 30.0
    assert summary["max_speedup"] >= 1.2
    assert summary["full_ndp_best_pct"] <= 25.0


@pytest.mark.slow
def test_fig13_decisions(job_env, job_matrix):
    # Suitable for a meaningful share, and not perfect: the estimates
    # are sample-based by design (paper: ~31.8% suitable).
    result = exp3_decisions_fig13(job_env, job_matrix)
    assert result["total"] >= 20
    assert result["suitable_pct"] >= 15.0
    assert result["miss"] > 0


def test_fig14_nonindexed(job_env_noindex):
    # Early selection and projection feed an on-device BNL join: NDP
    # beats both host stacks for both projections.
    for label, times in exp4_nonindexed_fig14(job_env_noindex).items():
        assert times["ndp"] < times["blk"], label
        assert times["ndp"] < times["native"], label


def test_fig15_insitu_index(job_env):
    for label, times in exp5_insitu_index_fig15(job_env).items():
        # The forced BNL plan and the optimizer's BNLI plan are two
        # different executions.
        assert times["ndp_bnli"] != times["ndp_bnl"], label
        # BNLI must at least compete with the index-less BNL on device
        # (at simulation scale the 4 KB block granularity does not
        # shrink with the dataset, which blunts BNL's rescan penalty —
        # see EXPERIMENTS.md).
        assert times["ndp_bnli"] <= times["ndp_bnl"] * 1.35, label
        # In-situ index processing keeps the device within reach of the
        # host engine despite the CPU gap.
        assert times["ndp_bnli"] <= times["host"] * 1.5, label


def test_fig16_split_sweep(job_env):
    times = exp6_split_sweep_fig16(job_env, "8c")["times"]
    # Q8c has 7 tables -> block-only, H0..H6, ndp-only = 9 strategies.
    assert len(times) == 9
    hybrid = {k: v for k, v in times.items()
              if k.startswith("H") and v is not None}
    best = min(hybrid, key=hybrid.get)
    assert 0 < int(best[1:]) < 6, f"optimum should be interior, got {best}"
    assert hybrid[best] < times["block-only"]
    assert hybrid[best] < times["ndp-only"]


def test_fig17_timeline(job_env):
    result = exp6_timeline_fig17(job_env, "8d")
    assert result["host_wait_initial"] > 0
    kinds = {(actor, kind) for actor, kind, *_ in result["timeline"]}
    assert {("device", "compute"), ("host", "compute"),
            ("host", "transfer")} <= kinds
    # Overlap: some device compute phase starts no earlier than the
    # host's first compute phase.
    host_compute = [p for p in result["timeline"]
                    if p[0] == "host" and p[1] == "compute"]
    device_compute = [p for p in result["timeline"]
                      if p[0] == "device" and p[1] == "compute"]
    if len(device_compute) > 1:
        assert device_compute[-1][2] >= host_compute[0][2]


def test_tab04_breakdown(job_env):
    result = exp6_table4(job_env, "8d", split_index=2)
    host = result["host_stages"]
    # Setup is negligible; processing dominates the later waits.
    assert host["ndp_setup"] < 5.0
    assert host["processing"] > host["wait_subsequent"]
    device = result["device_operations"]
    assert sum(device.values()) == 0 or (
        abs(sum(device.values()) - 100.0) < 1e-6)


def test_profiler_gap(job_env):
    # Paper §5: 92343 vs 2964 CoreMark it/s (~31x), PCIe 2.0 x8, the
    # device-internal flash path faster than the external one.
    result = profiler_compute_gap(job_env)
    assert 25 <= result["gap"] <= 40
    assert result["internal_page_rate"] > result["external_page_rate"]
    assert 2.5e9 <= result["pcie_bandwidth"] <= 4.0e9


def test_ablation_join_buffer():
    times = ablation_join_buffer(registered_env("join-buffer"))["times"]
    ordered = [times[size] for size in JOIN_BUFFER_SIZES]
    # Shrinking the buffer must never help...
    for larger, smaller in zip(ordered, ordered[1:]):
        assert smaller >= larger * 0.99
    # ...and the smallest buffer must clearly hurt (inner re-scans).
    assert ordered[-1] > 1.5 * ordered[0]


def test_ablation_compaction():
    result = ablation_compaction()
    leveled, tiered = (result["strategies"][name]
                       for name in ("leveled", "tiered"))
    assert tiered["bytes_written"] < leveled["bytes_written"]
    assert tiered["read_amplification"] >= leveled["read_amplification"]
    assert result["same_data"]


def test_ablation_enterprise(job_env):
    result = ablation_enterprise(job_env, registered_env("enterprise", 1))
    consumer, enterprise = result["consumer"], result["enterprise"]
    # The strong device executes the full-NDP plan much faster...
    assert enterprise["ndp-only"] < consumer["ndp-only"]
    # ...and its relative penalty vs host-only shrinks.
    assert (enterprise["ndp-only"] / enterprise["block-only"]
            < consumer["ndp-only"] / consumer["block-only"])


def test_ablation_join_algorithms(job_env):
    times = ablation_join_algorithms(job_env)["times"]
    assert times["optimizer"] <= times["bnlj"] * 1.35
    assert times["nlj"] > 3 * times["bnlj"]


def test_ext_groupby_offload(job_env):
    result = ext_groupby_offload(job_env)
    assert result["same_rows"]
    # The aggregation is size-reducing: on-device execution must at
    # least compete with the native host path...
    assert result["times"]["ndp"] <= result["times"]["native"] * 1.3
    # ...and the device returns a small group table, not the input.
    assert result["groups"]["ndp"] < 40
    assert result["ndp_intermediate_rows"] >= result["groups"]["ndp"]
