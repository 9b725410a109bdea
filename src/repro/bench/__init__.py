"""Benchmark harness: one experiment per paper figure/table.

Each ``exp*`` / ``ablation_*`` function reproduces a concrete artifact
of the paper's evaluation (§5) and returns plain data structures, which
``python -m repro experiment <name>`` prints as JSON; ``reporting``
renders the paper-style tables the CLI prints.
"""

from repro.bench.adaptive import adaptive_matrix, strategy_sweep
from repro.bench.chaos import (SCENARIOS, chaos_matrix, run_chaos,
                               scenario_plan)
from repro.bench.cluster import cluster_matrix, run_cluster_benchmark
from repro.bench.concurrency import (concurrency_matrix, percentile,
                                     run_concurrency_benchmark)
from repro.bench.fuzz import (FuzzFailure, FuzzHarness, FuzzReport,
                              replay_failures, shrink_sql, write_corpus)
from repro.bench.experiments import (
    ablation_compaction,
    ablation_enterprise,
    ablation_join_algorithms,
    ablation_join_buffer,
    classify_matrix,
    exp_intro_fig2,
    exp1_stacks_fig11,
    exp1_table3,
    exp3_decisions_fig13,
    exp4_nonindexed_fig14,
    exp5_insitu_index_fig15,
    exp6_split_sweep_fig16,
    exp6_timeline_fig17,
    exp6_table4,
    ext_groupby_offload,
    profiler_compute_gap,
)
from repro.bench.parallel import strategy_times, sweep_job_matrix
from repro.bench.reporting import format_table, render_matrix_summary

__all__ = [
    "adaptive_matrix",
    "strategy_sweep",
    "strategy_times",
    "sweep_job_matrix",
    "SCENARIOS",
    "scenario_plan",
    "run_chaos",
    "chaos_matrix",
    "run_concurrency_benchmark",
    "concurrency_matrix",
    "run_cluster_benchmark",
    "cluster_matrix",
    "FuzzFailure",
    "FuzzHarness",
    "FuzzReport",
    "replay_failures",
    "shrink_sql",
    "write_corpus",
    "percentile",
    "exp_intro_fig2",
    "exp1_stacks_fig11",
    "exp1_table3",
    "exp3_decisions_fig13",
    "exp4_nonindexed_fig14",
    "exp5_insitu_index_fig15",
    "exp6_split_sweep_fig16",
    "exp6_timeline_fig17",
    "exp6_table4",
    "profiler_compute_gap",
    "ablation_join_buffer",
    "ablation_compaction",
    "ablation_enterprise",
    "ablation_join_algorithms",
    "ext_groupby_offload",
    "classify_matrix",
    "format_table",
    "render_matrix_summary",
]
