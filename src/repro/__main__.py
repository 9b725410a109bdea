"""Command-line interface — the one front end to every run and sweep.

    python -m repro info                      # environment summary
    python -m repro list-queries              # the JOB suite
    python -m repro run 8c --stack hybrid --split 3 --trace-dir traces
    python -m repro explain 8c                # decision vs every strategy
    python -m repro experiment fig11          # a paper figure/table/ablation
    python -m repro survey 1a 8c              # Fig-12/13 matrix (--all: 113)
    python -m repro chaos 1a 8c --seed 5      # fault-injection scenarios
    python -m repro fuzz --queries 50 --seed 7     # differential fuzzing
    python -m repro experiment concurrency    # client-scaling sweep
    python -m repro experiment cluster        # device-count scaling sweep
    python -m repro experiment adaptive       # re-planning regret bench

All commands build the synthetic JOB environment (seeded, deterministic)
from the global options, which go *before* the subcommand: ``--scale``
(default 0.0004), ``--seed`` (the dataset seed) and ``--cache-dir`` (the
on-disk workload cache).  ``experiment`` runs one registered paper
artifact or extension sweep at its fixed defaults and prints the payload
to stdout as JSON with sorted keys — so a run is proved deterministic by
running it twice and ``cmp``-ing the two outputs, which is what CI does.
The sweeps that take more (survey, chaos, fuzz) write ``--output FILE``
through one writer: the invocation's arguments beside the payload, keys
sorted, so their two runs compare equal the same way.  A subcommand's
own ``--seed`` is the *workload* seed: fault-plan seed for chaos,
generator seed for fuzz.
"""

import argparse
import json
import os
import sys

from repro.bench import experiments as exp
from repro.bench.adaptive import adaptive_matrix
from repro.bench.chaos import SCENARIOS, chaos_matrix, generated_queries
from repro.bench.cluster import cluster_matrix
from repro.bench.concurrency import concurrency_matrix
from repro.bench.fuzz import MODES, FuzzHarness, replay_failures, \
    write_corpus
from repro.bench.parallel import BUDGET, outcome, sweep_job_matrix, timed
from repro.bench.reporting import (format_table, ms, render_family_grid,
                                   render_matrix_summary)
from repro.context import ExecutionContext
from repro.engine.stacks import Stack
from repro.errors import ReproError
from repro.sim import Tracer
from repro.storage.machines import enterprise_device
from repro.workloads.job_queries import all_queries, query
from repro.workloads.loader import build_environment

_STACKS = {"blk": Stack.BLK, "native": Stack.NATIVE, "ndp": Stack.NDP,
           "hybrid": Stack.HYBRID}

_NO_INDEX = {"secondary_indexes": False}

#: name -> (experiment, then the ``build_environment`` arguments of each
#: environment it takes, in order).  The global ``--scale``, ``--seed``
#: and ``--cache-dir`` apply to every environment.
_EXPERIMENTS = {
    "fig2": (exp.exp_intro_fig2, {}),
    "fig11": (exp.exp1_stacks_fig11, {}),
    "tab3": (exp.exp1_table3, {}),
    "fig14": (exp.exp4_nonindexed_fig14, _NO_INDEX),
    "fig15": (exp.exp5_insitu_index_fig15, {}),
    "fig16": (exp.exp6_split_sweep_fig16, {}),
    "fig17": (exp.exp6_timeline_fig17, {}),
    "tab4": (exp.exp6_table4, {}),
    "profiler": (exp.profiler_compute_gap, {}),
    # movie_link pinned to 2000 rows: the BNL outer spans many blocks.
    "join-buffer": (exp.ablation_join_buffer,
                    dict(_NO_INDEX, table_overrides=(("movie_link", 2000),))),
    "compaction": (exp.ablation_compaction,),
    "enterprise": (exp.ablation_enterprise, {},
                   {"device_spec": enterprise_device()}),
    "join-algorithms": (exp.ablation_join_algorithms, {}),
    "groupby": (exp.ext_groupby_offload, {}),
    # Extension sweeps (docs/concurrency.md, cluster.md, adaptivity.md).
    "concurrency": (concurrency_matrix, {}),
    "cluster": (cluster_matrix, {}),
    "adaptive": (adaptive_matrix, {}),
}

#: The Fig-12 sample ``survey`` sweeps unless given names or ``--all``.
SURVEY_QUERIES = ["1a", "2d", "6b", "8c", "17b", "32a"]

#: Arguments that say where things are read from or written to, not what
#: is computed — left out of the echo so two runs' files compare equal.
_NOT_ECHOED = ("func", "output", "cache_dir", "trace_dir", "corpus_dir",
               "workers")


def _build_env(args, **env_args):
    print(f"building environment (scale={args.scale}, seed={args.seed})...",
          file=sys.stderr)
    return build_environment(scale=args.scale, seed=args.seed,
                             workload_cache_dir=args.cache_dir, **env_args)


def _write_output(args, **payload):
    """The one ``--output`` writer every sweep shares."""
    if not args.output:
        return
    arguments = {name: value for name, value in vars(args).items()
                 if name not in _NOT_ECHOED}
    with open(args.output, "w") as handle:
        json.dump({"arguments": arguments, **payload}, handle,
                  sort_keys=True, indent=1)
        handle.write("\n")
    print(f"results written to {args.output}")


def cmd_info(args):
    env = _build_env(args)
    rows = [
        ["rows loaded", f"{env.total_rows:,}"],
        ["data bytes", f"{env.total_bytes:,}"],
        ["buffer scale", f"{env.buffer_scale:.2e}"],
        ["device", env.device.spec.name],
        ["compute gap", f"{env.hardware.compute_gap:.1f}x"],
        ["PCIe", f"{env.hardware.hw_ipv}.0 x{env.hardware.hw_ipl}"],
        ["device buffer budget",
         f"{env.device.buffer_budget / 2**20:.0f} MB"],
        ["max tables (w/ sec idx)", env.device.max_tables(True)],
        ["max tables (w/o sec idx)", env.device.max_tables(False)],
    ]
    print(format_table(["property", "value"], rows,
                       title="hybridNDP reproduction environment"))
    return 0


def cmd_run(args):
    env = _build_env(args)
    stack = _STACKS[args.stack]
    tracer = Tracer() if args.trace_dir else None
    report = env.run(query(args.query), stack, split_index=args.split,
                     ctx=ExecutionContext(tracer=tracer))
    print(report.summary())
    for row in report.result.rows[:10]:
        print(" ", row)
    if tracer is not None:
        os.makedirs(args.trace_dir, exist_ok=True)
        out = os.path.join(args.trace_dir,
                           f"{args.query}-{report.strategy}.json")
        tracer.write(out)
        metrics = tracer.metrics()
        print(f"trace written to {out} ({metrics['spans']} spans, "
              f"{metrics['instants']} instants); open it at ui.perfetto.dev")
    return 0


def cmd_explain(args):
    env = _build_env(args)
    plan = env.runner.plan(query(args.query))
    decision = env.decide(plan)
    print(decision.summary())
    print(f"preconditions: {decision.preconditions}")
    reports = env.runner.run_all_splits(plan)
    times = {name: outcome(report) for name, report in reports.items()}
    picks = (("chosen", decision.strategy_name),
             ("fastest", min(timed(times), key=times.get, default=None)))
    # The plan entry whose output crosses to the host under a strategy;
    # nothing crosses under host-only.
    crossing = {f"H{k}": k for k in range(plan.table_count)}
    crossing["full-ndp"] = plan.table_count - 1
    rows = []
    for name, report in reports.items():
        k = crossing.get(name)
        estimate = decision.estimates.get(name)
        value = times[name]
        rows.append([
            name,
            f"{decision.cumulative_costs[k]:.1f}"
            if name.startswith("H") else None,
            None if estimate is None else f"{estimate.c_total:.1f}",
            None if k is None else plan.entries[k].estimated_output_rows,
            None if k is None or isinstance(report, Exception)
            else report.intermediate_rows,
            "infeasible" if value is None
            else value if value == BUDGET else ms(value),
            ", ".join(note for note, pick in picks if pick == name)])
    print()
    print(format_table(
        ["strategy", "split cost", "est. cost", "est. rows", "rows",
         "time [ms]", "note"], rows,
        title=f"Q{args.query}: every strategy, estimated and simulated"))
    print("split cost: Fig 5 cumulative device cost up to Hk; est. cost: "
          "the planner's c_total;\nest. rows / rows: rows crossing to the "
          "host, estimated / simulated")
    return 0


def cmd_chaos(args):
    names = list(args.queries)
    queries = None
    if args.generated:
        queries = generated_queries(args.generated, seed=args.workload_seed)
        names += sorted(queries)
    if not names:
        raise ReproError("chaos needs a query name and/or --generated N")
    args.scenarios = args.scenarios or sorted(SCENARIOS)
    env = _build_env(args)
    matrix = chaos_matrix(env, names, scenarios=args.scenarios,
                          seed=args.workload_seed,
                          trace_dir=args.trace_dir, queries=queries)
    cells = [cell for row in matrix.values() for cell in row.values()]
    rows = [[cell["query"], cell["scenario"], cell["strategy"],
             "yes" if cell["rows_match"] else "NO",
             "ok" if cell["ok"] else "FAIL",
             cell["retries"],
             ms(cell["faulted_time"]), ms(cell["baseline_time"]),
             ", ".join(f"{kind}={count}" for kind, count
                       in cell["faults_injected"].items()) or "-"]
            for cell in cells]
    print(format_table(
        ["query", "scenario", "strategy", "rows ok", "verdict", "retries",
         "faulted [ms]", "host [ms]", "faults injected"], rows,
        title=f"chaos matrix ({', '.join(names)}; "
              f"fault seed {args.workload_seed})"))
    if args.trace_dir:
        print(f"fault-annotated traces written to {args.trace_dir}/")
    _write_output(args, matrix=matrix)
    return 0 if all(cell["ok"] for cell in cells) else 1


def cmd_fuzz(args):
    args.modes = args.modes or list(MODES)
    modes = tuple(args.modes)
    env = _build_env(args)
    if args.replay:
        reports = replay_failures(env, args.replay, modes=modes)
    else:
        harness = FuzzHarness(env, seed=args.workload_seed, modes=modes)
        reports = [harness.run(args.queries)]
    for report in reports:
        rows = [
            ["generator seed", report.seed],
            ["queries", report.queries],
            ["modes", ", ".join(report.modes)],
            ["checks", report.checks],
            ["infeasible", report.infeasible],
            ["failures", len(report.failures)],
        ]
        print(format_table(["metric", "value"], rows,
                           title="differential fuzz sweep"))
        for failure in report.failures:
            print(f"FAIL {failure.name} [{failure.mode}/{failure.kind}] "
                  f"{failure.detail}")
            if failure.shrunk_sql:
                print(f"  shrunk: {failure.shrunk_sql!r}")
        if args.corpus_dir:
            paths = write_corpus(report, args.corpus_dir)
            for kind, path in paths.items():
                print(f"{kind} written to {path}")
    if args.replay:
        _write_output(args, reports=[r.to_dict() for r in reports])
    else:
        _write_output(args, report=reports[0].to_dict())
    return 0 if all(report.ok for report in reports) else 1


def cmd_experiment(args):
    experiment, *env_args = _EXPERIMENTS[args.name]
    envs = [_build_env(args, **kwargs) for kwargs in env_args]
    print(json.dumps(experiment(*envs), indent=2, sort_keys=True))
    return 0


def cmd_survey(args):
    if args.all:
        args.queries = sorted(all_queries())
    names = args.queries
    env = _build_env(args)
    done = []

    def progress(name, times):
        done.append(name)
        print(f"[{len(done)}/{len(names)}] {name}: "
              f"host={ms(times['host-only'])} ms", file=sys.stderr)

    matrix = sweep_job_matrix(
        query_names=names, workers=args.workers, env=env,
        workload_cache_dir=args.cache_dir, on_result=progress,
        trace_dir=args.trace_dir)
    summary = exp.classify_matrix(matrix)
    decisions = exp.exp3_decisions_fig13(env, matrix)
    outcomes = decisions.pop("per_query")
    print(render_family_grid(summary["per_query"],
                             legend="g=green y=yellow r=red"))
    print()
    print(render_matrix_summary(summary))
    print()
    print(render_family_grid(outcomes, legend="b=best a=acceptable m=miss"))
    print(f"decision quality: best {decisions['best_pct']:.1f}% "
          f"(paper ~20.35%), acceptable {decisions['acceptable_pct']:.1f}% "
          f"(paper ~11.5%), suitable {decisions['suitable_pct']:.1f}% "
          f"(paper ~31.8%)")
    _write_output(args, matrix=matrix, summary=summary,
                  decisions=decisions, decision_outcomes=outcomes)
    return 0


def cmd_list_queries(_args):
    queries = all_queries()
    print(f"{len(queries)} JOB queries:")
    print(", ".join(sorted(queries)))
    return 0


def build_parser():
    """The argparse command tree — the declarative list of experiments."""
    parser = argparse.ArgumentParser(
        prog="repro", description="hybridNDP reproduction CLI")
    parser.add_argument("--scale", type=float, default=0.0004,
                        help="dataset scale factor (default 0.0004)")
    parser.add_argument("--seed", type=int, default=7,
                        help="dataset seed (default 7)")
    parser.add_argument("--cache-dir", default=None,
                        help="on-disk workload cache directory")
    sub = parser.add_subparsers(dest="command", required=True)

    # One definition per option several commands share, so they cannot
    # drift apart.
    traced = argparse.ArgumentParser(add_help=False)
    traced.add_argument("--trace-dir", default=None,
                        help="write Perfetto traces into this directory")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None, metavar="FILE",
                        help="write the arguments and the results as JSON")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", dest="workload_seed", type=int, default=0,
                        help="workload seed: fault plan (chaos), "
                             "generator (fuzz); the dataset seed is the "
                             "global --seed")

    sub.add_parser("info").set_defaults(func=cmd_info)
    sub.add_parser("list-queries").set_defaults(func=cmd_list_queries)

    run = sub.add_parser("run", parents=[traced])
    run.add_argument("query")
    run.add_argument("--stack", choices=sorted(_STACKS), default="native",
                     help="execution stack (default: native)")
    run.add_argument("--split", type=int, default=None,
                     help="hybrid split index (the k of Hk)")
    run.set_defaults(func=cmd_run)

    explain = sub.add_parser(
        "explain",
        help="the planner's decision beside every strategy's estimated "
             "and simulated outcome")
    explain.add_argument("query")
    explain.set_defaults(func=cmd_explain)

    experiment = sub.add_parser(
        "experiment",
        help="one paper figure, table, ablation or extension sweep; "
             "prints its payload as sorted-key JSON")
    experiment.add_argument("name", choices=sorted(_EXPERIMENTS))
    experiment.set_defaults(func=cmd_experiment)

    survey = sub.add_parser(
        "survey", parents=[output, traced],
        help="the Fig-12 strategy matrix and Fig-13 decision quality")
    survey.add_argument("queries", nargs="*", default=SURVEY_QUERIES,
                        help=f"JOB queries (default {SURVEY_QUERIES})")
    survey.add_argument("--all", action="store_true",
                        help="sweep all 113 JOB queries")
    survey.add_argument("--workers", type=int, default=1,
                        help="worker processes for the sweep (default 1)")
    survey.set_defaults(func=cmd_survey)

    chaos = sub.add_parser(
        "chaos", parents=[output, seeded, traced],
        help="run queries under the fault-injection scenarios; exits 1 "
             "on wrong rows or unbounded slowdown")
    chaos.add_argument("queries", nargs="*", default=[],
                       help="JOB query names (optional with --generated)")
    chaos.add_argument("--scenario", dest="scenarios", action="append",
                       default=None,
                       help="run only this scenario (repeatable; default "
                            "the single-device catalogue; the scale-out "
                            "scenarios straggler_device / "
                            "double_device_failure / deadline_shedding "
                            "run only when named)")
    chaos.add_argument("--generated", type=int, default=0, metavar="N",
                       help="additionally chaos N random sqlgen queries "
                            "(seeded by --seed)")
    chaos.set_defaults(func=cmd_chaos)

    fuzz = sub.add_parser(
        "fuzz", parents=[output, seeded],
        help="differential fuzzing: generated SQL across host, split, "
             "scheduler, and cluster execution; exits 1 on any failure")
    fuzz.add_argument("--queries", type=int, default=50,
                      help="number of generated queries (default 50)")
    fuzz.add_argument("--mode", dest="modes", action="append", default=None,
                      choices=list(MODES),
                      help="run only this mode (repeatable; default all)")
    fuzz.add_argument("--corpus-dir", default=None,
                      help="write corpus.jsonl (+ failures.jsonl) here")
    fuzz.add_argument("--replay", default=None,
                      help="re-run the (seed, index) entries of this "
                           "corpus/failures jsonl instead of generating")
    fuzz.set_defaults(func=cmd_fuzz)
    return parser


def main(argv=None):
    """CLI entry point; a :class:`ReproError` is one stderr line, exit 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
