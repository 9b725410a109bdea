#!/usr/bin/env python3
"""Wall-clock benchmark of the JOB strategy sweep (columnar tentpole).

    python scripts/columnar_bench.py [--scale S] [--seed N] \\
        [--queries 1a 6b ...] [--label columnar] \\
        [--output BENCH_columnar_after.json] \\
        [--baseline BENCH_columnar_smoke_baseline.json] \\
        [--max-regression 2.0]

Runs ``run_all_splits`` (host-only, every hybrid split, full NDP) for
every requested JOB query and records *wall-clock* seconds per query
plus the sweep total.  (``python3 -m perfbench`` is the repo's
benchmark; this script is the cheap CI tripwire.)

With ``--baseline`` the script exits non-zero when any query takes more
than ``--max-regression`` times its own ``per_query`` baseline — or
more than half a second, whichever is larger, so millisecond queries do
not trip on runner noise.  A single total would let its largest query
hide every other.  The CI ``perf-smoke`` job runs a fixed 12-query
sweep against the committed smoke baseline this way.
"""

import argparse
import json
import platform
import sys
import time

from repro.errors import ReproError
from repro.workloads.job_queries import all_queries, query
from repro.workloads.loader import build_environment

#: Below this many seconds a query is never called a regression.
REGRESSION_FLOOR_SECONDS = 0.5

#: Fixed sweep of the CI ``perf-smoke`` job: one representative per
#: size band — short 2-3-table queries up to the widest JOB pipelines.
SMOKE_QUERIES = ("1a", "2a", "3b", "4a", "6a", "8c", "10a", "14a",
                 "16b", "17e", "22c", "25a")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="wall-clock JOB sweep benchmark (columnar engine)")
    parser.add_argument("--scale", type=float, default=0.0002,
                        help="dataset scale factor (default 0.0002)")
    parser.add_argument("--seed", type=int, default=7,
                        help="dataset seed (default 7)")
    parser.add_argument("--queries", nargs="*", default=None,
                        help="JOB query names (default: all 113)")
    parser.add_argument("--smoke", action="store_true",
                        help=f"run the fixed perf-smoke sweep "
                             f"({', '.join(SMOKE_QUERIES)})")
    parser.add_argument("--label", default="columnar",
                        help="engine label recorded in the payload")
    parser.add_argument("--output", default="BENCH_columnar_after.json",
                        help="output JSON path")
    parser.add_argument("--baseline", default=None,
                        help="committed baseline JSON to regress against")
    parser.add_argument("--max-regression", type=float, default=2.0,
                        help="fail when a query's wall-clock exceeds "
                             "this factor times its baseline (default 2.0)")
    return parser.parse_args(argv)


def run_sweep(env, names):
    """{query: {wall_seconds, strategies, feasible, rows}} plus total."""
    per_query = {}
    t_sweep = time.perf_counter()
    for name in names:
        sql = query(name)
        t0 = time.perf_counter()
        reports = env.runner.run_all_splits(sql)
        wall = time.perf_counter() - t0
        feasible = {label: report for label, report in reports.items()
                    if not isinstance(report, ReproError)}
        per_query[name] = {
            "wall_seconds": wall,
            "strategies": len(reports),
            "feasible": len(feasible),
            "rows": len(feasible["host-only"].result),
        }
        print(f"{name}: {wall * 1e3:.1f} ms "
              f"({len(feasible)}/{len(reports)} strategies)", flush=True)
    return per_query, time.perf_counter() - t_sweep


def regressions(per_query, baseline_per_query, factor):
    """``[(query, seconds, budget)]`` of queries over their budget.

    A query's budget is ``factor`` times its baseline wall-clock, at
    least :data:`REGRESSION_FLOOR_SECONDS`; queries the baseline does
    not list have none.
    """
    over = []
    for name, measured in per_query.items():
        base = baseline_per_query.get(name)
        if base is None:
            continue
        budget = max(REGRESSION_FLOOR_SECONDS,
                     base["wall_seconds"] * factor)
        if measured["wall_seconds"] > budget:
            over.append((name, measured["wall_seconds"], budget))
    return over


def main(argv=None):
    args = parse_args(argv)
    if args.smoke and args.queries:
        print("--smoke and --queries are mutually exclusive",
              file=sys.stderr)
        return 2
    names = (list(SMOKE_QUERIES) if args.smoke
             else args.queries or sorted(all_queries()))

    t0 = time.perf_counter()
    env = build_environment(scale=args.scale, seed=args.seed)
    build_seconds = time.perf_counter() - t0
    print(f"environment: scale={args.scale}, {env.total_rows:,} rows "
          f"({build_seconds:.1f}s)", flush=True)

    per_query, total = run_sweep(env, names)
    payload = {
        "engine": args.label,
        "scale": args.scale,
        "seed": args.seed,
        "python": platform.python_version(),
        "queries": len(names),
        "build_seconds": build_seconds,
        "total_wall_seconds": total,
        "per_query": per_query,
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(names)} queries in {total:.1f}s -> {args.output}")

    if args.baseline:
        with open(args.baseline) as handle:
            baseline = json.load(handle)
        print(f"baseline ({baseline.get('engine', '?')}): "
              f"{baseline['total_wall_seconds']:.1f}s total, measured "
              f"{total:.1f}s")
        over = regressions(per_query, baseline["per_query"],
                           args.max_regression)
        for name, seconds, budget in over:
            print(f"PERF REGRESSION: {name} took {seconds:.2f}s > budget "
                  f"{budget:.2f}s ({args.max_regression:.1f}x baseline, "
                  f"floor {REGRESSION_FLOOR_SECONDS}s)", file=sys.stderr)
        if over:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
