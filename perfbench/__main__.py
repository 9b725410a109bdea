"""Command line of the benchmark.

    python3 -m perfbench --workload NAME --seed N --seconds S --trace 0|1
    python3 -m perfbench all [--trace 1] [--out SET.json]
    python3 -m perfbench compare BASE.json NEW.json

The first form is what ``BENCHMARK.json`` names: it prints every metric
with its unit and ends with one line of JSON for the driver.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time


def _run_parser(prog, single):
    parser = argparse.ArgumentParser(prog=prog)
    if single:
        parser.add_argument("--workload", required=True)
        parser.add_argument("--trace-out", default=None, metavar="FILE",
                            help="write the traced pass as Chrome "
                                 "trace_event JSON (ui.perfetto.dev)")
        parser.add_argument("--update-expected", action="store_true",
                            help="rewrite this workload's digests in "
                                 "perfbench/expected/seed<N>.json")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="how long to keep running whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced pass and print the per-layer "
                             "metrics instead of the end-to-end ones")
    parser.add_argument("--quick", action="store_true",
                        help="tiny op lists (self-tests)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the full result document as JSON")
    return parser


def _write_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def run_one(argv):
    args = _run_parser("python3 -m perfbench", single=True).parse_args(argv)
    try:
        from perfbench import harness
        from perfbench.workloads import WORKLOADS
        import repro  # noqa: F401  (fail here, not mid-run, without src/)
    except ImportError as error:
        print(f"perfbench: the program under test is not importable "
              f"({error}); run from a checkout that has src/repro",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    document = harness.run_workload(
        WORKLOADS[args.workload], seed=args.seed, seconds=args.seconds,
        traced=bool(args.trace), quick=args.quick,
        trace_out=args.trace_out, write_expected=args.update_expected)
    if args.out:
        _write_json(args.out, document)
    harness.print_metrics(document)
    print(harness.contract_line(document))
    return 0


def run_all(argv):
    """Every workload, each in a fresh process, merged into one set."""
    args = _run_parser("python3 -m perfbench all",
                       single=False).parse_args(argv)
    from perfbench import ROOT, metrics
    started = time.perf_counter()
    merged = {}
    status = 0
    out_dir = os.path.dirname(os.path.abspath(args.out or "set.json"))
    with tempfile.TemporaryDirectory(dir=out_dir) as scratch:
        for name in metrics.WORKLOADS:
            path = os.path.join(scratch, f"{name}.json")
            command = [sys.executable, "-m", "perfbench",
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", path]
            if args.quick:
                command.append("--quick")
            done = subprocess.run(command, cwd=ROOT)
            if done.returncode != 0:
                print(f"perfbench: {name} exited with {done.returncode}",
                      file=sys.stderr)
                status = 1
                continue
            with open(path) as handle:
                merged[name] = json.load(handle)
    payload = {"schema": 1, "workloads": merged,
               "elapsed_s": time.perf_counter() - started}
    if args.out:
        _write_json(args.out, payload)
    failed = sum(doc["failed"] for doc in merged.values())
    print(f"# {len(merged)}/{len(metrics.WORKLOADS)} workloads in "
          f"{payload['elapsed_s']:.1f} s, {failed} failed op(s)")
    return status or int(failed > 0)


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["compare"]:
        from perfbench.compare import main as compare_main
        return compare_main(argv[1:])
    if argv[:1] == ["all"]:
        return run_all(argv[1:])
    return run_one(argv)


if __name__ == "__main__":
    sys.exit(main())
