"""Tests for the CLI (python -m repro)."""

import argparse
import json
import os
import re

import pytest

import repro.__main__ as cli
from repro.__main__ import build_parser, main
from repro.bench.adaptive import DEFAULT_SCALE
from repro.bench.experiments import exp6_split_sweep_fig16
from repro.bench.parallel import BUDGET
from repro.bench.reporting import ms
from repro.errors import DeviceOverloadError, EventBudgetExceeded
from repro.workloads.job_queries import query
from repro.workloads.loader import build_environment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def subcommands():
    """{name: subparser} for every registered subcommand."""
    [action] = [action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)]
    return action.choices


class TestParser:
    def test_commands_registered(self):
        parser = build_parser()
        experiments = [["experiment", name] for name in cli._EXPERIMENTS]
        for argv in (["info"], ["run", "8c"], ["explain", "1a"],
                     ["survey"], ["list-queries"], *experiments):
            args = parser.parse_args(argv)
            assert callable(args.func)
        with pytest.raises(SystemExit):
            parser.parse_args(["experiment", "fig99"])

    def test_stack_choices(self):
        parser = build_parser()
        args = parser.parse_args(["run", "8c", "--stack", "hybrid",
                                  "--split", "2"])
        assert args.stack == "hybrid" and args.split == 2
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "8c", "--stack", "warp"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scale_option(self):
        args = build_parser().parse_args(["--scale", "0.001", "info"])
        assert args.scale == 0.001

    def test_every_subcommand_is_documented(self):
        with open(os.path.join(ROOT, "README.md")) as handle:
            readme = handle.read()
        for name in subcommands():
            line = f"python -m repro {name}"
            assert line in cli.__doc__, name
            assert line in readme, name
        # ... and nothing documented is a command that is gone.
        for text in (cli.__doc__, readme):
            named = set(re.findall(r"python -m repro ([a-z][a-z-]*)", text))
            assert named <= set(subcommands()), named - set(subcommands())

    def test_sweeps_share_the_output_option(self):
        sweeps = {"survey", "chaos", "fuzz"}
        with_output = {name for name, sub in subcommands().items()
                       if "--output" in sub.format_help()}
        assert with_output == sweeps

    def test_global_and_workload_seed_are_distinct(self):
        args = build_parser().parse_args(
            ["--seed", "11", "--cache-dir", "cache", "chaos", "1a",
             "--seed", "5"])
        assert (args.seed, args.workload_seed) == (11, 5)
        assert args.cache_dir == "cache"

    def test_adaptive_experiment_defaults_to_its_calibrated_scale(self):
        # ``experiment adaptive`` without --scale must run its query mix
        # at the scale the mix was calibrated at.
        args = build_parser().parse_args(["experiment", "adaptive"])
        assert args.scale == DEFAULT_SCALE


class TestCommands:
    def test_list_queries(self, capsys):
        assert main(["list-queries"]) == 0
        out = capsys.readouterr().out
        assert "113 JOB queries" in out
        assert "8c" in out

    def test_run_and_explain(self, capsys):
        # Small scale keeps the CLI test fast; the env is rebuilt per call.
        assert main(["--scale", "0.0002", "run", "1a",
                     "--stack", "native"]) == 0
        out = capsys.readouterr().out
        assert "host-only(native)" in out

        assert main(["--scale", "0.0002", "explain", "1a"]) == 0
        out = capsys.readouterr().out
        assert "preconditions" in out

    def test_info(self, capsys):
        assert main(["--scale", "0.0002", "info"]) == 0
        out = capsys.readouterr().out
        assert "compute gap" in out
        assert "cosmos-plus" in out


@pytest.fixture(scope="module")
def small_env():
    return build_environment(scale=0.0002, seed=7)


@pytest.fixture
def one_build(monkeypatch, small_env):
    """Every ``main()`` call of the test reuses one environment build —
    the in-process analogue of CI's run-twice-and-``cmp``."""
    def shared(scale, seed, workload_cache_dir, **env_args):
        assert (scale, seed, env_args) == (0.0002, 7, {})
        return small_env
    monkeypatch.setattr(cli, "build_environment", shared)


#: name -> (argv, documented exit code, payload keys; a sweep's payload
#: also has "arguments")
SWEEPS = {
    "chaos": (["chaos", "1a"], 0, {"matrix"}),
    "robustness": (["chaos", "1a", "--scenario", "straggler_device"], 0,
                   {"matrix"}),
    "fuzz": (["fuzz", "--queries", "3"], 0, {"report"}),
    "survey": (["survey", "1a", "8c", "--workers", "1"], 0,
               {"matrix", "summary", "decisions", "decision_outcomes"}),
    # No --output for ``experiment``: the payload is stdout.  The two
    # runs share one environment, so a run that left a cached plan
    # forced would differ.
    "experiment": (["experiment", "join-algorithms"], 0, {"times"}),
    "concurrency": (["experiment", "concurrency"], 0, {"closed", "open"}),
    "cluster": (["experiment", "cluster"], 0,
                {"cells", "device_counts", "partitioner", "seed"}),
    "adaptive": (["experiment", "adaptive"], 0,
                 {"config", "queries", "rounds", "schema_version",
                  "totals"}),
}


class TestSweeps:
    @pytest.mark.parametrize("name", sorted(SWEEPS))
    def test_runs_and_rerun_is_byte_identical(self, name, one_build,
                                              tmp_path, capsys):
        argv, code, keys = SWEEPS[name]
        to_stdout = argv[0] == "experiment"
        runs = []
        for output in (tmp_path / "run1.json", tmp_path / "run2.json"):
            written = [] if to_stdout else ["--output", str(output)]
            assert main(["--scale", "0.0002", *argv, *written]) == code
            captured = capsys.readouterr()
            assert "Traceback" not in captured.err
            runs.append(captured.out.encode() if to_stdout
                        else output.read_bytes())
        assert runs[0] == runs[1]
        assert runs[0].endswith(b"\n")
        payload = json.loads(runs[0])
        if not to_stdout:
            keys = keys | {"arguments"}
            assert payload["arguments"]["command"] == argv[0]
            assert "output" not in payload["arguments"]
        assert set(payload) == keys

    def test_payload_shapes(self, one_build, tmp_path, capsys):
        main(["--scale", "0.0002", "experiment", "concurrency"])
        printed = capsys.readouterr().out
        matrix = json.loads(printed)
        assert set(matrix["closed"]) == {"1", "2", "4", "8"}
        assert matrix["open"]["mode"] == "open"
        # The offered rate is echoed as a float.
        assert '"rate_qps": 200.0' in printed
        out = tmp_path / "out.json"
        main(["--scale", "0.0002", "chaos", "1a", "--scenario", "flash-ecc",
              "--generated", "1", "--output", str(out)])
        matrix = json.loads(out.read_text())["matrix"]
        assert set(matrix) == {"1a", "gen0"}
        assert set(matrix["1a"]) == {"flash-ecc"}

    def test_survey_streams_progress_on_stderr(self, one_build, capsys):
        assert main(["--scale", "0.0002", "survey", "1a", "8c"]) == 0
        captured = capsys.readouterr()
        assert "[1/2] 1a" in captured.err and "[2/2] 8c" in captured.err
        assert "legend: g=green" in captured.out
        assert "legend: b=best" in captured.out

    def test_trace_rerun_is_byte_identical(self, one_build, tmp_path):
        outputs = [tmp_path / "run1", tmp_path / "run2"]
        for output in outputs:
            assert main(["--scale", "0.0002", "run", "1a", "--stack",
                         "hybrid", "--split", "1", "--trace-dir",
                         str(output)]) == 0
        traces = [output / "1a-H1.json" for output in outputs]
        assert json.loads(traces[0].read_text())["traceEvents"]
        assert traces[0].read_bytes() == traces[1].read_bytes()


def _explain_rows(out):
    """``{strategy: {column: cell}}`` of ``explain``'s strategy table."""
    lines = out.splitlines()
    rule = next(i for i, line in enumerate(lines) if line.startswith("---"))
    # Cells may be blank, so cut every line at the rule's column spans.
    spans = [match.span() for match in re.finditer(r"-+", lines[rule])]
    header = [lines[rule - 1][a:b].strip() for a, b in spans]
    rows = {}
    for line in lines[rule + 1:]:
        if not line.strip() or line.startswith("split cost:"):
            break
        cells = [line[a:b].strip() for a, b in spans]
        rows[cells[0]] = dict(zip(header, cells))
    return rows


class TestExplain:
    def test_rerun_is_byte_identical(self, one_build, capsys):
        outputs = []
        for _ in range(2):
            assert main(["--scale", "0.0002", "explain", "1a"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("lost", [False, True])
    def test_times_are_the_fig16_payload(self, lost, one_build, small_env,
                                         monkeypatch, capsys):
        if lost:
            # Both ways a strategy yields no time, as the sweep records
            # them: an infeasible H2 and an over-budget H3.
            run_all_splits = small_env.runner.run_all_splits

            def losing(plan, **kwargs):
                reports = run_all_splits(plan, **kwargs)
                reports["H2"] = DeviceOverloadError("no buffer")
                reports["H3"] = EventBudgetExceeded("event cap")
                return reports
            monkeypatch.setattr(small_env.runner, "run_all_splits", losing)
        assert main(["--scale", "0.0002", "explain", "1a"]) == 0
        rows = _explain_rows(capsys.readouterr().out)
        times = exp6_split_sweep_fig16(small_env, "1a")["times"]
        assert [row["time [ms]"] for row in rows.values()] == [
            "infeasible" if value is None
            else value if value == BUDGET else ms(value)
            for value in times.values()]
        assert list(rows) == [{"block-only": "host-only",
                               "ndp-only": "full-ndp"}.get(name, name)
                              for name in times]
        if lost:
            assert rows["H2"]["time [ms]"] == "infeasible"
            assert rows["H3"]["time [ms]"] == BUDGET
            assert rows["H2"]["rows"] == rows["H3"]["rows"] == ""

    def test_names_the_choice_and_the_fastest(self, one_build, small_env,
                                              capsys):
        assert main(["--scale", "0.0002", "explain", "1a"]) == 0
        out = capsys.readouterr().out
        rows = _explain_rows(out)
        decision = small_env.decide(query("1a"))
        assert out.startswith(decision.summary() + "\n")
        chosen = [name for name, row in rows.items()
                  if "chosen" in row["note"]]
        assert chosen == [decision.strategy_name]
        times = {name: float(row["time [ms]"]) for name, row in rows.items()
                 if row["time [ms]"] not in ("infeasible", BUDGET)}
        fastest = [name for name, row in rows.items()
                   if "fastest" in row["note"]]
        assert fastest == [min(times, key=times.get)]
        plan = small_env.runner.plan(query("1a"))
        for k in range(plan.table_count):
            row = rows[f"H{k}"]
            assert row["split cost"] == \
                f"{decision.cumulative_costs[k]:.1f}"
            assert row["est. rows"] == \
                str(plan.entries[k].estimated_output_rows)
        for name, estimate in decision.estimates.items():
            assert rows[name]["est. cost"] == f"{estimate.c_total:.1f}"


class TestTypedErrors:
    @pytest.mark.parametrize("argv, message", [
        (["run", "99z"], "no JOB query '99z'"),
        (["run", "zz"], "no JOB query 'zz'"),
        (["run", "1a", "--stack", "hybrid", "--split", "99"],
         "split index 99"),
        (["chaos", "1a", "--scenario", "nope"],
         "unknown chaos scenario nope"),
        (["chaos"], "chaos needs a query name and/or --generated N"),
        (["chaos", "1a", "--generated", "-2"],
         "query count must be non-negative, got -2"),
        (["fuzz", "--queries", "-1"],
         "query count must be non-negative, got -1"),
        (["run", "1a", "--split", "2"],
         "split index 2 needs the hybrid stack"),
    ])
    def test_repro_error_is_one_line_and_exit_2(self, argv, message,
                                                one_build, capsys):
        assert main(["--scale", "0.0002", *argv]) == 2
        captured = capsys.readouterr()
        errors = [line for line in captured.err.splitlines()
                  if not line.startswith("building environment")]
        assert len(errors) == 1
        assert errors[0].startswith("repro: error: ")
        assert message in errors[0]
        assert "Traceback" not in captured.err
        assert captured.out == ""
