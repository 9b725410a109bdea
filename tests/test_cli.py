"""Tests for the CLI (python -m repro)."""

import argparse
import json
import os

import pytest

import repro.__main__ as cli
from repro.__main__ import build_parser, main
from repro.bench.adaptive import DEFAULT_SCALE
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
        for argv in (["info"], ["run", "8c"], ["decide", "1a"],
                     ["sweep", "8c"], ["survey"], ["list-queries"],
                     *experiments):
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

    def test_run_and_decide(self, capsys):
        # Small scale keeps the CLI test fast; the env is rebuilt per call.
        assert main(["--scale", "0.0002", "run", "1a",
                     "--stack", "native"]) == 0
        out = capsys.readouterr().out
        assert "host-only(native)" in out

        assert main(["--scale", "0.0002", "decide", "1a"]) == 0
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
        outputs = [tmp_path / "run1.json", tmp_path / "run2.json"]
        for output in outputs:
            assert main(["--scale", "0.0002", "trace", "1a",
                         "--out", str(output)]) == 0
        assert json.loads(outputs[0].read_text())["traceEvents"]
        assert outputs[0].read_bytes() == outputs[1].read_bytes()


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
