"""The parallel JOB sweep and the on-disk workload cache.

The sharded sweep must be bit-identical to the serial one for a fixed
seed, and the cache must let environment rebuilds skip generation.
"""

import json
import multiprocessing
import os

import pytest

import repro.bench.parallel as parallel
import repro.workloads.loader as loader
from repro.bench.parallel import strategy_times, sweep_job_matrix
from repro.errors import ReproError
from repro.workloads.loader import build_environment

QUERIES = ["1a", "3b"]
ENV_KWARGS = {"scale": 0.0002, "seed": 11}


class TestSweep:
    def test_serial_sweep_matches_run_all_splits(self, tmp_path):
        env = build_environment(**ENV_KWARGS)
        matrix = sweep_job_matrix(query_names=QUERIES, workers=1, env=env)
        assert sorted(matrix) == sorted(QUERIES)
        assert matrix["1a"] == strategy_times(env, "1a")
        assert all(times.get("host-only") is not None
                   for times in matrix.values())

    def test_parallel_sweep_bit_identical_to_serial(self, tmp_path):
        cache = str(tmp_path / "workloads")
        serial = sweep_job_matrix(
            query_names=QUERIES, workers=1, env_kwargs=dict(ENV_KWARGS),
            workload_cache_dir=cache)
        parallel = sweep_job_matrix(
            query_names=QUERIES, workers=2, env_kwargs=dict(ENV_KWARGS),
            workload_cache_dir=cache)
        assert json.dumps(serial) == json.dumps(parallel)

    def test_on_result_streams_in_sorted_order(self):
        env = build_environment(**ENV_KWARGS)
        seen = []
        sweep_job_matrix(query_names=list(reversed(QUERIES)), workers=1,
                         env=env, on_result=lambda name, _t: seen.append(name))
        assert seen == sorted(QUERIES)

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patch reaches workers only by fork")
    def test_killed_worker_is_a_typed_error(self, monkeypatch, tmp_path):
        # Workers are forked after the patch, so they inherit it: the one
        # that gets 3b dies the way an OOM-killed worker does.
        real = parallel.strategy_times

        def dies_on_3b(env, query_name, trace_dir=None):
            if query_name == "3b":
                os._exit(1)
            return real(env, query_name, trace_dir=trace_dir)
        monkeypatch.setattr(parallel, "strategy_times", dies_on_3b)
        with pytest.raises(ReproError, match=r"of 2 queries .*3b"):
            sweep_job_matrix(query_names=QUERIES, workers=2,
                             env_kwargs=dict(ENV_KWARGS),
                             workload_cache_dir=str(tmp_path))


class TestWorkloadCache:
    def test_cache_file_created(self, tmp_path):
        build_environment(workload_cache_dir=str(tmp_path), **ENV_KWARGS)
        assert list(tmp_path.glob("imdb-*.pkl"))

    def test_second_build_skips_generation(self, tmp_path, monkeypatch):
        first = build_environment(workload_cache_dir=str(tmp_path),
                                  **ENV_KWARGS)

        def no_generation(_spec):
            raise AssertionError("generator must not run on a cache hit")
        monkeypatch.setattr(loader, "DatasetGenerator", no_generation)
        second = build_environment(workload_cache_dir=str(tmp_path),
                                   **ENV_KWARGS)
        assert second.total_rows == first.total_rows
        assert second.total_bytes == first.total_bytes

    def test_cache_keyed_by_spec(self, tmp_path):
        build_environment(workload_cache_dir=str(tmp_path), **ENV_KWARGS)
        build_environment(workload_cache_dir=str(tmp_path),
                          scale=ENV_KWARGS["scale"], seed=99)
        assert len(list(tmp_path.glob("imdb-*.pkl"))) == 2

    def test_cached_build_identical_to_fresh(self, tmp_path):
        cached = build_environment(workload_cache_dir=str(tmp_path),
                                   **ENV_KWARGS)
        recached = build_environment(workload_cache_dir=str(tmp_path),
                                     **ENV_KWARGS)
        fresh = build_environment(**ENV_KWARGS)
        assert (strategy_times(cached, "1a")
                == strategy_times(recached, "1a")
                == strategy_times(fresh, "1a"))

    def test_env_var_enables_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WORKLOAD_CACHE", str(tmp_path))
        build_environment(**ENV_KWARGS)
        assert list(tmp_path.glob("imdb-*.pkl"))
