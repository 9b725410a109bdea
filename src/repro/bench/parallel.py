"""Parallel JOB sweep: shard the Fig-12 strategy matrix across processes.

The 113-query sweep is embarrassingly parallel — every query's
``run_all_splits`` is independent of every other query's (each execution
builds fresh pipeline state).  Workers each build their own environment
(the LSM store is not shareable across processes); with the seeded
on-disk workload cache (:mod:`repro.workloads.loader`) only the first
builder pays dataset generation, and every build is deterministic, so
the sharded sweep is bit-identical to the serial one for a fixed seed.
"""

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.context import ExecutionContext
from repro.errors import EventBudgetExceeded, ReproError
from repro.sim import Tracer
from repro.workloads.job_queries import all_queries, query
from repro.workloads.loader import build_environment

# Per-worker-process environment, built once by the pool initializer.
_WORKER_ENV = None
_WORKER_TRACE_DIR = None

#: A strategy's entry in :func:`strategy_times` when its simulation
#: exceeded the event loop's cap (:class:`EventBudgetExceeded`).
BUDGET = "budget"


def outcome(report):
    """A strategy's sweep entry: its time, ``None`` when infeasible."""
    if isinstance(report, EventBudgetExceeded):
        return BUDGET
    return None if isinstance(report, Exception) else report.total_time


def timed(times):
    """The entries of a :func:`strategy_times` map that are times."""
    return {strategy: value for strategy, value in times.items()
            if value is not None and value != BUDGET}


def strategy_times(env, query_name, trace_dir=None):
    """{strategy: total_time, None or BUDGET} for one query on one
    environment: ``None`` marks an infeasible strategy, :data:`BUDGET`
    one whose simulation exceeded the event cap.

    With ``trace_dir`` set, every feasible strategy run is traced and
    written as ``<trace_dir>/<query>-<strategy>.json`` (Chrome
    ``trace_event`` JSON, one file per strategy).
    """
    tracers = {}
    ctx_factory = None
    if trace_dir:
        def ctx_factory(strategy):
            tracers[strategy] = Tracer()
            return ExecutionContext(tracer=tracers[strategy])
    reports = env.runner.run_all_splits(query(query_name),
                                        ctx_factory=ctx_factory)
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        for strategy, report in reports.items():
            if isinstance(report, Exception):
                continue   # no report: its tracer may hold open spans
            tracers[strategy].write(os.path.join(
                trace_dir, f"{query_name}-{strategy}.json"))
    return {strategy: outcome(report)
            for strategy, report in reports.items()}


def _init_worker(env_kwargs, trace_dir=None):
    global _WORKER_ENV, _WORKER_TRACE_DIR
    _WORKER_ENV = build_environment(**env_kwargs)
    _WORKER_TRACE_DIR = trace_dir


def _sweep_one(query_name):
    return query_name, strategy_times(_WORKER_ENV, query_name,
                                      trace_dir=_WORKER_TRACE_DIR)


def sweep_job_matrix(query_names=None, workers=1, env=None,
                     env_kwargs=None, workload_cache_dir=None,
                     on_result=None, trace_dir=None):
    """The Fig-12 matrix ``{query: {strategy: seconds-or-None}}``.

    ``workers=1`` runs serially on ``env`` (built from ``env_kwargs``
    when absent).  ``workers>1`` shards the queries over a
    :class:`ProcessPoolExecutor`; each worker builds its own environment
    from ``env_kwargs`` (or ``env.build_kwargs()``), reading the shared
    workload cache.  Results are keyed in sorted query order either way,
    so serial and parallel sweeps serialize to identical JSON.

    ``on_result(name, times)`` is invoked in the parent as each query
    completes, for progress reporting.  ``trace_dir`` writes one Perfetto
    trace per (query, feasible strategy) into the directory — traces are
    per-query files, so the sharded sweep emits the same set as the
    serial one.  A worker that dies (the kernel's OOM killer, typically)
    ends the sweep with a :class:`~repro.errors.ReproError` naming the
    queries that had not completed.
    """
    names = sorted(query_names) if query_names else sorted(all_queries())
    if env_kwargs is None:
        if env is not None:
            env_kwargs = env.build_kwargs()
        else:
            env_kwargs = {}
    if workload_cache_dir:
        env_kwargs = dict(env_kwargs,
                          workload_cache_dir=workload_cache_dir)

    matrix = {}
    if workers <= 1:
        if env is None:
            env = build_environment(**env_kwargs)
        for name in names:
            times = strategy_times(env, name, trace_dir=trace_dir)
            matrix[name] = times
            if on_result is not None:
                on_result(name, times)
        return matrix

    try:
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_init_worker,
                                 initargs=(env_kwargs, trace_dir)) as pool:
            # map() preserves submission order: the matrix is keyed in
            # sorted order exactly like the serial path, whatever
            # finishes first.
            for name, times in pool.map(_sweep_one, names):
                matrix[name] = times
                if on_result is not None:
                    on_result(name, times)
    except BrokenProcessPool:
        missing = [name for name in names if name not in matrix]
        raise ReproError(
            f"a sweep worker died (killed — out of memory?) after "
            f"{len(matrix)} of {len(names)} queries completed; not "
            f"completed: {', '.join(missing)}") from None
    return matrix
