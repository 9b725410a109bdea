"""One split lifecycle: stage -> start -> drain -> finish.

``CooperativeExecutor.run_split`` is a caller of the same staged
lifecycle the workload scheduler and the scatter-gather executor drive
(docs/architecture.md): ``prepare_split`` on a
:class:`~repro.sim.SimContext`, ``start(at)``, drain the event loop,
``finish``.  These tests pin the equivalence — driving the lifecycle by
hand reproduces ``run_split``'s report (and, traced, its exported trace)
byte for byte — so no driver can grow a private variant of it again.
"""

import json

import pytest

from repro.context import ExecutionContext
from repro.errors import ReproError
from repro.sim import SimContext, Tracer
from repro.workloads.job_queries import query

QUERIES = ("1a", "8c", "16b")


def _serial(env, plan, k, tracer=None):
    return env.runner.cooperative.run_split(
        plan, k, ExecutionContext(tracer=tracer))


def _staged(env, plan, k, kernel, tracer=None):
    """Drive the lifecycle by hand on ``kernel``; returns the report."""
    prepared = env.runner.cooperative.prepare_split(
        plan, k, ExecutionContext(tracer=tracer), kernel=kernel)
    prepared.start(0.0)
    kernel.loop.run()
    total = kernel.horizon
    return prepared.finish(total, resource_stats=kernel.resource_stats(total))


def _payload(report):
    return json.dumps(report.to_dict(include_rows=True,
                                     include_timeline=True))


def _feasible(env, plan):
    """``(k, serial payload)`` for every Hk the device can host."""
    found = []
    for k in range(plan.table_count):
        try:
            found.append((k, _payload(_serial(env, plan, k))))
        except ReproError:
            continue    # pipeline does not fit the device: infeasible
    assert found
    return found


@pytest.mark.parametrize("name", QUERIES)
def test_staged_lifecycle_equals_run_split(job_env, name):
    # Held before the drivers were unified too (passes at the parent
    # commit): the refactor's safety net.
    plan = job_env.runner.plan(query(name))
    reserved_before = job_env.device.reserved_bytes
    for k, serial in _feasible(job_env, plan):
        staged = _staged(job_env, plan, k, SimContext.fresh())
        assert _payload(staged) == serial, f"H{k}"
        assert job_env.device.reserved_bytes == reserved_before


@pytest.mark.parametrize("name", QUERIES)
def test_traced_and_indexed_kernels_match_the_serial_run(job_env, name):
    """An unlabelled staged run exports the serial trace byte for byte;
    ``SimContext.fresh(1)`` differs only by the ``[0]`` name suffix."""
    plan = job_env.runner.plan(query(name))
    for k, serial in _feasible(job_env, plan):
        indexed = _payload(_staged(job_env, plan, k, SimContext.fresh(1)))
        assert indexed.replace("[0]", "") == serial, f"H{k}"

        tracer = Tracer()
        traced = _payload(_serial(job_env, plan, k, tracer))
        trace = tracer.dumps()
        tracer = Tracer()
        staged = _staged(job_env, plan, k, SimContext.fresh(tracer=tracer),
                         tracer)
        assert _payload(staged) == traced, f"H{k}"
        assert tracer.dumps() == trace, f"H{k}"
        tracer = Tracer()
        staged = _staged(job_env, plan, k, SimContext.fresh(1, tracer=tracer),
                         tracer)
        assert _payload(staged).replace("[0]", "") == traced, f"H{k}"
        assert tracer.dumps().replace("[0]", "") == trace, f"H{k}"
