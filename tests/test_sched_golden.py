"""Scheduler golden: one faulted, re-planning workload, pinned byte for byte.

The fixture holds a closed-loop :class:`WorkloadScheduler` run of a
14-job JOB mix at scale 0.0002, with mid-query re-planning
(``ReplanPolicy``) and cost correction (``CostCorrection``), under one
fault injector drawn from a plan that combines command, flash, link,
core and DRAM faults.  One injector serves the whole run, so the jobs
draw different faults, and the run takes every placement path:
host-only, ``Hk`` offloads, a shift-split re-plan, a re-plan to the
host, an abandoned offload's host fallback and an admission-timeout
fallback.  It stores the run's ``to_dict(include_reports=True)`` (the
plan cache's counts depend on what ran before, so they are dropped),
one line per job with its full report and timeline, and a sha256 of
the run's Perfetto trace.  A change to the scheduler, the staged split
or how host work reads the tables must reproduce it exactly.  If an
intentional change to the cost model, the timeline or the engine's
charges alters it, regenerate the fixture:

    PYTHONPATH=src:tests python -c "
    from test_sched_golden import GOLDEN, golden_text, scheduled_workload
    GOLDEN.write_text(golden_text(scheduled_workload()))"

and explain what moved in the commit message.
"""

import hashlib
import json
from pathlib import Path

from repro.context import ExecutionContext
from repro.core import CostCorrection, ReplanPolicy
from repro.faults import (CommandFaultModel, CoreFaultModel, DramFaultModel,
                          FaultPlan, FaultWindow, FlashFaultModel,
                          LinkFaultModel)
from repro.sched import ClosedLoopArrivals, WorkloadScheduler
from repro.sim import Tracer
from repro.workloads.loader import build_environment

GOLDEN = Path(__file__).parent / "golden" / "sched_v1.json"

MIX = "1a 2a 3b 4a 6a 8c 10a 14a 16b 22c 1a 8c 6a 3b".split()

FAULTS = FaultPlan(
    seed=7,
    commands=CommandFaultModel(probability=0.5),
    flash=FlashFaultModel(probability=0.05),
    link=LinkFaultModel(windows=(FaultWindow(0.0, 0.004),), slowdown=3.0),
    core=CoreFaultModel(windows=(FaultWindow(0.001, 0.003),)),
    # Past the admission timeout, and large enough to turn away the
    # bigger pipelines only.
    dram=DramFaultModel(windows=(FaultWindow(0.0, 0.06),),
                        shrink_bytes=128 << 20),
)


def scheduled_workload():
    """The fixture's run, as ``{key: JSON-ready value}``.

    A fresh environment, not the session one: a test that writes to
    that would otherwise move the charges compared here.
    """
    env = build_environment(scale=0.0002, seed=7)
    tracer = Tracer()
    scheduler = WorkloadScheduler(
        env, ctx=ExecutionContext(tracer=tracer, faults=FAULTS.injector()),
        replan=ReplanPolicy(), correction=CostCorrection())
    scheduler.submit_closed_loop(MIX, ClosedLoopArrivals(
        clients=3, think_time=0.0005, seed=5))
    payload = scheduler.run().to_dict(include_reports=True)
    del payload["plan_cache"]
    jobs = payload.pop("jobs")
    digest = {"workload": payload,
              "trace_sha256": hashlib.sha256(
                  tracer.dumps().encode()).hexdigest()}
    digest.update((f"job {job['seq']:02d}", job) for job in jobs)
    return digest


def golden_text(digest):
    """The fixture's text: one line per key, so a diff names the job."""
    lines = (f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
             for key, value in sorted(digest.items()))
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_scheduled_workload_reproduces_golden():
    text = golden_text(scheduled_workload())
    golden = json.loads(GOLDEN.read_text())
    ours = json.loads(text)
    assert sorted(ours) == sorted(golden)
    for key, value in golden.items():
        assert ours[key] == value, key
    assert text == GOLDEN.read_text()


def test_golden_covers_every_placement_path():
    golden = json.loads(GOLDEN.read_text())
    jobs = [value for key, value in golden.items() if key.startswith("job")]
    fallbacks = {job["report"]["resilience"]["fallback_from"].split(":")[0]
                 for job in jobs if job["placement"] == "host-fallback"}
    assert fallbacks == {"H1", "replan", "admission-timeout"}
    assert {job["placement"] for job in jobs} >= {
        "host-only", "host-fallback", "H0", "H1", "H2"}
    adaptivity = golden["workload"]["adaptivity"]
    actions = {event["action"] for job in jobs
               for event in job["report"]["adaptivity"]["events"]}
    assert actions == {"kept", "shift-split", "shed-to-host"}
    assert adaptivity["replans"] == 5
