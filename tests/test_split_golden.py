"""Split golden: every hybrid split's batches, time and host work, pinned.

The fixture holds, for each split ``Hk`` of a set of JOB queries, the
report's batch count, simulated total time, host counters and a sha256
of its timeline phases and of its result rows (or the error class of an
infeasible split).  The set covers 1-stage and many-stage host
fragments, indexed joins (scale 0.0004) and block nested loops (scale
0.0008 without secondary indexes), self-joins (22c, 33c), empty device
results (33c H8, H9), splits of more than 100 device batches (8c H5,
6d H3), a host residual that names a device alias, and forced grace
hash and nested loop joins.  A change to how the host joins device
batches must reproduce it exactly.  If an intentional change to the
cost model, the timeline or the engine's charges alters it, regenerate
the fixture:

    PYTHONPATH=src:tests python -c "
    from test_split_golden import GOLDEN, golden_text, split_digests
    GOLDEN.write_text(golden_text(split_digests()))"

and explain what moved in the commit message.
"""

import hashlib
import json
from pathlib import Path

from repro.bench.experiments import force_join
from repro.engine.stacks import Stack
from repro.errors import ReproError
from repro.query.physical import JoinAlgorithm
from repro.workloads.job_queries import query
from repro.workloads.loader import build_environment

GOLDEN = Path(__file__).parent / "golden" / "splits_v1.json"

#: ``t`` on the device, ``mc`` on the host; the last conjunct is a host
#: residual that names the device alias ``t``.
RESIDUAL_SQL = """SELECT t.id AS movie, mc.id AS mc_id, mc.note AS note
FROM title AS t, movie_companies AS mc
WHERE t.production_year > 2005 AND mc.movie_id = t.id
  AND mc.company_type_id <> t.kind_id"""

#: Queries per environment build; a query is a JOB name, the residual
#: query, or ``name/ALGORITHM`` for a JOB plan with every join forced.
INDEXED = ("1a", "6d", "8c", "9d", "16b", "22c", "33c", "residual",
           "1a/GHJ", "1a/NLJ", "6d/GHJ")
NOINDEX = ("1a", "6d", "8c")


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _plan(env, name):
    if name == "residual":
        return env.runner.plan(RESIDUAL_SQL)
    name, _, forced = name.partition("/")
    plan = env.runner.plan(query(name))
    return force_join(plan, JoinAlgorithm[forced]) if forced else plan


def split_digest(env, plan, k):
    """What split ``Hk`` of ``plan`` reports, as JSON-ready data."""
    try:
        report = env.runner.run(plan, Stack.HYBRID, split_index=k)
    except ReproError as error:
        return {"error": type(error).__name__}
    phases = [[phase.actor, phase.kind, repr(phase.start), repr(phase.end),
               phase.label, phase.resource] for phase in report.timeline]
    return {
        "batches": report.batches,
        "total_time": repr(report.total_time),
        "host_counters": report.host_counters.as_dict(),
        "timeline_sha256": _sha(json.dumps(phases)),
        "rows_sha256": _sha(json.dumps(report.result.sorted_rows(),
                                       sort_keys=True, default=str)),
    }


def split_digests():
    """Every split of the fixture's queries, keyed ``build/query/Hk``.

    Fresh environments, not the session ones: a test that writes to
    those would otherwise move the charges compared here.
    """
    digests = {}
    for build, scale, names in (("indexed", 0.0004, INDEXED),
                                ("noindex", 0.0008, NOINDEX)):
        env = build_environment(scale=scale, seed=7,
                                secondary_indexes=build == "indexed")
        for name in names:
            plan = _plan(env, name)
            for k in range(plan.table_count):
                digests[f"{build}/{name}/H{k}"] = split_digest(env, plan, k)
    return digests


def golden_text(digests):
    """The fixture's text: one line per split, so a diff names it."""
    lines = (f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
             for key, value in sorted(digests.items()))
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_every_split_reproduces_golden():
    golden = json.loads(GOLDEN.read_text())
    digests = split_digests()
    assert sorted(digests) == sorted(golden)
    for key, value in golden.items():
        assert digests[key] == value, key
