"""plan_cold: parse, optimise, decide and render without executing."""

import random
from functools import partial

from perfbench.harness import Failure, Verdict, Workload
from perfbench.workloads.common import build_env, plan_cache_facts

#: Generated queries per run, on top of the 113 JOB queries.
GENERATED = 200
WARM_HITS = "plan_cache/warm_hits"


def _plan_cold(sql, env):
    """The uncached front half of a query's life; nothing here memoises.

    The functions are looked up on ``repro.query`` at call time so the
    traced run's wrappers are seen.
    """
    import repro.query as query_layer
    parsed = query_layer.parse_query(sql)
    plan = query_layer.build_plan(sql, env.catalog)
    decision = env.planner.decide(plan)
    return plan, decision, query_layer.render_query(parsed)


def _warm_hits(sqls, runner):
    return [runner.plan(sql) for sql in sqls]


class PlanCold(Workload):
    name = "plan_cold"
    why = ("query + core layers only, engine and LSM none: all 113 JOB "
           "queries and 200 seeded sqlgen queries are parsed, join-ordered, "
           "costed, split and rendered, never executed")

    def setup(self, seed, quick):
        return build_env(secondary_indexes=True)

    def prepare(self, state, seed, quick):
        from repro.workloads.job_queries import all_queries
        from repro.workloads.sqlgen import generate_corpus
        named = list(all_queries().items())
        named += [(generated.name, generated.sql)
                  for generated in generate_corpus(seed, GENERATED)]
        if quick:
            named = named[:5] + named[-5:]
        env = state.env
        ops = [(f"cold/{name}", partial(_plan_cold, sql, env))
               for name, sql in named]
        random.Random(seed).shuffle(ops)
        state.sqls = [sql for _name, sql in named]
        for sql in state.sqls:
            env.runner.plan(sql)         # the warm-hit op must only hit
        ops.append((WARM_HITS, partial(_warm_hits, state.sqls, env.runner)))
        return ops

    def judge(self, state, ops, outcomes):
        import repro.query as query_layer
        verdict = Verdict()
        for (op_id, _fn), outcome in zip(ops, outcomes):
            if isinstance(outcome, (Failure, Exception)):
                # Every query here parses and plans: a refusal is a bug.
                verdict.failures[op_id] = getattr(outcome, "reason",
                                                  repr(outcome))
            elif op_id == WARM_HITS:
                if len(outcome) != len(state.sqls):
                    verdict.failures[op_id] = "missing cached plans"
            else:
                plan, decision, rendered = outcome
                again = query_layer.render_query(
                    query_layer.parse_query(rendered))
                if again != rendered:
                    verdict.failures[op_id] = "render is not a fixpoint"
                verdict.rows.append(
                    (op_id, f"{rendered}\t{decision.strategy_name}"))
                verdict.sims.append(
                    (op_id, f"{decision.c_total_host!r} "
                            f"{decision.c_total_device!r}"))
                verdict.counts.append((op_id, " ".join(
                    f"{entry.alias}:{entry.access_path}:"
                    f"{entry.join_algorithm}" for entry in plan.entries)))
        return verdict

    def layer_facts(self, state, ops, outcomes, best_ns):
        facts = plan_cache_facts(state.env.runner)
        facts["workloads.rows_loaded"] = state.env.total_rows
        return facts


PLAN_COLD = PlanCold()
