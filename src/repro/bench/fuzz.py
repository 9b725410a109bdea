"""Differential fuzzing harness over generated SQL workloads.

Every query from :class:`~repro.workloads.sqlgen.RandomSqlGenerator` is
executed under each configured mode and its rows diffed against the
host-BLK baseline:

``host``
    Host NVMe execution (``Stack.NATIVE``) — same engine family,
    different IO path.
``split``
    Cooperative execution (``Stack.HYBRID``) at the default split point
    (deepest offloadable Hk at or below the pipeline middle, the same
    split the chaos harness degrades).
``scheduler``
    All corpus queries submitted as one closed-loop workload on a shared
    :class:`~repro.sched.WorkloadScheduler` kernel — queries contend for
    the link, NDP core, host CPU, and device DRAM; every job's report
    rows must still match its serial baseline.
``cluster2`` / ``cluster4``
    2- and 4-device :class:`~repro.cluster.ScatterGatherExecutor`
    scatter-gather; the merged report's rows must match, and every
    resource's utilization must stay ``<= 1``.

Failures shrink automatically (:func:`shrink_sql`: drop tables while the
join graph stays connected, drop non-join conjuncts, shrink OR groups
and IN lists, drop GROUP BY — greedily, while the failure reproduces)
and land in ``failures.jsonl`` next to the full ``corpus.jsonl`` for
replay (``repro fuzz --replay``).  Outcomes are plain dicts with stable
ordering, so two runs of the same seed serialize byte-for-byte equal —
the determinism contract CI checks by running ``repro fuzz`` twice and
``cmp``-ing the two ``--output`` files.
"""

import json
import os
from dataclasses import dataclass, field, replace

from repro.bench.chaos import default_split
from repro.cluster import DeviceCluster
from repro.context import ExecutionContext
from repro.engine.stacks import Stack
from repro.errors import (DeviceOverloadError, EventBudgetExceeded,
                          OffloadError, ReproError)
from repro.query.ast import ColumnRef, Comparison, InList, Or, conjuncts, \
    make_and
from repro.query.parser import SelectItem, parse_query
from repro.query.render import render_query
from repro.sched import WorkloadScheduler
from repro.sched.arrivals import ClosedLoopArrivals
from repro.storage.topology import PartitionSpec
from repro.workloads.sqlgen import RandomSqlGenerator, SqlGenConfig

#: The documented infeasibility exceptions: a fragment that exceeds the
#: device join cap or an operator the NDP engine cannot run.  Anything
#: else raised during a mode is a failure.
INFEASIBLE = (DeviceOverloadError, OffloadError)

#: All differential modes, in execution order.
MODES = ("host", "split", "scheduler", "cluster2", "cluster4")

#: Utilization tolerance (mirrors the cluster test suite).
_UTIL_EPS = 1e-9


@dataclass(frozen=True)
class FuzzFailure:
    """One (query, mode) divergence, with its shrunk reproduction."""

    name: str
    seed: int
    index: int
    mode: str
    kind: str          # "mismatch" | "error" | "utilization"
    detail: str
    sql: str
    shrunk_sql: str = None

    def to_dict(self):
        return {"name": self.name, "seed": self.seed, "index": self.index,
                "mode": self.mode, "kind": self.kind, "detail": self.detail,
                "sql": self.sql, "shrunk_sql": self.shrunk_sql}


@dataclass
class FuzzReport:
    """The outcome of one differential fuzz sweep."""

    seed: int
    queries: int
    modes: tuple
    checks: int = 0            # (query, mode) comparisons that ran
    infeasible: int = 0        # split attempts the device cannot run
    budget: int = 0            # runs that exceeded the event loop's cap
    failures: list = field(default_factory=list)
    corpus: list = field(default_factory=list)   # GeneratedQuery list

    @property
    def ok(self):
        return not self.failures

    def to_dict(self):
        """JSON-ready, stable ordering — the determinism artifact.

        ``budget`` is only present when some run exceeded the event cap.
        """
        payload = {
            "schema_version": 1,
            "seed": self.seed,
            "queries": self.queries,
            "modes": list(self.modes),
            "checks": self.checks,
            "infeasible": self.infeasible,
            "ok": self.ok,
            "failures": [failure.to_dict() for failure in self.failures],
        }
        if self.budget:
            payload["budget"] = self.budget
        return payload


class FuzzHarness:
    """Runs a generated corpus differentially across execution modes."""

    def __init__(self, env, seed=0, config=None, modes=MODES, ctx=None,
                 scheduler_batch=25):
        unknown = set(modes) - set(MODES)
        if unknown:
            raise ReproError(
                f"unknown fuzz modes {sorted(unknown)}; known: {MODES}")
        self.env = env
        self.seed = seed
        self.modes = tuple(mode for mode in MODES if mode in modes)
        self.ctx = ExecutionContext.coerce(ctx)
        self.generator = RandomSqlGenerator(seed=seed, config=config)
        self.scheduler_batch = scheduler_batch
        self._clusters = {}

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self, count):
        """Fuzz the first ``count`` queries of the seed."""
        corpus = self.generator.generate(count)
        return self.run_corpus(corpus)

    def run_corpus(self, corpus):
        """Differentially execute an explicit corpus."""
        report = FuzzReport(seed=self.seed, queries=len(corpus),
                            modes=self.modes, corpus=list(corpus))
        baselines = {}
        for query in corpus:
            plan = self.env.runner.plan(query.sql)
            baselines[query.name] = (
                plan, self.env.run(plan, Stack.BLK).result.sorted_rows())
        for query in corpus:
            plan, baseline = baselines[query.name]
            for mode in self.modes:
                if mode == "scheduler":
                    continue       # batched below
                self._check_mode(report, query, plan, baseline, mode)
        if "scheduler" in self.modes:
            self._check_scheduler(report, corpus, baselines)
        return report

    # ------------------------------------------------------------------
    # Per-mode execution
    # ------------------------------------------------------------------
    def _check_mode(self, report, query, plan, baseline, mode):
        try:
            if mode == "host":
                run = self.env.run(plan, Stack.NATIVE)
                rows = run.result.sorted_rows()
                stats = getattr(run, "resource_stats", None)
            elif mode == "split":
                split = default_split(self.env.runner, plan)
                run = self.env.run(plan, Stack.HYBRID, split_index=split)
                rows = run.result.sorted_rows()
                stats = getattr(run, "resource_stats", None)
            elif mode in ("cluster2", "cluster4"):
                run = self._cluster(mode).run(plan)
                rows = run.result.sorted_rows()
                stats = run.resource_stats
            else:                   # pragma: no cover - guarded in __init__
                raise ReproError(f"unhandled mode {mode!r}")
        except INFEASIBLE:
            report.infeasible += 1
            return
        except EventBudgetExceeded:
            report.budget += 1
            return
        except ReproError as exc:
            self._fail(report, query, mode, "error",
                       f"{type(exc).__name__}: {exc}")
            return
        report.checks += 1
        if rows != baseline:
            self._fail(report, query, mode, "mismatch",
                       self._diff_detail(baseline, rows))
            return
        self._check_utilization(report, query, mode, stats)

    def _check_scheduler(self, report, corpus, baselines):
        """Run the corpus as closed-loop workloads on shared kernels.

        Batches keep each simulated timeline (and its event heap) small;
        every batch gets a fresh scheduler, so one corpus's results are
        independent of any other fuzz sweep.
        """
        for start in range(0, len(corpus), self.scheduler_batch):
            batch = corpus[start:start + self.scheduler_batch]
            scheduler = WorkloadScheduler(
                self.env, ctx=self.ctx,
                queries={query.name: query.sql for query in batch})
            try:
                scheduler.submit_closed_loop(
                    [query.name for query in batch],
                    ClosedLoopArrivals(clients=4, seed=self.seed))
                result = scheduler.run()
            except EventBudgetExceeded:
                report.budget += len(batch)
                continue
            except ReproError as exc:
                for query in batch:
                    self._fail(report, query, "scheduler", "error",
                               f"{type(exc).__name__}: {exc}")
                continue
            by_name = {query.name: query for query in batch}
            for job in result.jobs:
                query = by_name[job.name]
                report.checks += 1
                if job.report is None or job.report.result is None:
                    self._fail(report, query, "scheduler", "error",
                               f"no result (error={job.error!r})")
                    continue
                rows = job.report.result.sorted_rows()
                baseline = baselines[job.name][1]
                if rows != baseline:
                    self._fail(report, query, "scheduler", "mismatch",
                               self._diff_detail(baseline, rows))
            for name, stats in result.resource_stats.items():
                if stats["utilization"] > 1.0 + _UTIL_EPS:
                    self._fail(
                        report, batch[0], "scheduler", "utilization",
                        f"{name} utilization {stats['utilization']:.6f} > 1"
                        f" (batch at query {batch[0].name})")

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _cluster(self, mode):
        if mode not in self._clusters:
            n_devices = 2 if mode == "cluster2" else 4
            kind = "range" if mode == "cluster2" else "hash"
            self._clusters[mode] = DeviceCluster(
                self.env, n_devices=n_devices,
                partitioner=PartitionSpec(kind, seed=0))
        return self._clusters[mode]

    def _check_utilization(self, report, query, mode, stats):
        for name, entry in (stats or {}).items():
            utilization = entry.get("utilization")
            if utilization is not None and utilization > 1.0 + _UTIL_EPS:
                self._fail(report, query, mode, "utilization",
                           f"{name} utilization {utilization:.6f} > 1")

    def _fail(self, report, query, mode, kind, detail):
        shrunk = self._shrink_for(query, mode, kind)
        report.failures.append(FuzzFailure(
            name=query.name, seed=query.seed, index=query.index,
            mode=mode, kind=kind, detail=detail, sql=query.sql,
            shrunk_sql=shrunk))

    def _shrink_for(self, query, mode, kind):
        """Shrink a failing query while the same (mode, kind) fails."""
        if mode == "scheduler" or kind == "utilization":
            # Scheduler failures are workload-level (contention on the
            # shared kernel), not single-query-reducible.
            return None

        def still_fails(sql):
            try:
                plan = self.env.runner.plan(sql)
                baseline = self.env.run(plan, Stack.BLK).result.sorted_rows()
                if mode == "host":
                    rows = self.env.run(
                        plan, Stack.NATIVE).result.sorted_rows()
                elif mode == "split":
                    split = default_split(self.env.runner, plan)
                    rows = self.env.run(
                        plan, Stack.HYBRID,
                        split_index=split).result.sorted_rows()
                else:
                    rows = self._cluster(mode).run(plan).result.sorted_rows()
            except (INFEASIBLE, EventBudgetExceeded):
                return False
            except ReproError:
                return kind == "error"
            return kind == "mismatch" and rows != baseline

        try:
            return shrink_sql(query.sql, still_fails)
        except ReproError:     # never let shrinking mask the real failure
            return None

    @staticmethod
    def _diff_detail(baseline, rows):
        missing = [row for row in baseline if row not in rows]
        extra = [row for row in rows if row not in baseline]
        return (f"{len(baseline)} baseline vs {len(rows)} rows; "
                f"missing={missing[:3]!r} extra={extra[:3]!r}")


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------

def _is_join_conjunct(expr):
    """``a.x = b.y`` between two different aliases."""
    return (isinstance(expr, Comparison) and expr.op == "="
            and isinstance(expr.left, ColumnRef)
            and isinstance(expr.right, ColumnRef)
            and expr.left.alias != expr.right.alias)


def _connected(aliases, where):
    """Do the join conjuncts connect all ``aliases``?"""
    if len(aliases) <= 1:
        return True
    adjacency = {alias: set() for alias in aliases}
    for conjunct in conjuncts(where):
        if _is_join_conjunct(conjunct):
            left = conjunct.left.alias
            right = conjunct.right.alias
            if left in adjacency and right in adjacency:
                adjacency[left].add(right)
                adjacency[right].add(left)
    seen = set()
    stack = [next(iter(sorted(aliases)))]
    while stack:
        alias = stack.pop()
        if alias in seen:
            continue
        seen.add(alias)
        stack.extend(adjacency[alias] - seen)
    return seen == set(aliases)


def _drop_table(parsed, victim_alias):
    """``parsed`` without table ``victim_alias``, or None if impossible."""
    tables = [(name, alias) for name, alias in parsed.tables
              if alias != victim_alias]
    if not tables:
        return None
    remaining = {alias for _name, alias in tables}
    kept = [conjunct for conjunct in conjuncts(parsed.where)
            if victim_alias not in conjunct.aliases()]
    where = make_and(kept)
    if not _connected(remaining, where):
        return None
    select_items = [item for item in parsed.select_items
                    if item.expr == "*"
                    or not (hasattr(item.expr, "aliases")
                            and victim_alias in item.expr.aliases())]
    if not select_items:
        select_items = [SelectItem("*", aggregate="count", alias="c0")]
    group_by = [column for column in parsed.group_by
                if victim_alias not in column.aliases()]
    return replace(parsed, select_items=select_items, tables=tables,
                   where=where, group_by=group_by)


def _candidates(parsed):
    """Strictly-smaller variants of ``parsed``, most aggressive first."""
    for _name, alias in parsed.tables:
        smaller = _drop_table(parsed, alias)
        if smaller is not None:
            yield smaller
    parts = conjuncts(parsed.where)
    for position, conjunct in enumerate(parts):
        if _is_join_conjunct(conjunct):
            continue
        kept = parts[:position] + parts[position + 1:]
        yield replace(parsed, where=make_and(kept))
    for position, conjunct in enumerate(parts):
        if isinstance(conjunct, Or):
            for item in conjunct.items:
                kept = list(parts)
                kept[position] = item
                yield replace(parsed, where=make_and(kept))
        elif isinstance(conjunct, InList) and len(conjunct.values) > 1:
            kept = list(parts)
            kept[position] = replace(
                conjunct, values=conjunct.values[:len(conjunct.values) // 2
                                                 or 1])
            yield replace(parsed, where=make_and(kept))
    if parsed.group_by:
        yield replace(parsed, group_by=[])


def shrink_sql(sql, still_fails, max_rounds=64):
    """Greedily shrink ``sql`` while ``still_fails(smaller_sql)``.

    Transforms, in order of aggressiveness: drop a table (only when the
    join graph stays connected, pruning its predicates/projections),
    drop a non-join conjunct, collapse an OR group to one branch, halve
    an IN list, drop GROUP BY.  The returned SQL is the smallest variant
    reached; it always still fails, and is ``sql`` itself when nothing
    smaller reproduces.
    """
    best = parse_query(sql)
    for _round in range(max_rounds):
        for candidate in _candidates(best):
            candidate_sql = render_query(candidate)
            if still_fails(candidate_sql):
                best = parse_query(candidate_sql)
                break
        else:
            break
    return render_query(best)


# ----------------------------------------------------------------------
# Corpus persistence + replay
# ----------------------------------------------------------------------

def write_corpus(report, directory):
    """Write ``corpus.jsonl`` (+ ``failures.jsonl`` if any) for replay."""
    os.makedirs(directory, exist_ok=True)
    corpus_path = os.path.join(directory, "corpus.jsonl")
    with open(corpus_path, "w") as handle:
        for query in report.corpus:
            handle.write(json.dumps(query.to_dict(), sort_keys=True) + "\n")
    paths = {"corpus": corpus_path}
    if report.failures:
        failures_path = os.path.join(directory, "failures.jsonl")
        with open(failures_path, "w") as handle:
            for failure in report.failures:
                handle.write(
                    json.dumps(failure.to_dict(), sort_keys=True) + "\n")
        paths["failures"] = failures_path
    return paths


def load_failures(path):
    """Parse a ``failures.jsonl`` (or ``corpus.jsonl``) back into dicts."""
    entries = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def replay_failures(env, path, modes=MODES, ctx=None):
    """Re-run every ``(seed, index)`` recorded in a jsonl file.

    Each entry is regenerated from its seed (verifying the generator
    still produces the recorded SQL) and fuzzed under ``modes``; returns
    one :class:`FuzzReport` per distinct seed.
    """
    entries = load_failures(path)
    by_seed = {}
    for entry in entries:
        by_seed.setdefault(entry["seed"], set()).add(entry["index"])
    reports = []
    for seed in sorted(by_seed):
        generator = RandomSqlGenerator(seed=seed)
        corpus = [generator.generate_one(index)
                  for index in sorted(by_seed[seed])]
        recorded = {entry["index"]: entry["sql"] for entry in entries
                    if entry["seed"] == seed}
        for query in corpus:
            if recorded.get(query.index) != query.sql:
                raise ReproError(
                    f"generator drift: seed {seed} index {query.index} "
                    f"no longer reproduces the recorded SQL")
        harness = FuzzHarness(env, seed=seed, modes=modes, ctx=ctx)
        reports.append(harness.run_corpus(corpus))
    return reports


__all__ = ["FuzzFailure", "FuzzHarness", "FuzzReport", "INFEASIBLE",
           "MODES", "load_failures", "replay_failures", "shrink_sql",
           "write_corpus", "SqlGenConfig"]
