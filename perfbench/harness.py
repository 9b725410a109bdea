"""Pass loop, timing rule, correctness bookkeeping and result assembly.

**Timing rule.**  A workload is a fixed, seeded list of deterministic ops.
The list is run as whole passes for ``--seconds`` seconds (at least two
passes); an op's time is its *minimum* over the passes, because the ops
are deterministic and everything else on a shared two-core box only ever
adds time.  End-to-end aggregates (sum, median, tail percentile,
geomean) are computed over those per-op minima.  The first pass doubles
as the warm-up: it fills the plan cache and the decoder caches, so it can
only be slower and never sets a minimum that a warm pass would not beat;
it is left out of ``harness.pass_spread``.  ``gc.collect()`` runs before
each pass, the collector otherwise stays on.  Op times are taken to
reference speed before the minimum (:mod:`perfbench.speed`: the box's
speed drifts 1.0x-1.6x for longer than a run).  Each op has a deadline;
a timeout, a wrong result, or an exception that is not a typed
:class:`~repro.errors.ReproError` is a *failed* op, while a typed refusal
(a strategy that does not fit the device) is a completed op.
"""

import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from time import perf_counter_ns

from perfbench import ROOT, metrics, stats
from perfbench.speed import NOMINAL_PROBE_NS, OpTimeout, SpeedSampler
from perfbench.tracing import Recorder, tracing

#: Per-op timeout (seconds); 31a-class runaways fail instead of hanging.
OP_TIMEOUT_S = 60.0
#: How often set-up is repeated so ``setup_s`` is a median, not a sample.
SETUP_REPEATS = 3
#: Dataset scale of every JOB-backed workload.
SCALE = 0.0002
#: The database the JOB workloads query is part of the benchmark's
#: definition, not of its seeded input: across dataset seeds one pass of
#: the same sweep ranged 4.7 s .. 19.6 s (README), which no bound could
#: absorb.  ``--seed`` drives op order, generated SQL, arrivals and the
#: KV op stream instead.
DATASET_SEED = 7

#: 1-min load average above which a run warns.  The issue asked for 1.0,
#: but back-to-back runs of this single-threaded benchmark alone hold the
#: load at 1.0; another busy process on the two cores shows as 2.
LOAD_WARNING = 1.5

EXPECTED_DIR = os.path.join(ROOT, "perfbench", "expected")


@dataclass
class Failure:
    """Outcome of an op that did not complete correctly."""

    reason: str


@dataclass
class Verdict:
    """What one pass's outcomes say about correctness and drift.

    ``failures`` maps op id -> reason; the three lists hold ``(op id,
    payload)`` pairs whose digests are compared with
    ``perfbench/expected/`` to flag drift in rows, simulated times and
    exact counts.
    """

    failures: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    sims: list = field(default_factory=list)
    counts: list = field(default_factory=list)

    def digests(self):
        return {"rows": _digest(self.rows), "sim": _digest(self.sims),
                "counts": _digest(self.counts)}


def _digest(pairs):
    lines = sorted(f"{op_id}\t{payload}" for op_id, payload in pairs)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


class Workload:
    """Base class: one named, seeded op list over the program's API."""

    name = ""
    why = ""
    #: ``job_heavy`` runs its op list once (single samples, wider noise).
    single_pass = False

    def setup(self, seed, quick):
        """Build everything the ops need; timed as one ``setup_s`` sample."""
        raise NotImplementedError

    def prepare(self, state, seed, quick):
        """The op list ``[(op id, callable), ...]`` in seeded order."""
        raise NotImplementedError

    def begin_pass(self, state, timed_setup):
        """Reset per-pass state.

        A workload whose passes consume what set-up built rebuilds it
        here through ``timed_setup(build)``, which files the rebuild as a
        further ``setup_s`` sample.
        """

    def run_pass(self, state, ops, clock):
        """Run every op under ``clock``; returns outcomes aligned to ops."""
        return [clock.run(index, op_id, fn)
                for index, (op_id, fn) in enumerate(ops)]

    def judge(self, state, ops, outcomes):
        """Check the outcomes; returns a :class:`Verdict`."""
        raise NotImplementedError

    def sim_metrics(self, state, ops, outcomes):
        """Simulated-clock end-to-end metrics of this workload."""
        return {}

    def layer_facts(self, state, ops, outcomes, best_ns):
        """Per-layer metrics read from the program's public outputs."""
        return {}


class PassClock:
    """Times the ops of one pass; opens op spans when tracing.

    ``starts`` and ``times`` hold, per op, the start timestamp and the
    measured duration net of the speed probes that interrupted it (ns).
    """

    def __init__(self, op_count, sampler, timeout_s=OP_TIMEOUT_S,
                 recorder=None):
        self.starts = [0] * op_count
        self.times = [0] * op_count
        self.sampler = sampler
        self.timeout_ns = int(timeout_s * 1e9)
        self.recorder = recorder

    def run(self, index, op_id, fn):
        """Run ``fn`` timed and guarded; returns its outcome.

        The outcome is ``fn``'s return value, the ``ReproError`` it was
        refused with, or a :class:`Failure`.
        """
        from repro.errors import ReproError
        recorder = self.recorder
        spent, deadline = self.sampler.spent, self.sampler.deadline
        span = recorder.begin_op(op_id) if recorder is not None else None
        probes_before = spent[0]
        start = perf_counter_ns()
        deadline[0] = start + self.timeout_ns
        try:
            outcome = fn()
        except ReproError as refusal:
            outcome = refusal
        except OpTimeout:
            outcome = Failure(
                f"timeout after {self.timeout_ns / 1e9:g} s")
        except Exception as error:   # boundary: record, keep measuring
            outcome = Failure(f"{type(error).__name__}: {error}")
        finally:
            deadline[0] = 0
            self.starts[index] = start
            self.times[index] = (perf_counter_ns() - start
                                 - (spent[0] - probes_before))
            if span is not None:
                recorder.end_op(span)
        return outcome

    @contextlib.contextmanager
    def whole_pass(self, op_id):
        """One deadline and one op span around a pass that times its own
        ops (``lsm_mixed``: 80 000 ops of a few µs each)."""
        recorder = self.recorder
        span = recorder.begin_op(op_id) if recorder is not None else None
        self.sampler.deadline[0] = perf_counter_ns() + self.timeout_ns
        try:
            yield
        finally:
            self.sampler.deadline[0] = 0
            if span is not None:
                recorder.end_op(span)


# ----------------------------------------------------------------------
# Environment fingerprint
# ----------------------------------------------------------------------
def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"      # the driver's checkout is not a repository
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(seed):
    """Where and on what these numbers were taken."""
    import numpy
    load = os.getloadavg()[0]
    if load > LOAD_WARNING:
        print(f"perfbench: warning: 1-min load average {load:.2f}; "
              f"host-clock numbers will be noisy", file=sys.stderr)
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "load_1min_at_start": load,
        "threads": {var: os.environ.get(var) for var in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "seed": seed,
        "dataset_seed": DATASET_SEED,
        "scale": SCALE,
    }


# ----------------------------------------------------------------------
# Expected digests (drift files)
# ----------------------------------------------------------------------
def _expected_path(seed):
    return os.path.join(EXPECTED_DIR, f"seed{seed}.json")


def load_expected(seed):
    """``{workload: {rows, sim, counts}}`` for ``seed``; ``{}`` if absent."""
    try:
        with open(_expected_path(seed)) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def update_expected(seed, workload_name, digests):
    expected = load_expected(seed)
    expected[workload_name] = digests
    os.makedirs(EXPECTED_DIR, exist_ok=True)
    with open(_expected_path(seed), "w") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def host_metrics(best_ns):
    """The host-clock aggregates over per-op minima (ns)."""
    # An op a timed-out pass never reached has no time; 1 ns keeps the
    # geomean defined (the run is reported as failed anyway).
    times_ms = [max(ns, 1) / 1e6 for ns in best_ns]
    p95, p95_used = stats.tail_percentile(times_ms, 95)
    return {
        "wall_s": sum(best_ns) / 1e9,
        "op_ms_p50": stats.percentile(times_ms, 50),
        "op_ms_p95": p95,
        "op_ms_geomean": stats.geomean(times_ms),
    }, p95_used


def _per_op_min(passes):
    return [min(column) for column in zip(*passes)]


def leave_one_out_noise(passes):
    """How far each host metric moves when any one pass is dropped.

    ``(max - min) / min`` of the metric recomputed over every set of
    ``N - 1`` passes: the in-run noise estimate ``compare`` uses to call
    a difference *unresolved*.  Pass-wall spread would overstate it —
    the minimum over passes is far steadier than any single pass.
    """
    if len(passes) < 3:
        return {}
    variants = {}
    for skip in range(len(passes)):
        kept = [p for index, p in enumerate(passes) if index != skip]
        values, _used = host_metrics(_per_op_min(kept))
        for name, value in values.items():
            variants.setdefault(name, []).append(value)
    return {name: (max(vals) - min(vals)) / min(vals)
            for name, vals in variants.items()}


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run_workload(workload, seed=7, seconds=12.0, traced=False, quick=False,
                 op_timeout_s=OP_TIMEOUT_S, trace_out=None,
                 write_expected=False):
    """Run one workload; returns its result document (a plain dict).

    Untraced: set-up ``SETUP_REPEATS`` times, then passes for ``seconds``.
    Traced: the same with half the pass budget, the last set-up and one
    extra pass run under :func:`perfbench.tracing.tracing`; end-to-end
    metrics still come from the untraced passes only.
    """
    started = time.perf_counter()
    where = fingerprint(seed)
    setup_rec = Recorder() if traced else None
    pass_rec = Recorder() if traced else None
    # The sampler's lookup table is the benchmark's memory, not the
    # program's: at start-up peak RSS is current RSS, so the growth across
    # its construction is its footprint.
    rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sampler = SpeedSampler()
    sampler_rss_kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss_before)

    setup_samples = []   # seconds at reference speed
    setup_slowdowns = []
    passes = []          # per pass: per-op ns at reference speed
    raw_passes = []      # per pass: per-op ns as measured
    failures = {}
    verdict = None
    digests_seen = set()
    outcomes = None
    budget = seconds / 2 if traced else seconds

    def timed_setup(build):
        """Run ``build()``; file its duration as a set-up sample."""
        probes_before = sampler.spent[0]
        begin = perf_counter_ns()
        built = build()
        spent = (perf_counter_ns() - begin
                 - (sampler.spent[0] - probes_before))
        slowdown = sampler.slowdown(begin, begin + spent)
        setup_samples.append(spent / slowdown / 1e9)
        setup_slowdowns.append(slowdown)
        return built

    def one_pass(recorder=None):
        nonlocal verdict, outcomes
        gc.collect()
        workload.begin_pass(state, timed_setup)
        clock = PassClock(len(ops), sampler, op_timeout_s, recorder)
        # Only the ops run under the wrappers: judge calls into the same
        # layers and would be attributed to them.
        with (tracing(recorder) if recorder is not None
              else contextlib.nullcontext()):
            sampler.cover = recorder.covered if recorder else None
            outcomes = workload.run_pass(state, ops, clock)
            sampler.cover = None
        verdict = workload.judge(state, ops, outcomes)
        failures.update(verdict.failures)
        digests_seen.add(json.dumps(verdict.digests(), sort_keys=True))
        raw_passes.append(clock.times)
        return sampler.at_reference_speed(clock.starts, clock.times)

    with sampler.running():
        repeats = 1 if quick else SETUP_REPEATS
        for repeat in range(repeats):
            state = None
            gc.collect()
            trace_this = traced and repeat == repeats - 1
            with (tracing(setup_rec) if trace_this
                  else contextlib.nullcontext()):
                state = timed_setup(lambda: workload.setup(seed, quick))
        if traced:
            setup_rec.finish()
            traced_setup_slowdown = setup_slowdowns[-1]

        ops = workload.prepare(state, seed, quick)
        measure_start = time.perf_counter()
        min_passes = 1 if (workload.single_pass or traced) else 2
        while True:
            passes.append(one_pass())
            if workload.single_pass or (
                    len(passes) >= min_passes and (
                        quick or
                        time.perf_counter() - measure_start >= budget)):
                break
        traced_times = None
        if traced:
            traced_times = one_pass(pass_rec)
            pass_rec.finish()
            traced_raw_wall_s = sum(raw_passes.pop()) / 1e9

    if len(digests_seen) > 1:
        failures["harness/determinism"] = (
            "rows, simulated times or counts differed between passes")

    best_ns = _per_op_min(passes)
    host, p95_used = host_metrics(best_ns)
    attempted = len(ops)
    failed = min(attempted, len(failures))

    values = dict(host)
    values["setup_s"] = statistics.median(setup_samples)
    values["failed_ops_share"] = failed / attempted
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        - sampler_rss_kib) / 1024.0
    values.update(workload.sim_metrics(state, ops, outcomes))

    digests = verdict.digests()
    expected = {} if quick else load_expected(seed)
    if write_expected and not quick:
        update_expected(seed, workload.name, digests)
        expected = {workload.name: digests}
    known = expected.get(workload.name)
    drift = {kind: int(known is not None and known[kind] != digests[kind])
             for kind in ("rows", "sim", "counts")}

    pass_walls = [sum(times) / 1e9 for times in passes]
    warm_walls = pass_walls[1:] if len(pass_walls) > 2 else pass_walls
    pass_spread = (max(warm_walls) - min(warm_walls)) / min(warm_walls)

    document = {
        "schema": 1,
        "workload": workload.name,
        "traced": bool(traced),
        "quick": bool(quick),
        "fingerprint": where,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "failures": dict(sorted(failures.items())[:20]),
        "end_to_end": {
            name: {"value": values[name],
                   "unit": metrics.END_TO_END[name].unit}
            for name in metrics.END_TO_END if name in values},
        "op_ms_p95_percentile_used": p95_used,
        "noise": dict(leave_one_out_noise(passes),
                      setup_s=((max(setup_samples) - min(setup_samples))
                               / statistics.median(setup_samples))),
        "pass_walls_s": pass_walls,
        "pass_spread": pass_spread,
        # What the clock read, before the box's speed was taken out.
        "measured_pass_walls_s": [sum(times) / 1e9 for times in raw_passes],
        "measured": host_metrics(_per_op_min(raw_passes))[0],
        "speed": {
            "probes": len(sampler.values),
            "probe_us_p50": (statistics.median(sampler.values) / 1e3
                             if sampler.values else None),
            "nominal_probe_us": NOMINAL_PROBE_NS / 1e3,
            "sampler_rss_mb": sampler_rss_kib / 1024.0,
        },
        "setup_samples_s": setup_samples,
        "digests": digests,
        "expected": ("skipped (quick)" if quick else
                     "absent for this seed" if known is None else
                     "checked"),
        "drift": drift,
        "slowest_ops": [
            {"op": ops[index][0], "ms": best_ns[index] / 1e6}
            for index in sorted(range(attempted),
                                key=lambda i: -best_ns[i])[:5]],
    }

    if traced:
        from perfbench.layers import layer_metrics
        per_layer = layer_metrics(
            workload, state, ops, outcomes, best_ns, setup_rec, pass_rec,
            traced_times, values, drift, pass_spread,
            setup_scale=1.0 / traced_setup_slowdown,
            pass_scale=sum(traced_times) / 1e9 / traced_raw_wall_s,
            box_slowdown=sampler.slowdown(0, perf_counter_ns()))
        document["per_layer"] = {
            name: {"value": per_layer.get(name, 0),
                   "unit": metrics.PER_LAYER[name].unit}
            for name in metrics.PER_LAYER}
        if trace_out:
            pass_rec.write_chrome(trace_out)

    document["elapsed_s"] = time.perf_counter() - started
    return document


def contract_line(document):
    """The one-line JSON the driver reads from the end of stdout."""
    if document["traced"]:
        chosen = document["per_layer"]
    else:
        chosen = {name: document["end_to_end"][name]
                  for name in metrics.CONTRACT_END_TO_END}
    return json.dumps({
        "correct": document["failed"] == 0,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": chosen,
    })


def print_metrics(document, stream=None):
    """Every metric by name with its unit, one per line."""
    stream = stream or sys.stdout
    print(f"# {document['workload']}: {document['attempted']} ops x "
          f"{document['passes']} passes, {document['failed']} failed, "
          f"{document['elapsed_s']:.1f} s elapsed", file=stream)
    for section in ("end_to_end", "per_layer"):
        for name, entry in document.get(section, {}).items():
            print(f"{name:34s} {entry['value']:.6g} {entry['unit']}",
                  file=stream)
    for op_id, reason in document["failures"].items():
        print(f"FAILED {op_id}: {reason}", file=stream)


__all__ = ["DATASET_SEED", "Failure", "OP_TIMEOUT_S", "OpTimeout",
           "PassClock", "SCALE", "Verdict", "Workload", "contract_line",
           "fingerprint", "host_metrics", "leave_one_out_noise",
           "print_metrics", "run_workload"]
