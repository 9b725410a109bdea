"""Host-clock tracing of the layers' public entry points.

Nothing under ``src/`` is edited: :func:`tracing` replaces the public
methods and functions named in :data:`WRAPS` with timing wrappers for the
duration of one ``with`` block and restores the originals on exit.

*Coarse* calls (one per query, scan, plan, scheduler run, ...) record a
:class:`Span` — name, start, end, parent, op id.  *Hot* calls (an LSM
point lookup runs ~10^6 times in ``job_heavy``) only add ``(calls, busy
ns, self ns)`` to the enclosing span.  A call's *self* time is its
duration minus the time its wrapped children cover, kept with one
counter (:attr:`Recorder.covered`, see there) instead of a stack of
frames; self times therefore sum to the traced wall time with nothing
counted twice.  Spans stay in memory and are written once at the end as
Chrome ``trace_event`` JSON (loadable in ui.perfetto.dev).
"""

import contextlib
import inspect
import json
import sys
from array import array
from time import perf_counter_ns

SPAN, HOT, GEN = "span", "hot", "gen"

#: ``(key, kind, module, class or None, attribute)``.  The key's prefix is
#: the layer (= module name under ``repro``) the time is attributed to.
WRAPS = (
    ("workloads.generate", SPAN, "repro.workloads.generator",
     "DatasetGenerator", "generate"),
    ("relational.insert_many", SPAN, "repro.relational.table",
     "RelationalTable", "insert_many"),
    ("relational.scan_batch", SPAN, "repro.relational.table",
     "RelationalTable", "scan_batch"),
    ("relational.scan_batch", SPAN, "repro.relational.snapshot_table",
     "SnapshotTable", "scan_batch"),
    ("relational.get_record", HOT, "repro.relational.table",
     "RelationalTable", "get_record"),
    ("relational.get_record", HOT, "repro.relational.snapshot_table",
     "SnapshotTable", "get_record"),
    ("relational.index_lookup", GEN, "repro.relational.table",
     "RelationalTable", "index_lookup_raw"),
    ("relational.index_lookup", GEN, "repro.relational.snapshot_table",
     "SnapshotTable", "index_lookup_raw"),
    ("lsm.scan", GEN, "repro.lsm.store", "LSMTree", "scan"),
    ("lsm.scan", GEN, "repro.lsm.snapshot", "SnapshotView", "scan"),
    ("lsm.put", HOT, "repro.lsm.store", "LSMTree", "put"),
    ("lsm.put", HOT, "repro.lsm.store", "LSMTree", "delete"),
    ("lsm.flush", SPAN, "repro.lsm.store", "LSMTree", "flush"),
    ("lsm.flush_all", SPAN, "repro.lsm.store", "LSMTree",
     "freeze_and_flush"),
    ("lsm.compaction", SPAN, "repro.lsm.compaction", "LeveledCompactor",
     "maybe_compact"),
    ("columns.select", HOT, "repro.columns", "ColumnBatch", "select"),
    ("columns.take", HOT, "repro.columns", "ColumnBatch", "take"),
    ("columns.project", HOT, "repro.columns", "ColumnBatch", "project"),
    ("columns.concat", HOT, "repro.columns", "ColumnBatch", "concat"),
    ("columns.from_rows", HOT, "repro.columns", "ColumnBatch", "from_rows"),
    ("query.parse", HOT, "repro.query.parser", None, "parse_query"),
    ("query.build_plan", SPAN, "repro.query.optimizer", None, "build_plan"),
    ("query.render", HOT, "repro.query.render", None, "render_query"),
    ("query.eval_mask", HOT, "repro.query.vectorized", None, "eval_mask"),
    ("core.decide", SPAN, "repro.core.planner", "HybridPlanner", "decide"),
    ("core.plan_cost", HOT, "repro.core.cost_model", "CostModel",
     "plan_cost"),
    ("core.choose_split", HOT, "repro.core.splitter", "SplitPlanner",
     "choose_split"),
    ("core.profile", SPAN, "repro.core.hardware", "HardwareModel",
     "profile"),
    ("engine.stack_run", SPAN, "repro.engine.stacks", "StackRunner", "run"),
    ("engine.plan", HOT, "repro.engine.stacks", "StackRunner", "plan"),
    ("engine.host_execute", SPAN, "repro.engine.host", "HostEngine",
     "execute"),
    ("engine.cooperative", SPAN, "repro.engine.cooperative",
     "CooperativeExecutor", "run_split"),
    ("engine.cooperative", SPAN, "repro.engine.cooperative",
     "CooperativeExecutor", "run_full_ndp"),
    ("engine.cooperative", SPAN, "repro.engine.cooperative",
     "CooperativeExecutor", "prepare_split"),
    ("engine.pipeline", SPAN, "repro.engine.pipeline", "PipelineExecutor",
     "run"),
    ("engine.adaptive", SPAN, "repro.engine.adaptive", "AdaptiveRunner",
     "run"),
    ("sim.event_loop", SPAN, "repro.sim.events", "EventLoop", "run"),
    ("sched.run", SPAN, "repro.sched.scheduler", "WorkloadScheduler",
     "run"),
    ("cluster.run", SPAN, "repro.cluster.cluster", "DeviceCluster", "run"),
    ("cluster.build", SPAN, "repro.cluster.cluster", "DeviceCluster",
     "__init__"),
)

#: Key of the span the harness opens around each op; its self time is the
#: part of the op no wrapped layer call covered.
OP_KEY = "harness.op"
#: Key of the root pseudo-span that catches calls made outside any op.
ROOT_KEY = "harness.run"

#: ``ReadStats`` fields the ``lsm.get`` wrapper differences per call.
GET_STAT_FIELDS = ("ssts_considered", "key_comparisons", "bloom_probes",
                   "bloom_negatives")


class Span:
    """One coarse call: a node of the trace tree."""

    __slots__ = ("key", "op", "parent", "start", "end", "child_ns", "hot",
                 "covered_before")

    def __init__(self, key, op, parent):
        self.key = key
        self.op = op
        self.parent = parent
        self.start = 0
        self.end = 0
        #: Time wrapped calls made from this span cover.
        self.child_ns = 0
        #: ``{key: [calls, busy ns, self ns]}`` of hot calls made directly
        #: under this span (allocated on first use).
        self.hot = None
        self.covered_before = 0

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_ns(self):
        return self.end - self.start - self.child_ns


class Recorder:
    """In-memory store of one traced run's spans and hot-call totals."""

    def __init__(self):
        self.spans = []
        self.root = Span(ROOT_KEY, None, None)
        self.root.start = perf_counter_ns()
        self.current = self.root
        #: ``[ns]`` — time covered by wrapped calls that have *completed*
        #: at the current nesting level.  A wrapper reads it on entry and
        #: on exit: the growth in between is what its children covered,
        #: and it then sets the cell to entry value + own duration, so its
        #: caller in turn sees it as one child.  One cell replaces a stack
        #: of frames because calls nest and never interleave.
        self.covered = [0]
        self.op = None
        #: ``{key: array('q')}`` busy ns of every outermost hot call.
        self.samples = {}
        #: Rows decoded by the batch projectors' decoders.
        self.decode_rows = 0
        #: ``ReadStats`` deltas summed over point lookups, in the order of
        #: :data:`GET_STAT_FIELDS`.
        self.get_stats = [0] * len(GET_STAT_FIELDS)

    # -- recording --------------------------------------------------------
    def begin(self, key):
        """Open a span under the current one; returns it."""
        span = Span(key, self.op, self.current)
        self.current = span
        span.covered_before = self.covered[0]
        span.start = perf_counter_ns()
        return span

    def end(self, span):
        """Close ``span`` (must be the current one)."""
        span.end = perf_counter_ns()
        covered = self.covered
        span.child_ns = covered[0] - span.covered_before
        covered[0] = span.covered_before + span.end - span.start
        self.current = span.parent
        self.spans.append(span)

    def begin_op(self, op_id):
        """Open the harness span around one op."""
        self.op = op_id
        return self.begin(OP_KEY)

    def end_op(self, span):
        self.end(span)
        self.op = None

    def charge(self, key, busy, own):
        """Add one hot call to the enclosing span."""
        hot = self.current.hot
        if hot is None:
            hot = self.current.hot = {}
        acc = hot.get(key)
        if acc is None:
            hot[key] = [1, busy, own]
        else:
            acc[0] += 1
            acc[1] += busy
            acc[2] += own

    def finish(self):
        """Close the root span; call once, after the last op."""
        self.root.end = perf_counter_ns()
        self.root.child_ns = self.covered[0]

    # -- read-out ---------------------------------------------------------
    def summary(self):
        """``{key: {"calls", "busy_ns", "self_ns"}}``; call after finish().

        A span nested under a span of the same key (re-entrant entry
        points) adds to ``self_ns`` but not to ``busy_ns``, so busy time
        is never counted twice.
        """
        totals = {}

        def entry(key):
            return totals.setdefault(
                key, {"calls": 0, "busy_ns": 0, "self_ns": 0})

        for span in self.spans + [self.root]:
            acc = entry(span.key)
            acc["calls"] += 1
            acc["self_ns"] += span.self_ns
            ancestor = span.parent
            while ancestor is not None and ancestor.key != span.key:
                ancestor = ancestor.parent
            if ancestor is None:
                acc["busy_ns"] += span.duration
            for key, (calls, busy, own) in (span.hot or {}).items():
                acc = entry(key)
                acc["calls"] += calls
                acc["busy_ns"] += busy
                acc["self_ns"] += own
        return totals

    def durations(self, key):
        """Per-call durations (ns) of ``key``: span or sampled hot call."""
        if key in self.samples:
            return list(self.samples[key])
        return [span.duration for span in self.spans if span.key == key]

    def layer_self_ns(self):
        """``{layer: self ns}`` — sums to the root span's duration."""
        layers = {}
        for key, acc in self.summary().items():
            layer = key.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0) + acc["self_ns"]
        return layers

    def to_chrome(self):
        """Chrome ``trace_event`` dict; one complete event per span."""
        origin = self.root.start
        events = [{"ph": "M", "pid": 1, "tid": 1, "name": "process_name",
                   "args": {"name": "perfbench host clock"}}]
        for span in sorted(self.spans, key=lambda s: (s.start, -s.end)):
            args = {"op": span.op, "self_us": span.self_ns / 1e3}
            if span.hot:
                args["hot"] = {
                    key: {"calls": calls, "busy_us": busy / 1e3,
                          "self_us": own / 1e3}
                    for key, (calls, busy, own) in sorted(span.hot.items())}
            events.append({
                "ph": "X", "pid": 1, "tid": 1, "name": span.key,
                "cat": span.key.split(".", 1)[0],
                "ts": (span.start - origin) / 1e3,
                "dur": span.duration / 1e3, "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path):
        with open(path, "w") as handle:
            json.dump(self.to_chrome(), handle)
            handle.write("\n")


# ----------------------------------------------------------------------
# Wrapper factories
# ----------------------------------------------------------------------
def _span_wrapper(rec, key, func):
    def wrapper(*args, **kwargs):
        span = rec.begin(key)
        try:
            return func(*args, **kwargs)
        finally:
            rec.end(span)
    return wrapper


def _hot_wrapper(rec, key, func):
    covered = rec.covered
    samples = rec.samples.setdefault(key, array("q"))
    depth = [0]     # re-entrant calls (eval_mask recurses) are busy once

    def wrapper(*args, **kwargs):
        depth[0] += 1
        before = covered[0]
        start = perf_counter_ns()
        try:
            return func(*args, **kwargs)
        finally:
            spent = perf_counter_ns() - start
            own = spent - (covered[0] - before)
            covered[0] = before + spent
            depth[0] -= 1
            # Recorder.charge, inlined: this runs a million times a pass.
            span = rec.current
            hot = span.hot
            if hot is None:
                hot = span.hot = {}
            acc = hot.get(key)
            if acc is None:
                acc = hot[key] = [0, 0, 0]
            acc[0] += 1
            acc[2] += own
            if not depth[0]:
                acc[1] += spent
                samples.append(spent)
    return wrapper


def _gen_wrapper(rec, key, func):
    """Wrap a generator function: time is charged per ``next()``.

    A generator is suspended between items while its consumer (and other
    wrapped calls) run, so only the intervals inside ``next`` are busy;
    one sample per generator, charged when it is exhausted or closed.
    """
    covered = rec.covered
    samples = rec.samples.setdefault(key, array("q"))

    def drive(inner):
        busy = own = 0
        advance = inner.__next__
        try:
            while True:
                before = covered[0]
                start = perf_counter_ns()
                try:
                    item = advance()
                finally:
                    spent = perf_counter_ns() - start
                    busy += spent
                    own += spent - (covered[0] - before)
                    covered[0] = before + spent
                yield item
        except StopIteration:
            return
        finally:
            rec.charge(key, busy, own)
            samples.append(busy)

    def wrapper(*args, **kwargs):
        return drive(func(*args, **kwargs))
    return wrapper


def _get_wrapper(rec, key, func):
    """``LSMTree.get`` / ``SnapshotView.get``: hot call + ReadStats deltas.

    The deltas of the caller's own ``ReadStats`` are taken around the
    call, so per-lookup ratios are measured where the work happens and
    nothing the caller reads afterwards changes.
    """
    from repro.lsm.store import ReadStats
    hot = _hot_wrapper(rec, key, func)
    totals = rec.get_stats

    def wrapper(self, key_bytes, stats=None):
        if stats is None:
            stats = ReadStats()
        s0 = stats.ssts_considered
        k0 = stats.key_comparisons
        p0 = stats.bloom_probes
        n0 = stats.bloom_negatives
        try:
            return hot(self, key_bytes, stats)
        finally:
            totals[0] += stats.ssts_considered - s0
            totals[1] += stats.key_comparisons - k0
            totals[2] += stats.bloom_probes - p0
            totals[3] += stats.bloom_negatives - n0
    return wrapper


def _projector_wrapper(rec, func):
    """``RecordCodec.batch_projector``: time the decoder it returns."""
    wrapped = {}    # id(decoder) -> (decoder, timed decoder)

    def wrapper(*args, **kwargs):
        build = func(*args, **kwargs)
        entry = wrapped.get(id(build))
        if entry is None:
            timed = _hot_wrapper(rec, "relational.decode", build)

            def counted(raws):
                rec.decode_rows += len(raws)
                return timed(raws)
            entry = wrapped[id(build)] = (build, counted)
        return entry[1]
    return wrapper


_FACTORIES = {SPAN: _span_wrapper, HOT: _hot_wrapper, GEN: _gen_wrapper}


# ----------------------------------------------------------------------
# Install / uninstall
# ----------------------------------------------------------------------
def _replace_function(func, wrapped, undo):
    """Rebind every ``repro`` module global that *is* ``func``.

    Public functions are imported by name (``from repro.query.optimizer
    import build_plan``), so the importing modules hold their own
    reference and each must be swapped.
    """
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name != "repro" and not name.startswith("repro."):
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                setattr(module, attr, wrapped)
                undo.append((module, attr, func))


def _install_one(rec, key, kind, module_name, class_name, attr, undo):
    module = __import__(module_name, fromlist=["_"])
    if class_name is None:
        func = getattr(module, attr)
        _replace_function(func, _FACTORIES[kind](rec, key, func), undo)
        return
    cls = getattr(module, class_name)
    static = inspect.getattr_static(cls, attr)
    if isinstance(static, classmethod):
        wrapped = classmethod(_FACTORIES[kind](rec, key, static.__func__))
    else:
        wrapped = _FACTORIES[kind](rec, key, static)
    setattr(cls, attr, wrapped)
    undo.append((cls, attr, static))


@contextlib.contextmanager
def tracing(rec):
    """Install every wrapper for the ``with`` block; restore on exit."""
    from repro.lsm.snapshot import SnapshotView
    from repro.lsm.store import LSMTree
    from repro.relational.encoding import RecordCodec

    undo = []
    try:
        for spec in WRAPS:
            _install_one(rec, *spec, undo)
        for cls in (LSMTree, SnapshotView):
            original = inspect.getattr_static(cls, "get")
            setattr(cls, "get", _get_wrapper(rec, "lsm.get", original))
            undo.append((cls, "get", original))
        original = inspect.getattr_static(RecordCodec, "batch_projector")
        setattr(RecordCodec, "batch_projector",
                _projector_wrapper(rec, original))
        undo.append((RecordCodec, "batch_projector", original))
        yield rec
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def installed():
    """Whether any wrapper is currently in place (used by the tests)."""
    for _key, _kind, module_name, class_name, attr in WRAPS:
        module = sys.modules.get(module_name)
        if module is None:
            continue
        owner = module if class_name is None else getattr(module, class_name)
        target = inspect.getattr_static(owner, attr)
        target = getattr(target, "__func__", target)
        if getattr(target, "__module__", None) == __name__:
            return True
    return False
