"""Vectorized volcano-style pipeline shared by the host and NDP engines.

Both engines execute the *same* operator semantics over the stored data
(the paper's device runs a volcano model too, §4.2); they differ in
buffer sizes, intermediate cache format (row cache vs pointer cache) and
— via the timing model — the price of each unit of work.

Operators exchange :class:`~repro.columns.ColumnBatch`es (docs/engine.md):
each stage decodes records straight into numpy column arrays, evaluates
predicates as boolean masks, and joins by gathering row indices.  Every
:class:`WorkCounters` increment is derived from batch arithmetic —
lengths, mask popcounts, byte widths — and is numerically identical to
the row-at-a-time reference the tests keep (``tests/rowref.py``), so
golden traces, differential tests and chaos/cluster audits stay
byte-identical.  LSM access *order* is likewise preserved: batching only
defers decode and predicate work and never reorders or skips a *charged*
read — a key sought again, or a table scanned again at the same tree
version, replays its recorded :class:`~repro.lsm.store.ReadTrace`
through the executor's own block cache — so stateful block-cache hit
counts match exactly.  One run may join many batches at once as
*segments* of one input, each charged as if it ran alone
(``PipelineExecutor.run(segments=...)``).
"""

import math
from dataclasses import dataclass

import numpy as np

from repro.columns import ColumnBatch
from repro.engine.counters import WorkCounters
from repro.errors import ExecutionError
from repro.lsm.store import ReadStats, ReadTrace, Replays
from repro.query.ast import (Between, ColumnRef, Comparison, InList, IsNull,
                             Like, Literal, Not, And, Or, conjuncts)
from repro.query.physical import AccessPath, JoinAlgorithm
from repro.query.vectorized import eval_mask
from repro.relational.scan import ScanRequest

_POINTER_BYTES = 8


def stable_hash(key):
    """Deterministic hash of a join-key tuple (no per-process salt)."""
    import zlib
    value = 0x811C9DC5
    for part in key:
        if isinstance(part, int):
            value = ((value * 1000003) ^ part) & 0x7FFFFFFF
        else:
            value = ((value * 1000003)
                     ^ zlib.crc32(str(part).encode())) & 0x7FFFFFFF
    return value


@dataclass
class PipelineConfig:
    """Execution-side knobs for one pipeline run."""

    join_buffer_bytes: int = 32 * 1024 * 1024
    pointer_cache: bool = False      # device: >2 tables switch (paper §4.2)
    max_rows: int = None             # safety valve for runaway joins
    block_cache_bytes: int = 0       # page cache / device block buffer


def predicate_cost(expr, catalog, tables):
    """(primitive ops, memcmp bytes) of evaluating ``expr`` on one row.

    LIKE over a CHAR(w) column compares up to ``w`` bytes; equality over
    strings compares the column width; everything else is a primitive op.
    """
    if expr is None:
        return 0, 0

    def width_of(ref):
        table = catalog.table(tables[ref.alias])
        column = table.schema.column(ref.column)
        return column.storage_width

    ops = 0
    memcmp = 0
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Comparison):
            ops += 1
            for side in (node.left, node.right):
                if isinstance(side, ColumnRef):
                    width = width_of(side)
                    if width > 4:
                        memcmp += width
            stack.extend([node.left, node.right])
        elif isinstance(node, Like):
            ops += 1
            if isinstance(node.operand, ColumnRef):
                memcmp += width_of(node.operand)
            stack.append(node.operand)
        elif isinstance(node, InList):
            ops += max(1, len(node.values))
            if isinstance(node.operand, ColumnRef):
                width = width_of(node.operand)
                if width > 4:
                    memcmp += width * max(1, len(node.values))
            stack.append(node.operand)
        elif isinstance(node, Between):
            ops += 2
            stack.extend([node.operand, node.low, node.high])
        elif isinstance(node, IsNull):
            ops += 1
            stack.append(node.operand)
        elif isinstance(node, Not):
            ops += 1
            stack.append(node.operand)
        elif isinstance(node, (And, Or)):
            stack.extend(node.items)
        elif isinstance(node, (ColumnRef, Literal)):
            continue
    return ops, memcmp


def _merged_column(outer, inner, name):
    """Column arrays under merged-batch precedence (inner overrides)."""
    if inner.has_column(name):
        return inner.column(name)
    if outer.has_column(name):
        return outer.column(name)
    return None


def _edge_mask(edges, outer, inner):
    """Vectorized join-edge equality over aligned outer/inner batches.

    A missing column or a NULL on either side fails the edge — the
    semantics of the row engine's ``merged.get(...) is None`` check.
    """
    n = len(outer)
    mask = np.ones(n, dtype=bool)
    for edge in edges:
        left = _merged_column(outer, inner,
                              f"{edge.left_alias}.{edge.left_column}")
        right = _merged_column(outer, inner,
                               f"{edge.right_alias}.{edge.right_column}")
        if left is None or right is None:
            mask[:] = False
            continue
        eq = np.asarray(left[0] == right[0])
        if eq.shape != (n,):
            eq = np.broadcast_to(eq, (n,)).copy()
        if left[1] is not None:
            eq = eq & ~left[1]
        if right[1] is not None:
            eq = eq & ~right[1]
        mask &= eq
    return mask


def _keyed_rows(batch, names):
    """Mask of the rows whose join-key columns are all present, non-NULL.

    Only those rows enter a hash table or probe one: a missing column
    reads as NULL, the row engine's ``row.get(name) is None``.
    """
    keyed = np.ones(len(batch), dtype=bool)
    for name in names:
        if not batch.has_column(name):
            keyed[:] = False
            continue
        null = batch.column(name)[1]
        if null is not None:
            keyed &= ~null
    return keyed


def _match(build_codes, probe_codes):
    """Equal-code pairs as ``(probe positions, build positions)``.

    In the order a hash table filled from ``build_codes`` in order and
    probed with ``probe_codes`` in order yields them: by probe position,
    then by build position.
    """
    order = np.argsort(build_codes, kind="stable")
    ordered = build_codes[order]
    lo = np.searchsorted(ordered, probe_codes, "left")
    counts = np.searchsorted(ordered, probe_codes, "right") - lo
    probe_idx = np.repeat(np.arange(len(probe_codes), dtype=np.intp), counts)
    # Pair k of probe p is build match k - (pairs before p), from ``lo``.
    offsets = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return probe_idx, order[offsets + np.arange(len(probe_idx))]


class _InnerSide:
    """A scan join's inner table, decoded and keyed once.

    ``batch`` is the decoded inner.  ``rows`` are, ascending, the rows
    with no NULL join key and ``codes`` their join keys as dense
    composite codes.  Per key column, ``uniques`` are its sorted
    distinct values and ``levels`` the sorted distinct codes ``code of
    the columns before * len(uniques) + position in uniques`` of the
    columns up to it; together they map any outer key to its code with
    ``searchsorted``.  A stage's local filter and projection are applied
    per call by :meth:`where`, so one side serves every stage that
    decodes the same columns.
    """

    __slots__ = ("batch", "rows", "codes", "uniques", "levels")

    def __init__(self, batch, rows, codes, uniques, levels):
        self.batch = batch
        self.rows = rows
        self.codes = codes
        self.uniques = uniques
        self.levels = levels

    @classmethod
    def keyed(cls, batch, rows, keys):
        """The side of ``batch`` whose ``rows`` have the key ``keys``."""
        codes = np.zeros(len(rows), dtype=np.intp)
        uniques = []
        levels = []
        for values in keys:
            column_uniques, positions = np.unique(values, return_inverse=True)
            level, codes = np.unique(codes * len(column_uniques) + positions,
                                     return_inverse=True)
            uniques.append(column_uniques)
            levels.append(level)
        return cls(batch, rows, codes, uniques, levels)

    def where(self, keep, batch):
        """This side restricted to the rows ``keep`` passes, emitting
        ``batch`` (the stage's projection of :attr:`batch`).  Keys of
        rows dropped here stay in the uniques; they match no row."""
        picked = keep[self.rows]
        return _InnerSide(batch, self.rows[picked], self.codes[picked],
                          self.uniques, self.levels)

    def outer_codes(self, outer, names, keyed):
        """Per outer row, the code of its key on ``names``; -1 = no match.

        ``keyed`` is :func:`_keyed_rows` of the same names: a row with a
        NULL or missing key column matches nothing.  Values compare as
        the Python values the row engine hashed, where integers never
        equal strings: an ``object`` column (a batch seeded from dict
        rows) is cast to the inner's kind, and its values of another
        Python type match nothing.
        """
        n = len(outer)
        found = keyed.copy()
        codes = np.zeros(n, dtype=np.intp)
        for name, uniques, level in zip(names, self.uniques, self.levels):
            if not found.any():     # a missing column leaves none keyed
                break
            values = outer.column(name)[0]
            if values.dtype.kind == "O":
                values = _cast_objects(values, found, uniques.dtype.kind)
            elif values.dtype.kind != uniques.dtype.kind:
                found[:] = False
                break
            positions = _positions(uniques, values, found)
            combined = codes * len(uniques) + positions
            codes = _positions(level, combined, found)
        return np.where(found, codes, -1)

    def key_hashes(self):
        """:func:`stable_hash` of every code's key tuple, by code."""
        count = len(self.levels[-1]) if self.levels else 1
        codes = np.arange(count, dtype=np.intp)
        parts = []
        for uniques, level in zip(reversed(self.uniques),
                                  reversed(self.levels)):
            combined = level[codes]
            parts.append(uniques[combined % len(uniques)].tolist())
            codes = combined // len(uniques)
        keys = zip(*reversed(parts)) if parts else [()] * count
        return np.array([stable_hash(key) for key in keys], dtype=np.int64)


#: Python types of the values each decoded key kind can equal.
_KIND_TYPES = {"i": (int, np.integer), "U": (str,)}


def _cast_objects(values, found, kind):
    """``object`` key values as an array of ``kind`` (``"i"`` or
    ``"U"``); clears ``found`` where a value is of another type."""
    types = _KIND_TYPES[kind]
    found &= np.fromiter((isinstance(value, types) for value in values),
                         dtype=bool, count=len(values))
    filler = 0 if kind == "i" else ""
    cast = np.where(found, values, filler)
    return cast.astype(np.int64) if kind == "i" else cast.astype(str)


def _positions(sorted_values, values, found):
    """Positions of ``values`` in ``sorted_values``; clears ``found``
    where a value is absent (the position is then meaningless)."""
    if not len(sorted_values):
        found[:] = False
        return np.zeros(len(values), dtype=np.intp)
    positions = np.searchsorted(sorted_values, values)
    np.minimum(positions, len(sorted_values) - 1, out=positions)
    found &= sorted_values[positions] == values
    return positions


def _spans(first, count):
    """``arange(f, f + c)`` for every ``(f, c)`` pair, concatenated."""
    ends = count.cumsum()
    return ((first - ends + count).repeat(count)
            + np.arange(ends[-1] if len(ends) else 0, dtype=np.intp))


#: The span of a NULL key's run: it seeks nothing and matches nothing.
_NO_SPAN = (None, 0, 0)
#: Runs of one key :meth:`PipelineExecutor._seek_all` visits at a time.
_RUN_SLICE = 1 << 16


def _constant_keys(values):
    """Index constants as the ``(values, null mask)`` arrays to seek."""
    return (np.array(values, dtype=object),
            np.array([value is None for value in values], dtype=bool))


def _keyed_side(inner, columns):
    """The :class:`_InnerSide` of a decoded inner, keyed on ``columns``."""
    rows = np.flatnonzero(_keyed_rows(inner, columns))
    return _InnerSide.keyed(inner, rows, [inner.column(name)[0][rows]
                                          for name in columns])


def pk_bounds(local_filter, pk):
    """Inclusive primary-key bounds ``(lo, hi)`` (``None``: unbounded)
    that the conjuncts of ``local_filter`` comparing ``pk`` with a
    literal imply.

    A float literal bounds the integers it admits: ``> 3.5`` starts at
    4, ``<= 5.9`` ends at 5 and ``= 4.5`` admits none (``lo > hi``).  A
    literal that is not a finite number (a string, or a decimal too long
    for a float, which parses as ``inf``) bounds nothing; the filter,
    applied to every scanned row, decides.  An equality is a ``>=`` and
    a ``<=`` bound, so the bounds are the same in any conjunct order.
    """
    lo = hi = None
    for conjunct in conjuncts(local_filter):
        if not (isinstance(conjunct, Comparison)
                and isinstance(conjunct.left, ColumnRef)
                and conjunct.left.column == pk
                and isinstance(conjunct.right, Literal)
                and isinstance(conjunct.right.value, (int, float))):
            continue
        value = conjunct.right.value
        if isinstance(value, float) and not math.isfinite(value):
            continue
        # The least admitted integer at or above the value, the greatest
        # at or below it.
        up, down = ((math.ceil(value), math.floor(value))
                    if isinstance(value, float) else (value, value))
        if conjunct.op in ("=", "<", "<="):
            bound = up - 1 if conjunct.op == "<" else down
            hi = bound if hi is None else min(hi, bound)
        if conjunct.op in ("=", ">", ">="):
            bound = down + 1 if conjunct.op == ">" else up
            lo = bound if lo is None else max(lo, bound)
    return lo, hi


#: Filter masks a scan memo keeps per table version; the oldest goes
#: first.  A JOB pass filters a table in fewer distinct ways than this.
_MASKS_PER_SCAN = 64


def _filter_mask(memo, entry, batch):
    """:func:`eval_mask` of ``entry``'s local filter over ``batch``.

    With a scan memo, ``batch`` is its records decoded, and the mask is
    memoised in ``memo`` by the filter's ``repr``: the records have one
    row order per version, the filter's column references name the
    alias, and the ``repr`` tells apart literals that compare equal in
    Python (``2``, ``2.0``, ``True``).  A memo keeps the
    ``_MASKS_PER_SCAN`` latest filters' masks, one byte per record each,
    so literals that vary from query to query cannot grow it without
    bound.  A memoised mask is read-only: every caller selects with it.
    """
    if memo is None:
        return eval_mask(entry.local_filter, batch)
    key = repr(entry.local_filter)
    mask = memo.masks.get(key)
    if mask is None:
        if len(memo.masks) == _MASKS_PER_SCAN:
            del memo.masks[next(iter(memo.masks))]
        mask = memo.masks[key] = eval_mask(entry.local_filter, batch)
        mask.flags.writeable = False
    return mask


def _prefix(counts):
    """``[0, c0, c0 + c1, ...]``: indexed with a run's segment offsets,
    the counts that fall before each offset."""
    prefix = np.zeros(len(counts) + 1, dtype=np.intp)
    prefix[1:] = counts
    return prefix.cumsum()


def _cut(positions, bounds):
    """Where each offset of ``bounds`` falls among ``positions``, which
    ascend by segment: the offsets that cut them into the segments."""
    if len(bounds) == 2:        # one segment: all of them
        return np.array((0, len(positions)), dtype=np.intp)
    return np.searchsorted(positions, bounds)


def _lengths(bounds):
    """The lengths of the segments ``bounds`` delimit, as a list."""
    if len(bounds) == 2:
        return [int(bounds[1] - bounds[0])]
    return (bounds[1:] - bounds[:-1]).tolist()


def _whole(n):
    """The offsets of one segment of ``n`` positions."""
    return np.array([0, n], dtype=np.intp)


def _sought(null):
    """How many of some seek keys are sought: those not NULL."""
    return len(null) - int(np.count_nonzero(null))


class PipelineExecutor:
    """Executes a sequence of :class:`TableAccess` stages over batches."""

    def __init__(self, catalog, config, counters):
        self.catalog = catalog
        self.config = config
        self.counters = counters
        self._row_bytes = {}          # alias -> materialized bytes per row
        #: Per-stage trace: (alias, rows after the stage) in order — the
        #: intermediate-result counts Table 3 correlates with runtimes.
        self.stage_trace = []
        # Per-stage setup, kept across runs (a split's host fragment runs
        # once per device batch): keyed on object identity, and holding
        # the keyed objects so that no identity is reused meanwhile.
        self._costs = {}              # (id(expr), id(tables)) -> cost
        self._plans = {}              # (kind, id(entry)) -> stage plan
        if config.block_cache_bytes > 0:
            from repro.lsm.cache import BlockCache
            self.block_cache = BlockCache(config.block_cache_bytes)
        else:
            self.block_cache = None

    def _stats(self):
        """A ReadStats wired to this executor's block cache."""
        stats = ReadStats()
        stats.cache = self.block_cache
        return stats

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def run(self, entries, tables, residual_conjuncts=(), input_rows=None,
            input_row_bytes=0, input_aliases=(), driving_shard=None,
            segments=None):
        """Execute stages over ``entries``.

        ``tables`` maps alias -> table name (from the QuerySpec).
        ``input_rows`` seeds the pipeline with a :class:`ColumnBatch`
        (host side of a split receives the device's intermediate
        results); when None, the first entry is the driving table.
        ``input_aliases`` names the aliases already joined into the seed
        rows so residual predicates bind correctly.  ``driving_shard`` (a
        :class:`repro.cluster.TableShard`-like object) restricts the
        driving table to one partition: range shards push primary-key
        bounds into the scan, hash shards filter rows on shard
        membership before any predicate work is charged.  Inner probes
        stay unrestricted — the cluster's storage is mirrored, so
        partition-local prefixes see every join partner.  Residual
        conjuncts over aliases outside this fragment are the caller's
        (the host applies them after the merge).

        Returns ``(batch, row_bytes)`` where ``row_bytes`` is the
        materialized size of one output row (feeds transfer volumes and
        the next fragment's buffer math); the work lands in
        :attr:`counters`.

        ``segments`` cuts ``input_rows`` into consecutive batches: the
        ascending offsets ``[0, ..., len(input_rows)]`` of their
        boundaries (docs/engine.md, *Segmented host fragments*).  Each
        segment is joined as if this executor ran over it alone, one
        segment after the other: every kernel applies its per-batch
        rules per segment, and block-cache charges reach the cache in
        segment-major, stage-minor order.  The call then returns
        ``(parts, row_bytes)``, ``parts[i]`` being the output rows and
        the :class:`WorkCounters` of segment ``i``, and leaves
        :attr:`counters` alone.  A run without ``segments`` is a run of
        one segment.
        """
        self._tables = tables
        pending_residual = list(residual_conjuncts)
        if input_rows is not None:
            batch = input_rows
            row_bytes = input_row_bytes
            bounds = np.asarray([0, len(batch)] if segments is None
                                else segments, dtype=np.intp)
            if (len(bounds) < 2 or bounds[0] != 0
                    or bounds[-1] != len(batch)
                    or (bounds[1:] < bounds[:-1]).any()):
                raise ExecutionError("segments must ascend from 0 to the "
                                     "input's length")
            self._begin([self.counters] if segments is None else
                        [WorkCounters() for _ in range(len(bounds) - 1)])
            available = set(input_aliases)
            stages = entries
        else:
            if not entries:
                raise ExecutionError("pipeline needs at least one stage")
            if segments is not None:
                raise ExecutionError("only an input batch is segmented")
            self._begin([self.counters])
            batch, row_bytes = self._driving(entries[0], shard=driving_shard)
            bounds = np.array([0, len(batch)], dtype=np.intp)
            available = {entries[0].alias}
            batch, bounds, pending_residual = self._apply_residual(
                batch, bounds, pending_residual, available)
            self.stage_trace.append((entries[0].alias, len(batch)))
            self._flush(0)
            stages = entries[1:]

        for entry in stages:
            batch, bounds, row_bytes = self._join(batch, bounds, row_bytes,
                                                  entry)
            available.add(entry.alias)
            batch, bounds, pending_residual = self._apply_residual(
                batch, bounds, pending_residual, available)
            self.stage_trace.append((entry.alias, len(batch)))
            if (self.config.max_rows
                    and max(_lengths(bounds)) > self.config.max_rows):
                raise ExecutionError(
                    f"intermediate result exceeded {self.config.max_rows} rows")
            self._flush(0)
        for segment in range(1, len(bounds) - 1):
            self._flush(segment)
        work = self._work
        self._work = self._logs = None
        if segments is None:
            return batch, row_bytes
        starts = bounds.tolist()
        return [(batch[lo:hi], counters) for lo, hi, counters
                in zip(starts, starts[1:], work)], row_bytes

    # ------------------------------------------------------------------
    # Per-segment work and block-cache charges
    # ------------------------------------------------------------------
    def _begin(self, work):
        """Open a run with nothing queued; segment ``i`` charges its work
        to ``work[i]``."""
        #: Per segment, the :class:`WorkCounters` charged with its work.
        self._work = work
        #: Per segment, the replays queued for it in access order, as
        #: ``(traces, times)`` pairs of parallel sequences (see
        #: :meth:`_flush`).
        self._logs = [[] for _ in work]

    def _evaluated(self, records, ops, memcmp):
        """Charge each segment evaluating its ``records`` with a
        predicate of ``ops`` primitive ops and ``memcmp`` bytes."""
        for work, n in zip(self._work, records):
            work.records_evaluated += n
            work.predicate_ops += ops * n
            work.memcmp_bytes += memcmp * n

    def _flush(self, segment):
        """Charge ``segment``'s queued replays through the block cache.

        Walks record against scratch stats and every charged read is
        queued as a replay of its trace, so a stage touches no cache
        while it runs.  Segment 0 is flushed after every stage and
        between slices of key runs: nothing of a later segment has
        reached the cache, so its reads are next in the order of
        per-segment runs.  The others are flushed after the last stage,
        in order.  A one-segment run thus charges stage by stage.
        """
        log = self._logs[segment]
        if not log:
            return
        stats = self._stats()
        replays = Replays(stats)
        for traces, times in log:
            replays.extend(traces, times)
        replays.flush()
        log.clear()
        self._work[segment].absorb_read_stats(stats)

    # ------------------------------------------------------------------
    # Per-entry decode planning
    # ------------------------------------------------------------------
    def _decode_plan(self, entry):
        """(needed columns, emitted columns, exact) for one entry.

        ``needed`` covers the entry's projection, its local filter, and
        its join columns so the partial decode suffices for everything
        the stage evaluates; it is sorted, the order a decode of it
        emits.  ``emitted`` are the columns the stage outputs, in order:
        ``needed`` itself when ``exact`` (it equals the projection as a
        set), the projection otherwise.  Names are unqualified.
        """
        held = self._plans.get(("decode", id(entry)))
        if held is None:
            table = self.catalog.table(entry.table_name)
            projection = entry.projection or table.schema.column_names
            needed = set(projection)
            if entry.local_filter is not None:
                for ref in entry.local_filter.column_refs():
                    if ref.alias == entry.alias:
                        needed.add(ref.column)
            for edge in entry.join_edges:
                needed.add(edge.column_of(entry.alias))
            needed = sorted(needed)
            exact = set(projection) == set(needed)
            plan = needed, (needed if exact else list(projection)), exact
            held = self._plans[("decode", id(entry))] = entry, plan
        return held[1]

    def _index_join_plan(self, entry):
        """(outer key, extra edges, their columns) of an indexed join
        entry.

        The first join edge on the index column is sought with the
        outer's ``outer key`` column; the other edges are checked on
        each matched pair.  Their qualified columns are listed.
        """
        held = self._plans.get(("index", id(entry)))
        if held is None:
            index_edge = None
            extra_edges = []
            for edge in entry.join_edges:
                if (edge.column_of(entry.alias) == entry.index_column
                        and index_edge is None):
                    index_edge = edge
                else:
                    extra_edges.append(edge)
            if index_edge is None:
                raise ExecutionError(f"{entry.alias}: BNLJI without an "
                                     f"edge on the index column")
            other_alias, other_column = index_edge.other(entry.alias)
            columns = sorted({f"{alias}.{column}" for edge in extra_edges
                              for alias, column in (
                                  (edge.left_alias, edge.left_column),
                                  (edge.right_alias, edge.right_column))})
            plan = f"{other_alias}.{other_column}", extra_edges, columns
            held = self._plans[("index", id(entry))] = entry, plan
        return held[1]

    def _predicate_cost(self, expr):
        """:func:`predicate_cost` of ``expr`` over this run's tables."""
        key = (id(expr), id(self._tables))
        held = self._costs.get(key)
        if held is None:
            held = self._costs[key] = (
                expr, self._tables,
                predicate_cost(expr, self.catalog, self._tables))
        return held[2]

    # ------------------------------------------------------------------
    # Driving table
    # ------------------------------------------------------------------
    def _driving(self, entry, shard=None):
        """The driving stage: the entry's table read, filtered and
        projected, as ``(batch, row bytes)``.

        A full scan without a shard reads through the table's scan memo
        (:meth:`_scanned`), its one read queued on segment 0's log and
        its filter mask memoised with it; a primary-key range or a shard
        scans the table, a secondary lookup seeks its constants.
        """
        table = self.catalog.table(entry.table_name)
        ops, memcmp = self._predicate_cost(entry.local_filter)
        needed, emitted, exact = self._decode_plan(entry)
        if shard is not None:
            # Shard routing checks need the primary key decoded; keep the
            # projection itself untouched (``exact`` goes False so the
            # extra column is projected away again).
            pk = table.schema.primary_key
            if pk not in needed:
                needed = sorted(set(needed) | {pk})
                exact = False
        row_bytes = self._materialized_bytes(entry)
        memo = None
        if entry.access_path is AccessPath.SECONDARY_LOOKUP:
            if shard is not None and shard.is_empty:
                batch = table.codec.batch_projector(needed, entry.alias)([])
            else:
                keys = _constant_keys(self._index_constants(entry))
                seeks, _, inner_idx = self._seek_all(
                    table, entry.index_column, *keys,
                    _whole(len(keys[0])), self._logs)
                self._work[0].index_seeks += _sought(keys[1])
                batch = seeks.gather(needed, entry.alias, inner_idx)
                if shard is not None:
                    pk_name = f"{entry.alias}.{table.schema.primary_key}"
                    values, _mask = batch.column(pk_name)
                    # Shard routing is free: rows of other shards are
                    # dropped before any predicate work is charged.
                    from repro.columns import shard_membership
                    batch = batch.select(shard_membership(shard, values))
        elif entry.access_path is AccessPath.FULL_SCAN and shard is None:
            memo, batch = self._scanned(table, entry.alias, needed)
            self._logs[0].append(((memo.trace,), [1]))
        else:
            lo = hi = None
            if entry.access_path is AccessPath.PK_RANGE:
                lo, hi = pk_bounds(entry.local_filter,
                                   table.schema.primary_key)
            stats = self._stats()
            batch = table.scan_batch(ScanRequest(
                columns=tuple(needed), pk_lo=lo, pk_hi=hi, stats=stats,
                qualified_as=entry.alias, shard=shard))
            self._work[0].absorb_read_stats(stats)
        n = len(batch)
        self._evaluated([n], ops, memcmp)
        if entry.local_filter is not None and n:
            batch = batch.select(_filter_mask(memo, entry, batch))
        self._work[0].bytes_materialized += row_bytes * len(batch)
        if not exact:
            batch = batch.project([f"{entry.alias}.{name}"
                                   for name in emitted])
        self._row_bytes[entry.alias] = row_bytes
        # The driving base holds the filtered projection alone, so no
        # later stage keeps a seek pool alive; a full scan's records,
        # decoded batch and mask stay in the table's scan memo until
        # its primary version moves.
        return batch.materialized(), row_bytes

    def _index_constants(self, entry):
        """Constants bound to the driving entry's index column."""
        values = []
        for conjunct in conjuncts(entry.local_filter):
            if (isinstance(conjunct, Comparison) and conjunct.op == "="
                    and isinstance(conjunct.left, ColumnRef)
                    and conjunct.left.column == entry.index_column
                    and isinstance(conjunct.right, Literal)):
                values.append(conjunct.right.value)
            elif (isinstance(conjunct, InList) and not conjunct.negated
                    and isinstance(conjunct.operand, ColumnRef)
                    and conjunct.operand.column == entry.index_column):
                values.extend(conjunct.values)
        if not values:
            raise ExecutionError(
                f"no constant bound to index column {entry.index_column!r}")
        return values

    # ------------------------------------------------------------------
    # Joins
    # ------------------------------------------------------------------
    def _join(self, outer, bounds, outer_row_bytes, entry):
        """Join the segments ``bounds`` cut ``outer`` into with one entry.

        Returns ``(batch, bounds, row_bytes)``: the output, segment-major,
        and its segments' offsets.
        """
        if entry.join_algorithm in (JoinAlgorithm.BNLJI, JoinAlgorithm.NLJ) \
                and entry.index_column is not None:
            return self._join_bnlji(outer, bounds, outer_row_bytes, entry)
        if entry.join_algorithm is JoinAlgorithm.GHJ:
            return self._join_ghj(outer, bounds, outer_row_bytes, entry)
        if entry.join_algorithm is JoinAlgorithm.NLJ:
            return self._join_nlj(outer, bounds, outer_row_bytes, entry)
        return self._join_bnlj(outer, bounds, outer_row_bytes, entry)

    def _seek_all(self, table, column, values, null, bounds, logs):
        """Seek ``column == value`` for every non-NULL value, in order.

        The one place the pipeline issues index seeks.  ``values`` and
        ``null`` are the sought keys as a value array and a null mask
        (``None``: no NULL); ``bounds`` cut them into segments, and
        ``logs[i]`` receives the replays of segment ``i``.  Each value
        is charged its reads, but the Python loop is over runs of equal
        values, found with numpy — a left-deep pipeline repeats a join
        key across the fan-out of the stages before it — and no run
        crosses a segment boundary.  A value's first walk of the LSM
        (``get_record`` on the primary key, ``index_lookup_raw``
        otherwise) runs under a recording :class:`ReadTrace` against
        scratch stats, kept in ``table.seek_memo(column)`` with the
        records it found added to the memo's pool.  Nothing is charged
        here: every occurrence, the walked one included, is queued as a
        replay of the trace, run by run, at the run's position in the
        access order (:meth:`_flush` charges the queues).  On a live
        table the memo lives for this call; on a snapshot it is shared
        by every split half pinned at the same tree versions with the
        same bloom flag, so a value may be replayed without any walk
        here.  ``index_seeks`` are the caller's to charge.

        Returns ``(memo, outer_idx, inner_idx)``: the memo, and as
        ``np.intp`` arrays the position in ``values`` and in the memo's
        pool of every matched pair, outer-major.
        """
        if column == table.schema.primary_key:
            def seek(value, stats):
                raw = table.get_record(value, stats=stats)
                return () if raw is None else (raw,)
        else:
            def seek(value, stats):
                return tuple(table.index_lookup_raw(column, value,
                                                    stats=stats))
        memo = table.seek_memo(column)
        n = len(values)
        if not n:
            empty = np.zeros(0, dtype=np.intp)
            return memo, empty, empty
        breaks = np.ones(n + 1, dtype=bool)
        breaks[1:n] = values[1:] != values[:-1]
        if null is not None:
            breaks[1:n] |= null[1:] != null[:-1]
        if len(bounds) > 2:                 # no run crosses a segment
            breaks[bounds[1:-1]] = True
        cuts = breaks.nonzero()[0]          # the runs' starts, then n
        starts = cuts[:-1]
        lengths = cuts[1:] - starts
        firsts = np.zeros(len(starts), dtype=np.intp)   # per run: its span
        counts = np.zeros(len(starts), dtype=np.intp)
        spans = memo.spans
        # Per segment, the index of its first run; a segment's runs end
        # where the next one's begin.
        edges = _cut(starts, bounds).tolist()
        segment = 0
        # Runs are visited a slice at a time, so the Python objects of a
        # long outer's runs are never all alive at once.
        for lo in range(0, len(starts), _RUN_SLICE):
            at = starts[lo:lo + _RUN_SLICE]
            hi = lo + len(at)
            run_lengths = lengths[lo:hi].tolist()
            nulls = ([False] * len(at) if null is None
                     else null[at].tolist())
            picked = []
            for value, is_null in zip(values[at].tolist(), nulls):
                if is_null:
                    picked.append(_NO_SPAN)
                    continue
                span = spans.get(value)
                if span is None:
                    scratch = ReadStats()
                    with ReadTrace(scratch) as trace:
                        found = seek(value, scratch)
                    span = memo.add(value, trace, found)
                picked.append(span)
            traces, run_firsts, run_counts = zip(*picked)
            firsts[lo:hi] = run_firsts
            counts[lo:hi] = run_counts
            # Each segment's runs of this slice join its log.
            while segment < len(logs) and edges[segment] < hi:
                first = max(edges[segment], lo) - lo
                last = min(edges[segment + 1], hi) - lo
                if first < last:
                    logs[segment].append((traces[first:last],
                                          run_lengths[first:last]))
                if edges[segment + 1] > hi:
                    break
                segment += 1
            self._flush(0)
        row_count = counts.repeat(lengths)
        outer_idx = np.arange(n, dtype=np.intp).repeat(row_count)
        inner_idx = _spans(firsts.repeat(lengths), row_count)
        return memo, outer_idx, inner_idx

    def _join_bnlji(self, outer, bounds, outer_row_bytes, entry):
        """Indexed block nested loop: seek the inner on the outer's keys.

        Every matched pair is charged, but the inner's records are
        decoded once per seek memo and filtered once per distinct
        record of the call; extra join edges are checked on the edge
        columns alone, and the output is late-bound over the outer's
        bases and the memo's pool.  Pairs come out outer-major, so
        segment by segment.
        """
        table = self.catalog.table(entry.table_name)
        ops, memcmp = self._predicate_cost(entry.local_filter)
        needed, emitted, _exact = self._decode_plan(entry)
        outer_key, extra_edges, edge_columns = self._index_join_plan(entry)
        alias = entry.alias

        inner_bytes = self._materialized_bytes(entry)
        out_bytes = outer_row_bytes + inner_bytes
        if outer.has_column(outer_key):
            keys, null = outer.column(outer_key)
            sought = bounds
        else:               # a missing column reads as NULL: no seeks
            keys, null = np.zeros(0, dtype=np.int64), None
            sought = np.zeros_like(bounds)
        memo, outer_idx, inner_idx = self._seek_all(
            table, entry.index_column, keys, null, sought, self._logs)
        for work, seeks in zip(self._work, _lengths(
                sought if null is None else _prefix(~null)[sought])):
            work.index_seeks += seeks
        self._evaluated(_lengths(_cut(outer_idx, bounds)), ops, memcmp)
        if entry.local_filter is not None:
            passed = np.zeros(len(memo.records), dtype=bool)
            passed[inner_idx] = True
            found = passed.nonzero()[0]
            passed[found] = eval_mask(entry.local_filter,
                                      memo.gather(needed, alias, found))
            keep = passed[inner_idx]
            outer_idx = outer_idx[keep]
            inner_idx = inner_idx[keep]
        inner = memo.gather(emitted, alias, inner_idx)
        if extra_edges:
            keep = _edge_mask(
                extra_edges,
                outer.project([name for name in edge_columns
                               if outer.has_column(name)]).take(outer_idx),
                inner)
            outer_idx = outer_idx[keep]
            inner = inner.select(keep)
        return self._output(outer.take(outer_idx).merged(inner),
                            _cut(outer_idx, bounds), out_bytes)

    def _join_bnlj(self, outer, bounds, outer_row_bytes, entry):
        """Block nested loop with a hash table built in the join buffer.

        Each segment's outer is cut into blocks that fit the join buffer
        and the inner is read once per block (the LSM counters therefore
        grow with block count — the buffer-pressure effect the paper
        reports for small buffers); every block probes the one decoded
        inner side.  Pairs come out segment by segment, and within one
        block by block, then by inner row, then by outer row — the order
        a per-block hash table of the outer yields.
        """
        table = self.catalog.table(entry.table_name)
        ops, memcmp = self._predicate_cost(entry.local_filter)
        outer_keys = self._outer_keys(entry)
        per_row = max(1, outer_row_bytes)
        rows_per_block = max(1, self.config.join_buffer_bytes // per_row)
        out_bytes = outer_row_bytes + self._materialized_bytes(entry)

        n_outer = _lengths(bounds)
        blocks = [-(-n // rows_per_block) for n in n_outer]
        side, m = self._inner_side(table, entry, blocks)
        keyed = _keyed_rows(outer, outer_keys)
        for work, built, count, n in zip(
                self._work, _lengths(_prefix(keyed)[bounds]), blocks, n_outer):
            work.hash_probes += built + len(side.rows) * count
            work.bytes_materialized += n * per_row
        self._evaluated([m * count for count in blocks], ops, memcmp)
        codes = side.outer_codes(outer, outer_keys, keyed)
        build = np.flatnonzero(codes >= 0)
        probe_idx, build_idx = _match(codes[build], side.codes)
        out_outer = build[build_idx]
        out_inner = side.rows[probe_idx]
        if sum(blocks) > 1:
            segment = np.searchsorted(bounds, out_outer, "right") - 1
            first_block = _prefix(blocks)[segment]
            order = np.argsort(first_block + (out_outer - bounds[segment])
                               // rows_per_block, kind="stable")
            out_outer = out_outer[order]
            out_inner = out_inner[order]
        return self._emit(outer, bounds, side, out_outer, out_inner,
                          out_bytes)

    def _join_nlj(self, outer, bounds, outer_row_bytes, entry):
        """Classical nested loop join: re-read the inner per outer row.

        Present for completeness (nKV offers it, §2.1); the optimizer
        never picks it, but forced plans can.  Every outer row with a
        non-NULL key reads the inner once; pairs come out by outer row,
        then by inner row.
        """
        table = self.catalog.table(entry.table_name)
        ops, memcmp = self._predicate_cost(entry.local_filter)
        outer_keys = self._outer_keys(entry)
        out_bytes = outer_row_bytes + self._materialized_bytes(entry)
        keyed = _keyed_rows(outer, outer_keys)
        passes = _lengths(_prefix(keyed)[bounds])
        side, m = self._inner_side(table, entry, passes)
        self._evaluated([m * count for count in passes],
                        ops + len(outer_keys), memcmp)
        codes = side.outer_codes(outer, outer_keys, keyed)
        probe = np.flatnonzero(codes >= 0)
        probe_idx, build_idx = _match(side.codes, codes[probe])
        return self._emit(outer, bounds, side, probe[probe_idx],
                          side.rows[build_idx], out_bytes)

    def _join_ghj(self, outer, bounds, outer_row_bytes, entry):
        """Grace hash join: partition both inputs, then hash per pair.

        Partitions are materialized (on-device they would be persisted
        to flash, §2.1 result-set management), charged as memcpy bytes,
        and each pair joins with one in-buffer hash table.  Each segment
        reads the inner once, an empty one too, and partitions by its
        own size.  Equal keys share a partition, so pairs come out
        segment by segment, and within one by the inner row's partition,
        then by inner row, then by outer row.
        """
        table = self.catalog.table(entry.table_name)
        ops, memcmp = self._predicate_cost(entry.local_filter)
        outer_keys = self._outer_keys(entry)
        inner_bytes = self._materialized_bytes(entry)
        out_bytes = outer_row_bytes + inner_bytes

        per_row = max(1, outer_row_bytes)
        partitions = np.maximum(1, -(-((bounds[1:] - bounds[:-1]) * per_row)
                                     // self.config.join_buffer_bytes))
        keyed = _keyed_rows(outer, outer_keys)
        built = _lengths(_prefix(keyed)[bounds])
        for work, count in zip(self._work, built):
            work.hash_probes += count
            work.bytes_materialized += count * per_row

        side, m = self._inner_side(table, entry, [1] * len(built))
        self._evaluated([m] * len(built), ops, memcmp)
        passed = len(side.rows)
        for work in self._work:
            # Once to partition each passing inner row, once to probe it.
            work.hash_probes += 2 * passed
            work.bytes_materialized += inner_bytes * passed

        codes = side.outer_codes(outer, outer_keys, keyed)
        build = np.flatnonzero(codes >= 0)
        probe_idx, build_idx = _match(codes[build], side.codes)
        out_outer = build[build_idx]
        if len(bounds) > 2 or partitions[0] > 1:
            segment = np.searchsorted(bounds, out_outer, "right") - 1
            part = np.zeros_like(segment)
            if partitions.max() > 1:
                part = (side.key_hashes()[side.codes[probe_idx]]
                        % partitions[segment])
            order = np.lexsort((part, segment))
            out_outer = out_outer[order]
            probe_idx = probe_idx[order]
        return self._emit(outer, bounds, side, out_outer,
                          side.rows[probe_idx], out_bytes)

    def _emit(self, outer, bounds, side, outer_idx, inner_idx, out_bytes):
        """The matched pairs, segment-major, as the stage's output,
        late-bound over the outer's bases and the inner side's decoded
        batch."""
        return self._output(
            outer.take(outer_idx).merged(side.batch.take(inner_idx)),
            _cut(outer_idx, bounds), out_bytes)

    def _output(self, result, bounds, out_bytes):
        """A join's ``(result, bounds, out_bytes)``, its rows charged.

        ``bounds`` are the offsets of the output's segments (:func:`_cut`
        of its outer positions).
        """
        for work, rows in zip(self._work, _lengths(bounds)):
            work.bytes_materialized += out_bytes * rows
            work.output_rows += rows
        return result, bounds, out_bytes

    @staticmethod
    def _outer_keys(entry):
        """Qualified outer columns the entry's join edges compare with."""
        return [f"{alias}.{column}" for alias, column in
                (edge.other(entry.alias) for edge in entry.join_edges)]

    def _inner_side(self, table, entry, passes):
        """The inner table of a scan join, its reads charged ``passes``
        times per segment.

        The one place a scan join reads its inner: each pass charges one
        physical read of the inner (same access order and read stats as
        the row engine's rescan, through this executor's block cache),
        but the records are decoded and keyed once.  A full scan is
        read through :meth:`_scanned` — with the keyed sides built from
        it, one per set of decoded and join columns, and the filter
        masks, one per filter — and every pass, here or in any later
        call at that version, is a replay: the passes of one segment are
        consecutive, so one queued run charges them all.  An inner read
        through a secondary index on a constant is sought once per pass.
        No pass at all (empty outers) reads nothing and joins nothing.
        The stage's selection and projection are applied on every call.

        Returns ``(side, records read per pass)``.
        """
        needed, emitted, exact = self._decode_plan(entry)
        columns = [f"{entry.alias}.{edge.column_of(entry.alias)}"
                   for edge in entry.join_edges]
        reading = [segment for segment, count in enumerate(passes) if count]
        memo = None
        if not reading:
            inner = table.codec.batch_projector(needed, entry.alias)([])
            side, read = _keyed_side(inner, columns), 0
        elif (entry.access_path is AccessPath.SECONDARY_LOOKUP
                and entry.index_column is not None
                and entry.index_column not in
                [edge.column_of(entry.alias) for edge in entry.join_edges]):
            keys = _constant_keys(self._index_constants(entry))
            runs = []
            seeks, _, inner_idx = self._seek_all(
                table, entry.index_column, *keys, _whole(len(keys[0])),
                [runs])
            for segment in reading:
                self._logs[segment].extend(runs * passes[segment])
            for work, count in zip(self._work, passes):
                work.index_seeks += _sought(keys[1]) * count
            side = _keyed_side(seeks.gather(needed, entry.alias, inner_idx),
                               columns)
            read = len(inner_idx)
        else:
            memo, inner = self._scanned(table, entry.alias, needed)
            for segment in reading:
                self._logs[segment].append(((memo.trace,), [passes[segment]]))
            key = (entry.alias, tuple(needed), tuple(columns))
            side = memo.sides.get(key)
            if side is None:
                side = memo.sides[key] = _keyed_side(inner, columns)
            read = len(memo.records)
        if entry.local_filter is None:
            keep = np.ones(len(side.batch), dtype=bool)
        else:
            keep = _filter_mask(memo, entry, side.batch)
        batch = side.batch if exact else side.batch.project(
            [f"{entry.alias}.{name}" for name in emitted])
        return side.where(keep, batch), read

    @staticmethod
    def _scanned(table, alias, needed):
        """``(memo, batch)``: ``table.scan_memo()`` and its records
        decoded as the ``alias.name`` columns of ``needed``.

        The one place a full scan is read.  The first read at a primary
        version walks the tree under a recording :class:`ReadTrace`,
        against scratch stats, and keeps the trace and the records in
        the memo; the records are decoded once per alias and columns.
        Nothing is charged: the caller queues ``memo.trace`` on the log
        of each segment that reads the table.
        """
        memo = table.scan_memo()
        if memo.trace is None:
            scratch = ReadStats()
            with ReadTrace(scratch) as trace:
                records = list(table.scan_raw(ScanRequest(stats=scratch)))
            memo.trace, memo.records = trace, records
        key = (alias, tuple(needed))
        batch = memo.batches.get(key)
        if batch is None:
            batch = memo.batches[key] = table.codec.batch_projector(
                needed, alias)(memo.records)
        return memo, batch

    # ------------------------------------------------------------------
    # Residual predicates
    # ------------------------------------------------------------------
    def _apply_residual(self, batch, bounds, pending, available):
        """Apply the conjuncts of ``pending`` that ``available`` binds.

        Returns ``(batch, bounds, still pending)``.
        """
        ready = [conjunct for conjunct in pending
                 if conjunct.aliases() <= available]
        if not ready:
            return batch, bounds, pending
        remaining = [conjunct for conjunct in pending
                     if conjunct not in ready]
        total_ops = 0
        total_memcmp = 0
        for conjunct in ready:
            ops, memcmp = self._predicate_cost(conjunct)
            total_ops += ops
            total_memcmp += memcmp
        if len(batch):
            self._evaluated(_lengths(bounds), total_ops, total_memcmp)
            keep = np.ones(len(batch), dtype=bool)
            for conjunct in ready:
                keep &= eval_mask(conjunct, batch)
            batch = batch.select(keep)
            bounds = _prefix(keep)[bounds]
        return batch, bounds, remaining

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _materialized_bytes(self, entry):
        """Bytes one projected row of this table occupies in caches."""
        if self.config.pointer_cache:
            return _POINTER_BYTES * max(1, entry.projection_field_count)
        return max(4, entry.projection_bytes)


def gather_fragments(batches, select_items, group_by):
    """What :func:`finalize` reads of ``batches`` as one batch.

    ``batches`` are a split's per-batch fragments or a cluster's
    partitions.  Each is projected to the columns the select items and
    group-by name — all of them for a ``SELECT *`` without aggregates —
    then they are concatenated, so a column nothing reads is never
    gathered.
    """
    if (group_by or any(item.aggregate for item in select_items)
            or all(item.expr != "*" for item in select_items)):
        names = [col.qualified for col in group_by]
        names.extend(item.expr.qualified for item in select_items
                     if item.expr != "*")
        batches = [batch.project([name for name in dict.fromkeys(names)
                                  if batch.has_column(name)])
                   for batch in batches]
    return ColumnBatch.concat(batches)


def _column_list(batch, name):
    """``batch.column_list(name)``; a missing column reads as all-``None``
    (the row engine's ``row.get(name)``)."""
    if not batch.has_column(name):
        return [None] * len(batch)
    return batch.column_list(name)


def finalize(batch, select_items, group_by, counters, limit=None):
    """Final projection / aggregation / grouping stage.

    ``batch`` is a :class:`ColumnBatch` or a list of them (a split's
    per-batch fragments — see :func:`gather_fragments`).  Only the
    columns the select items and group-by read are gathered.  Returns
    ``(result_rows, column_names)`` with plain-Python dict rows, and
    charges exactly what the row engine's epilogue
    (``tests/rowref.py``) does.
    """
    if not isinstance(batch, ColumnBatch):
        batch = gather_fragments(batch, select_items, group_by)
    has_aggregates = any(item.aggregate for item in select_items)
    columns = [item.output_name for item in select_items]
    n = len(batch)

    if not has_aggregates and not group_by:
        star = any(item.expr == "*" for item in select_items)
        counters.records_evaluated += n
        limited = batch if limit is None else batch[:limit]
        if star:
            output = limited.rows()
            counters.output_rows += len(output)
            if output:
                columns = sorted(batch.schema)
            return output, columns
        value_lists = [(item.output_name,
                        _column_list(limited, item.expr.qualified))
                       for item in select_items]
        output = [{name: values[i] for name, values in value_lists}
                  for i in range(len(limited))]
        counters.output_rows += len(output)
        return output, columns

    key_lists = [_column_list(batch, col.qualified) for col in group_by]
    counters.records_evaluated += n
    counters.hash_probes += n
    groups = {}
    for i in range(n):
        groups.setdefault(tuple(lst[i] for lst in key_lists),
                          []).append(i)
    if not groups and has_aggregates and not group_by:
        groups[()] = []

    value_lists = {}
    for item in select_items:
        if item.expr != "*":
            name = item.expr.qualified
            if name not in value_lists:
                value_lists[name] = _column_list(batch, name)

    output = []
    for key, members in groups.items():
        result = {}
        for col, value in zip(group_by, key):
            result[col.qualified] = value
        for item in select_items:
            if not item.aggregate:
                values = value_lists[item.expr.qualified]
                result[item.output_name] = (values[members[0]]
                                            if members else None)
                continue
            if item.expr == "*":
                values = members
            else:
                column = value_lists[item.expr.qualified]
                values = [column[i] for i in members
                          if column[i] is not None]
            counters.records_evaluated += len(members)
            result[item.output_name] = _aggregate(item.aggregate, values,
                                                  item.expr == "*", members)
        output.append(result)
    if limit is not None:
        output = output[:limit]
    counters.output_rows += len(output)
    if group_by:
        columns = [col.qualified for col in group_by] + columns
    return output, columns


def _aggregate(name, values, star, members):
    if name == "count":
        return len(members) if star else len(values)
    if not values:
        return None
    if name == "min":
        return min(values)
    if name == "max":
        return max(values)
    if name == "sum":
        return sum(values)
    if name == "avg":
        return sum(values) / len(values)
    raise ExecutionError(f"unknown aggregate {name!r}")
