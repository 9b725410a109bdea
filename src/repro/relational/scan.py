"""The consolidated scan-parameter surface: :class:`ScanRequest`.

Before this module, ``Table.scan`` and ``SnapshotTable.scan`` had grown
a sprawl of keywords (``predicate=``, ``projection=``, ``stats=``,
``pk_lo=``/``pk_hi=``, per-call shard pruning at the call sites).  Every
scan now takes a single frozen :class:`ScanRequest`; passing the old
keywords raises a :class:`~repro.errors.ReproError` naming the
replacement field, mirroring the ``ctx=`` migration in
:mod:`repro.context`.
"""

from dataclasses import dataclass

from repro.errors import ReproError

#: Former ``scan()`` keyword arguments and the ScanRequest field that
#: replaced each one.
_REMOVED_SCAN_KWARGS = {
    "predicate": "ScanRequest(predicate=...)",
    "projection": "ScanRequest(projection=...)",
    "stats": "ScanRequest(stats=...)",
    "columns": "ScanRequest(columns=...)",
    "qualified_as": "ScanRequest(qualified_as=...)",
    "pk_lo": "ScanRequest(pk_lo=...)",
    "pk_hi": "ScanRequest(pk_hi=...)",
    "shard": "ScanRequest(shard=...)",
}


@dataclass(frozen=True)
class ScanRequest:
    """Everything a table scan needs, in one frozen value.

    Attributes:
        columns: Column names to decode (``None`` decodes the full
            schema).  Decode order follows this sequence.
        pk_lo: Inclusive lower primary-key bound, or ``None``.
        pk_hi: Inclusive upper primary-key bound, or ``None``.
        stats: :class:`~repro.sim.lsm.ReadStats` sink shared with the
            caller, or ``None`` for a throwaway.
        qualified_as: Alias used to qualify decoded column names
            (``alias.column``); ``None`` leaves names bare.
        shard: Optional :class:`~repro.cluster.TableShard`; batch scans
            clamp pk bounds to the shard and prune membership
            vectorized.  Requires the primary key among ``columns``.
        predicate: Row-level filter callable — honoured only by the
            legacy row ``scan()``, rejected by ``scan_batch()``.
        projection: Post-decode column subset — legacy row ``scan()``
            only.
    """

    columns: tuple = None
    pk_lo: int = None
    pk_hi: int = None
    stats: object = None
    qualified_as: str = None
    shard: object = None
    predicate: object = None
    projection: tuple = None


def check_scan_args(where, request, kwargs):
    """Validate the migrated ``scan(request)`` call surface.

    Rejects the pre-ScanRequest keywords with an error naming the
    replacement field, rejects positional arguments that are not a
    :class:`ScanRequest`, and returns the request (defaulting ``None``
    to an unbounded full scan).
    """
    for name, replacement in _REMOVED_SCAN_KWARGS.items():
        if name in kwargs:
            raise ReproError(
                f"{where}() no longer accepts {name}=; pass "
                f"{replacement} instead (see docs/engine.md)")
    if kwargs:
        unexpected = next(iter(kwargs))
        raise TypeError(
            f"{where}() got an unexpected keyword argument {unexpected!r}")
    if request is None:
        return ScanRequest()
    if not isinstance(request, ScanRequest):
        raise ReproError(
            f"{where}() takes a ScanRequest, not {type(request).__name__}")
    return request


def run_scan_batch(codec, schema, scan_fn, request, where):
    """Shared vectorized-scan implementation for both table kinds.

    ``scan_fn(lo, hi, stats)`` yields ``(key, record bytes)`` from the
    underlying LSM surface (live column family or snapshot view) —
    storage access order and read stats are exactly those of the row
    scan; only decode and pruning are vectorized.  Returns a
    :class:`~repro.columns.ColumnBatch`.
    """
    from repro.columns import shard_membership
    from repro.lsm.store import ReadStats
    from repro.relational.encoding import encode_key

    if request.predicate is not None or request.projection is not None:
        raise ReproError(
            f"{where}() decodes into columns; row-level predicate=/"
            f"projection= belong to scan()")
    columns = (list(request.columns) if request.columns is not None
               else list(schema.column_names))
    build = codec.batch_projector(columns, request.qualified_as)
    shard = request.shard
    if shard is not None and shard.is_empty:
        return build([])
    pk_lo, pk_hi = request.pk_lo, request.pk_hi
    if shard is not None:
        pk_lo, pk_hi = shard.clamp(pk_lo, pk_hi)
        if schema.primary_key not in columns:
            raise ReproError(
                f"{where}(): shard pruning needs the primary key among "
                f"the requested columns")
    stats = request.stats if request.stats is not None else ReadStats()
    lo = None if pk_lo is None else encode_key(pk_lo)
    hi = None if pk_hi is None else encode_key(pk_hi + 1)
    raws = [raw for _key, raw in scan_fn(lo, hi, stats)]
    batch = build(raws)
    if shard is not None:
        pk_name = (f"{request.qualified_as}.{schema.primary_key}"
                   if request.qualified_as else schema.primary_key)
        values, _mask = batch.column(pk_name)
        batch = batch.select(shard_membership(shard, values))
    return batch
