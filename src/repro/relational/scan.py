"""The scan-parameter surface: :class:`ScanRequest`.

Every table scan (``scan``, ``scan_raw``, ``scan_batch``) takes a single
frozen :class:`ScanRequest`; a keyword argument is a ``TypeError``.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class ScanRequest:
    """Everything a table scan needs, in one frozen value.

    Attributes:
        columns: Column names to decode (``None`` decodes the full
            schema).  Decode order follows this sequence.
        pk_lo: Inclusive lower primary-key bound, or ``None``.
        pk_hi: Inclusive upper primary-key bound, or ``None``.
        stats: :class:`~repro.lsm.store.ReadStats` sink shared with the
            caller, or ``None`` for a throwaway.
        qualified_as: Alias used to qualify decoded column names
            (``alias.column``); ``None`` leaves names bare.
        shard: Optional :class:`~repro.cluster.TableShard`, honoured by
            ``scan_batch``: it clamps the pk bounds to the shard and
            prunes membership vectorized.  Requires the primary key
            among ``columns``.
    """

    columns: tuple = None
    pk_lo: int = None
    pk_hi: int = None
    stats: object = None
    qualified_as: str = None
    shard: object = None
