"""Physical plans: left-deep join pipelines.

A :class:`QueryPlan` is an ordered list of :class:`TableAccess` entries.
Entry 0 is the driving table; each later entry joins the running
intermediate result with one more table using the chosen join algorithm
and access path.  This left-deep list is precisely the structure the
hybridNDP splitter cuts: split point Hk keeps entries ``0..k`` (and their
joins) on the device, the rest on the host (paper §3.3/Fig 6).

Plans are immutable values (frozen, with tuple sequences), so no caller
can change a cached plan: derive another with :func:`dataclasses.replace`
or :func:`repro.query.optimizer.plan_for`.
"""

import enum
from dataclasses import dataclass

from repro.errors import PlanError


class AccessPath(enum.Enum):
    """How a table's rows are obtained."""

    FULL_SCAN = "full_scan"               # primary LSM scan
    PK_RANGE = "pk_range"                 # primary index range
    SECONDARY_LOOKUP = "secondary_lookup"  # secondary index + PK fetch


class JoinAlgorithm(enum.Enum):
    """Join operators available on host and device (paper §2.1)."""

    NLJ = "nlj"        # nested loop
    BNLJ = "bnlj"      # block nested loop (hash build in the buffer)
    BNLJI = "bnlji"    # block nested loop using an index on the inner
    GHJ = "ghj"        # grace hash join


@dataclass(frozen=True)
class TableAccess:
    """One pipeline stage: access a table and join it with the prefix."""

    alias: str
    table_name: str
    access_path: AccessPath = AccessPath.FULL_SCAN
    index_column: str = None              # for SECONDARY_LOOKUP / BNLJI
    local_filter: object = None           # Expr over this table only
    projection: tuple = ()
    join_edges: tuple = ()                # edges to the prefix
    join_algorithm: JoinAlgorithm = None  # None for the driving table
    # Optimizer estimates (fed to the cost model):
    estimated_selectivity: float = 1.0
    estimated_rows: int = 0               # rows after the local filter
    estimated_output_rows: int = 0        # rows after joining with prefix
    # Table metadata snapshot:
    table_rows: int = 0
    record_bytes: int = 0
    projection_bytes: int = 0
    field_count: int = 0
    projection_field_count: int = 0

    @property
    def uses_secondary_index(self):
        """Whether this stage reads through a secondary index."""
        return (self.access_path is AccessPath.SECONDARY_LOOKUP
                or (self.join_algorithm is JoinAlgorithm.BNLJI
                    and self.index_column is not None))

    def describe(self):
        """One-line, EXPLAIN-style description."""
        parts = [f"{self.alias}({self.table_name})",
                 self.access_path.value]
        if self.index_column:
            parts.append(f"idx:{self.index_column}")
        if self.join_algorithm:
            parts.append(self.join_algorithm.value)
        parts.append(f"~{self.estimated_rows} rows")
        return " ".join(parts)


@dataclass(frozen=True)
class QueryPlan:
    """A complete left-deep physical plan."""

    spec: object                          # the QuerySpec
    entries: tuple                        # ordered TableAccess entries
    residual: object = None               # cross-table predicate
    group_by: tuple = ()
    select_items: tuple = ()
    limit: int = None

    def __post_init__(self):
        for name in ("entries", "group_by", "select_items"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not self.entries:
            raise PlanError("a plan needs at least one table")
        if self.entries[0].join_algorithm is not None:
            raise PlanError("the driving table cannot have a join algorithm")
        for entry in self.entries[1:]:
            if entry.join_algorithm is None:
                raise PlanError(
                    f"non-driving entry {entry.alias} needs a join algorithm")

    @property
    def table_count(self):
        """Number of tables in the pipeline."""
        return len(self.entries)

    @property
    def join_count(self):
        """Number of join operators."""
        return len(self.entries) - 1

    @property
    def aliases(self):
        """Aliases in pipeline order."""
        return [entry.alias for entry in self.entries]

    def entry(self, alias):
        """Look up the entry for one alias."""
        for entry in self.entries:
            if entry.alias == alias:
                return entry
        raise PlanError(f"alias {alias!r} not in plan")

    def prefix(self, k):
        """Entries 0..k (inclusive) — the NDP side of split point Hk."""
        if not 0 <= k < len(self.entries):
            raise PlanError(f"split index {k} out of range")
        return self.entries[:k + 1]

    def suffix(self, k):
        """Entries after split point Hk — the host side."""
        return self.entries[k + 1:]

    def describe(self):
        """Multi-line EXPLAIN-style description."""
        lines = [f"plan over {self.table_count} table(s):"]
        for i, entry in enumerate(self.entries):
            prefix = "  -> " if i else "  driving "
            lines.append(prefix + entry.describe())
        if self.residual is not None:
            lines.append(f"  residual: {self.residual}")
        if self.group_by:
            cols = ", ".join(str(c) for c in self.group_by)
            lines.append(f"  group by: {cols}")
        return "\n".join(lines)


def operator_counts(entries):
    """``(selections, secondary-index lookups, joins)`` of a device
    pipeline over ``entries``: the shape its buffer reservation is sized
    by (``SmartStorageDevice.pipeline_cost_bytes``)."""
    secondary = sum(1 for entry in entries if entry.uses_secondary_index)
    joins = sum(1 for entry in entries if entry.join_algorithm is not None)
    return len(entries), secondary, joins
