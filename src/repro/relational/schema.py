"""Relational schemas with fixed-width storage types.

The paper modifies JOB to use fixed-size byte lengths for character
values (padding or trimming) and 4-byte integers, honouring the COSMOS+
board's 4-byte alignment.  We encode exactly that: every record of a table
has the same byte size, which is what makes the cost model's
bytes-per-record terms (tbl_tbn, tbl_pbn) exact.
"""

import enum
from dataclasses import dataclass, field

from repro.errors import SchemaError

_ALIGNMENT = 4


class DataType(enum.Enum):
    """Storage types supported by the engine."""

    INT = "int"       # 4-byte signed integer
    CHAR = "char"     # fixed-width character value, space padded


@dataclass(frozen=True)
class Column:
    """One column of a table."""

    name: str
    dtype: DataType
    width: int = 4            # bytes; INT is always 4, CHAR is declared
    nullable: bool = True

    def __post_init__(self):
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.dtype is DataType.INT and self.width != 4:
            raise SchemaError("INT columns are always 4 bytes wide")
        if self.width <= 0:
            raise SchemaError(f"column {self.name}: width must be positive")

    @property
    def storage_width(self):
        """Width rounded up to the board's 4-byte alignment."""
        return (self.width + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT


def int_col(name, nullable=True):
    """Shorthand for a 4-byte integer column."""
    return Column(name, DataType.INT, 4, nullable)


def char_col(name, width, nullable=True):
    """Shorthand for a fixed-width character column."""
    return Column(name, DataType.CHAR, width, nullable)


@dataclass(frozen=True)
class TableSchema:
    """Schema of a table: ordered columns plus the primary-key column."""

    name: str
    columns: tuple
    primary_key: str = "id"
    secondary_indexes: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not self.columns:
            raise SchemaError(f"table {self.name}: needs at least one column")
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {self.name}: duplicate column names")
        if self.primary_key not in names:
            raise SchemaError(
                f"table {self.name}: primary key {self.primary_key!r} "
                f"is not a column")
        for indexed in self.secondary_indexes:
            if indexed not in names:
                raise SchemaError(
                    f"table {self.name}: indexed column {indexed!r} "
                    f"is not a column")

    @property
    def column_names(self):
        """Ordered column names."""
        return [column.name for column in self.columns]

    def column(self, name):
        """Look up a column by name."""
        for column in self.columns:
            if column.name == name:
                return column
        raise SchemaError(f"table {self.name}: no column {name!r}")

    def column_index(self, name):
        """Position of a column within the record."""
        for i, column in enumerate(self.columns):
            if column.name == name:
                return i
        raise SchemaError(f"table {self.name}: no column {name!r}")

    def has_column(self, name):
        """Whether the schema contains a column of this name."""
        return any(column.name == name for column in self.columns)

    @property
    def record_bytes(self):
        """Fixed byte size of one encoded record (tbl_tbn per record)."""
        null_bitmap = (len(self.columns) + 7) // 8
        null_bitmap = (null_bitmap + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT
        return null_bitmap + sum(c.storage_width for c in self.columns)

    def projection_bytes(self, column_names):
        """Byte size of the named attributes (tbl_pbn for a projection)."""
        return sum(self.column(name).storage_width for name in column_names)

    @property
    def field_count(self):
        """Number of columns (tbl_tfn)."""
        return len(self.columns)
