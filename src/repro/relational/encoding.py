"""Record and key codecs.

Records are fixed-width: a 4-byte-aligned null bitmap followed by every
column at its aligned storage width (INTs little-endian, CHARs padded with
spaces / trimmed to the declared width, mirroring the paper's JOB
modification).  Keys are order-preserving big-endian encodings so that
``memcmp`` order over the LSM tree equals value order.
"""

import struct

import numpy as np

from repro.errors import SchemaError
from repro.relational.schema import DataType

_ALIGNMENT = 4
_INT_MIN = -(2 ** 31)
_INT_MAX = 2 ** 31 - 1
_KEY_BIAS = 2 ** 63


def encode_key(value, width=None):
    """Order-preserving key encoding for INT or CHAR values.

    Integers become biased 8-byte big-endian so signed order matches byte
    order; strings are padded to ``width`` so prefixes do not interleave.
    """
    if isinstance(value, int):
        return struct.pack(">Q", value + _KEY_BIAS)
    if isinstance(value, str):
        raw = value.encode("utf-8", errors="replace")
        if width is not None:
            raw = raw[:width].ljust(width, b" ")
        return raw
    if isinstance(value, bytes):
        return value
    raise SchemaError(f"cannot encode key of type {type(value)}")


def decode_key(raw):
    """Decode an integer key produced by :func:`encode_key`."""
    if len(raw) != 8:
        raise SchemaError(f"integer keys are 8 bytes, got {len(raw)}")
    return struct.unpack(">Q", raw)[0] - _KEY_BIAS


def composite_key(secondary_raw, primary_raw):
    """Secondary-index key: secondary value bytes + primary key bytes."""
    return secondary_raw + primary_raw


def split_composite_key(raw):
    """Inverse of :func:`composite_key` (primary part is the last 8 bytes)."""
    if len(raw) < 8:
        raise SchemaError("composite key too short")
    return raw[:-8], raw[-8:]


class RecordCodec:
    """Encodes/decodes full records for one table schema."""

    def __init__(self, schema):
        self.schema = schema
        bitmap = (len(schema.columns) + 7) // 8
        self._bitmap_bytes = (bitmap + _ALIGNMENT - 1) // _ALIGNMENT * _ALIGNMENT
        self._offsets = []
        offset = self._bitmap_bytes
        # The whole record is one struct: the null bitmap, then each
        # column at its offset (INT as ``i``, CHAR as ``{width}s`` plus
        # alignment padding); ``_encode_plan`` holds what :meth:`encode`
        # checks per column.
        layout = [f"<{self._bitmap_bytes}s"]
        self._encode_plan = []
        for i, column in enumerate(schema.columns):
            self._offsets.append(offset)
            offset += column.storage_width
            is_int = column.dtype is DataType.INT
            layout.append(f"{'i' if is_int else f'{column.width}s'}"
                          f"{column.storage_width - column.width}x")
            self._encode_plan.append((column.name, 1 << i, column.nullable,
                                      is_int, column.width))
        self._record_bytes = offset
        self._record = struct.Struct("".join(layout))
        self._projectors = {}
        self._batch_projectors = {}

    @property
    def record_bytes(self):
        """Fixed encoded size of one record."""
        return self._record_bytes

    def encode(self, row):
        """Encode a mapping of column name -> value into record bytes."""
        table = self.schema.name
        values = []
        nulls = 0
        for name, bit, nullable, is_int, width in self._encode_plan:
            value = row.get(name)
            if value is None:
                if not nullable:
                    raise SchemaError(f"{table}.{name} is NOT NULL")
                nulls |= bit
                values.append(0 if is_int else b"")
            elif is_int:
                if not isinstance(value, int):
                    raise SchemaError(
                        f"{table}.{name}: expected int, got {type(value)}")
                if not _INT_MIN <= value <= _INT_MAX:
                    raise SchemaError(
                        f"{table}.{name}: {value} out of 4-byte range")
                values.append(value)
            else:
                if not isinstance(value, str):
                    raise SchemaError(
                        f"{table}.{name}: expected str, got {type(value)}")
                values.append(value.encode("utf-8", errors="replace")
                              [:width].ljust(width, b" "))
        return self._record.pack(
            nulls.to_bytes(self._bitmap_bytes, "little"), *values)

    def decode(self, raw):
        """Decode record bytes into a dict of column name -> value."""
        if len(raw) != self._record_bytes:
            raise SchemaError(
                f"{self.schema.name}: record is {len(raw)} bytes, "
                f"expected {self._record_bytes}")
        row = {}
        for i, column in enumerate(self.schema.columns):
            if raw[i // 8] & (1 << (i % 8)):
                row[column.name] = None
                continue
            offset = self._offsets[i]
            if column.dtype is DataType.INT:
                row[column.name] = struct.unpack_from("<i", raw, offset)[0]
            else:
                text = raw[offset:offset + column.width]
                row[column.name] = text.decode("utf-8",
                                               errors="replace").rstrip(" ")
        return row

    def decode_columns(self, raw, column_names):
        """Decode only the named columns (projection pushdown)."""
        return self.projector(column_names)(raw)

    def projector(self, column_names, qualified_prefix=None):
        """A compiled partial decoder for the named columns.

        The returned closure decodes one record's bytes into a dict; with
        ``qualified_prefix`` the keys are ``prefix.column`` (the form the
        execution pipeline uses).  Projectors are cached per column set.
        """
        cache_key = (tuple(column_names), qualified_prefix)
        cached = self._projectors.get(cache_key)
        if cached is not None:
            return cached
        plan = []
        for name in column_names:
            i = self.schema.column_index(name)
            column = self.schema.columns[i]
            out_name = (f"{qualified_prefix}.{name}"
                        if qualified_prefix else name)
            plan.append((out_name, i >> 3, 1 << (i & 7), self._offsets[i],
                         column.dtype is DataType.INT, column.width))
        unpack = struct.unpack_from

        def project(raw):
            row = {}
            for out_name, byte, bit, offset, is_int, width in plan:
                if raw[byte] & bit:
                    row[out_name] = None
                elif is_int:
                    row[out_name] = unpack("<i", raw, offset)[0]
                else:
                    row[out_name] = raw[offset:offset + width].decode(
                        "utf-8", errors="replace").rstrip(" ")
            return row

        self._projectors[cache_key] = project
        return project

    def batch_projector(self, column_names, qualified_prefix=None):
        """A compiled vectorized decoder for the named columns.

        The returned closure decodes a list of record byte strings into
        one :class:`~repro.columns.ColumnBatch` in a single
        ``np.frombuffer`` pass over a structured dtype: INT columns as
        little-endian 4-byte fields widened to int64, CHAR columns as
        ``S{width}`` fields decoded to unicode and right-trimmed, and
        the null bitmap bytes as overlapping ``u1`` fields feeding the
        per-column null masks.  Cached per (columns, prefix) like
        :meth:`projector`.
        """
        cache_key = (tuple(column_names), qualified_prefix)
        cached = self._batch_projectors.get(cache_key)
        if cached is not None:
            return cached
        from repro.columns import ColumnBatch

        names, formats, offsets = [], [], []
        bitmap_fields = {}
        plan = []
        for j, name in enumerate(column_names):
            i = self.schema.column_index(name)
            column = self.schema.columns[i]
            out_name = (f"{qualified_prefix}.{name}"
                        if qualified_prefix else name)
            field = f"v{j}"
            names.append(field)
            formats.append("<i4" if column.dtype is DataType.INT
                           else f"S{column.width}")
            offsets.append(self._offsets[i])
            byte = i >> 3
            bitmap_field = bitmap_fields.get(byte)
            if bitmap_field is None:
                bitmap_field = f"b{byte}"
                bitmap_fields[byte] = bitmap_field
                names.append(bitmap_field)
                formats.append("u1")
                offsets.append(byte)
            plan.append((out_name, field, bitmap_field, 1 << (i & 7),
                         column.dtype is DataType.INT))
        dtype = np.dtype({"names": names, "formats": formats,
                          "offsets": offsets,
                          "itemsize": self._record_bytes})
        out_names = tuple(entry[0] for entry in plan)

        def build(raws):
            n = len(raws)
            if n == 0:
                cols = {out_name:
                        (np.empty(0, dtype=np.int64 if is_int else "<U1"),
                         None)
                        for out_name, _f, _b, _bit, is_int in plan}
                return ColumnBatch(out_names, cols, 0)
            records = np.frombuffer(b"".join(raws), dtype=dtype, count=n)
            cols = {}
            for out_name, field, bitmap_field, bit, is_int in plan:
                null = (records[bitmap_field] & bit) != 0
                mask = null if null.any() else None
                if is_int:
                    values = records[field].astype(np.int64)
                else:
                    values = np.char.rstrip(
                        np.char.decode(records[field], "utf-8", "replace"),
                        " ")
                if mask is not None:
                    values[mask] = 0 if is_int else ""
                cols[out_name] = (values, mask)
            return ColumnBatch(out_names, cols, n)

        self._batch_projectors[cache_key] = build
        return build
