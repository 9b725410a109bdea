"""MemTable: the in-memory C0 component of an LSM tree.

Writes land here first; once the table exceeds its size threshold it is
frozen (made immutable) and a new MemTable takes over, as in RocksDB.
Deletes are tombstones so they shadow older on-disk versions.
"""

from bisect import bisect_left, insort

from repro.errors import LSMError

#: Sentinel stored for deleted keys; chosen to be an invalid record value.
TOMBSTONE = b"\x00__repro_tombstone__\x00"


class MemTable:
    """A size-bounded write buffer: a dict plus a sorted key list.

    Puts, deletes and gets go to the dict.  The sorted key list is built
    at the first ordered read (:meth:`items` / :meth:`entries`) and kept
    sorted with ``insort`` on every new key after that, so a bulk load —
    puts only, then one flush — sorts its keys once.  The timing model
    prices no MemTable work (not even ``memtable_gets``), so the choice
    of structure moves no simulated time.

    An :meth:`items` walk is a snapshot: it yields the keys in range and
    their values as they were when it was called, and puts or deletes
    made while it is open do not reach it.  ``LSMTree.scan`` builds its
    sources at its first ``next()``, so a tree scan sees the whole tree
    as of that moment.
    """

    def __init__(self, size_limit=4 * 1024 * 1024):
        if size_limit <= 0:
            raise LSMError("memtable size limit must be positive")
        self._entries = {}
        self._sorted = None         # sorted keys, from the first ordered read
        self._size_limit = size_limit
        self._bytes = 0
        self._immutable = False

    def __len__(self):
        return len(self._entries)

    @property
    def byte_size(self):
        """Approximate bytes of keys+values held."""
        return self._bytes

    @property
    def size_limit(self):
        """Flush threshold in bytes."""
        return self._size_limit

    @property
    def immutable(self):
        """True once the table has been frozen."""
        return self._immutable

    def is_full(self):
        """Whether the table has reached its flush threshold."""
        return self._bytes >= self._size_limit

    def freeze(self):
        """Make the table immutable (pre-flush state in RocksDB)."""
        self._immutable = True

    @classmethod
    def pinned(cls, entries):
        """A frozen table holding ``entries``, ``(key, value)`` pairs in
        key order as :meth:`items` yields them (tombstones included)."""
        table = cls()
        table._entries = dict(entries)
        table._sorted = [key for key, _ in entries]
        table._immutable = True
        return table

    def put(self, key, value):
        """Insert or overwrite a key."""
        if self._immutable:
            raise LSMError("cannot write to an immutable MemTable")
        if not isinstance(value, bytes):
            raise LSMError(f"values must be bytes, got {type(value)}")
        self._write(key, value)

    def delete(self, key):
        """Record a tombstone for a key."""
        if self._immutable:
            raise LSMError("cannot write to an immutable MemTable")
        self._write(key, TOMBSTONE)

    def _write(self, key, value):
        if not isinstance(key, bytes):
            raise LSMError(f"memtable keys must be bytes, got {type(key)}")
        entries = self._entries
        if self._sorted is not None and key not in entries:
            insort(self._sorted, key)
        entries[key] = value
        self._bytes += len(key) + len(value)

    def get(self, key):
        """Return (found, value). Tombstones report found with value None."""
        value = self._entries.get(key)
        if value is None:
            return False, None
        if value == TOMBSTONE:
            return True, None
        return True, value

    def items(self, lo=None, hi=None):
        """(key, value) pairs in key order within [lo, hi), as of the call;
        tombstones included as-is."""
        keys = self._sorted
        if keys is None:
            keys = self._sorted = sorted(self._entries)
        start = 0 if lo is None else bisect_left(keys, lo)
        end = len(keys) if hi is None else bisect_left(keys, hi)
        keys = keys[start:end]
        return zip(keys, list(map(self._entries.__getitem__, keys)))

    def entries(self):
        """Materialize all entries (used when freezing into an SST)."""
        return list(self.items())
