"""Block cache.

RocksDB keeps hot data and index blocks in a block cache; the host's
page cache plays the same role for the BLK stack, and the device's
data-block/index-block buffers do on smart storage (§5 memory
reservations).  The cache here is accounting-only: a hit means the block
read is *not* charged to flash I/O.
"""

from collections import OrderedDict


class BlockCache:
    """A byte-capacity LRU over opaque block keys."""

    def __init__(self, capacity_bytes):
        self.capacity_bytes = max(0, int(capacity_bytes))
        self._entries = OrderedDict()     # key -> nbytes
        self._used = 0
        self.hits = 0
        self.misses = 0

    def access(self, key, nbytes):
        """Record an access; returns True on a hit (I/O avoided)."""
        if self.capacity_bytes <= 0:
            self.misses += 1
            return False
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        if nbytes <= self.capacity_bytes:
            self._entries[key] = nbytes
            self._used += nbytes
            while self._used > self.capacity_bytes:
                _evicted, evicted_bytes = self._entries.popitem(last=False)
                self._used -= evicted_bytes
        return False

    def access_all(self, touches):
        """:meth:`access` every ``(key, nbytes, ...)`` touch in order.

        Returns the touches that missed.  The loop trace replays spend
        their time in: one call takes the first replays of all the runs
        a :class:`~repro.lsm.store.Replays` queue holds.  A hit is
        handled here, anything else by :meth:`access`.
        """
        entries = self._entries
        missed = []
        for touch in touches:
            key = touch[0]
            if key in entries:
                entries.move_to_end(key)
            else:
                self.access(key, touch[1])
                missed.append(touch)
        self.hits += len(touches) - len(missed)
        return missed

    def lru_state(self):
        """Resident ``(key, nbytes)`` pairs, least recently used first.

        Everything :meth:`access` depends on besides the capacity: two
        equal states answer any access sequence alike.
        """
        return list(self._entries.items())

    @property
    def used_bytes(self):
        """Bytes currently cached."""
        return self._used

    def __len__(self):
        return len(self._entries)

    def hit_rate(self):
        """Fraction of accesses served from cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
