"""Bloom filter over SSTable keys.

Used by the host-side read path to skip SSTs that cannot contain a key.
The NDP engine deliberately does not probe blooms (paper §2.2): they have
already been probed on the host when the command was prepared.
"""

import math
import zlib
from itertools import repeat

import numpy as np

from repro.errors import LSMError

#: Seed of the second CRC32: ``h2 = crc32(key, _H2_SEED)``.
_H2_SEED = 0x9E3779B9


def key_hashes(key):
    """The ``(h1, h2)`` CRC32 pair every filter probes ``key`` with.

    The pair does not depend on the filter, so a point lookup hashes its
    key once and probes each candidate SST with :meth:`BloomFilter.probe`.
    """
    return zlib.crc32(key), zlib.crc32(key, _H2_SEED)


class BloomFilter:
    """A classic k-hash bloom filter over bytes keys.

    Hashing uses double CRC32 (fast, deterministic across processes) in
    the usual h1 + i*h2 double-hashing scheme (:func:`key_hashes`).
    """

    def __init__(self, expected_items, bits_per_key=10):
        if expected_items < 0:
            raise LSMError("expected_items must be non-negative")
        self._nbits = max(64, expected_items * bits_per_key)
        self._nhashes = max(1, int(round(bits_per_key * math.log(2))))
        self._bits = bytearray((self._nbits + 7) // 8)
        self._items = 0

    @property
    def nbits(self):
        """Size of the bit array."""
        return self._nbits

    @property
    def nhashes(self):
        """Number of hash functions."""
        return self._nhashes

    @property
    def items(self):
        """Number of keys added."""
        return self._items

    def add(self, key):
        """Insert a key."""
        self.add_many([key])

    def add_many(self, keys):
        """Insert every key of a list in one numpy pass.

        Sets the ``(h1 + i*h2) % nbits`` bits of every key, the positions
        :meth:`probe` tests, taken in ``int64`` (``h1`` and ``h2`` are
        reduced first, so no sum overflows).
        """
        if not keys:
            return
        nbits = self._nbits
        count = len(keys)
        h1 = np.fromiter(map(zlib.crc32, keys), np.int64, count) % nbits
        h2 = np.fromiter(map(zlib.crc32, keys, repeat(_H2_SEED)),
                         np.int64, count)
        h2 = ((h2 << 15) | 1) % nbits
        pos = (h1[:, None] + np.arange(self._nhashes) * h2[:, None]) % nbits
        bitmap = np.zeros(len(self._bits) * 8, dtype=bool)
        bitmap[pos.ravel()] = True
        bits = np.frombuffer(self._bits, dtype=np.uint8)    # a writable view
        bits |= np.packbits(bitmap, bitorder="little")
        self._items += count

    def might_contain(self, key):
        """False means definitely absent; True means possibly present."""
        return self.probe(*key_hashes(key))

    def probe(self, h1, h2):
        """:meth:`might_contain` for a key whose :func:`key_hashes` are
        ``(h1, h2)``: tests bits ``(h1 + i*h2') % nbits`` with
        ``h2' = (h2 << 15) | 1``, in order, stopping at the first clear
        one."""
        nbits = self._nbits
        bits = self._bits
        pos = h1 % nbits
        # Most absent keys miss at the first bit: test it before stepping.
        if not bits[pos >> 3] >> (pos & 7) & 1:
            return False
        step = ((h2 << 15) | 1) % nbits
        for _ in range(self._nhashes - 1):
            pos += step
            if pos >= nbits:
                pos -= nbits
            if not bits[pos >> 3] >> (pos & 7) & 1:
                return False
        return True

    def __contains__(self, key):
        return self.might_contain(key)

    @property
    def size_bytes(self):
        """Serialized size of the filter."""
        return len(self._bits)

    def false_positive_rate(self):
        """Theoretical false-positive probability at the current load."""
        if self._items == 0:
            return 0.0
        exponent = -self._nhashes * self._items / self._nbits
        return (1.0 - math.exp(exponent)) ** self._nhashes
