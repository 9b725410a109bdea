"""Tests for the bloom filter."""

import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.bloom import BloomFilter


class TestBloom:
    def test_no_false_negatives(self):
        bloom = BloomFilter(expected_items=100)
        keys = [f"key-{i}".encode() for i in range(100)]
        for key in keys:
            bloom.add(key)
        assert all(bloom.might_contain(key) for key in keys)

    def test_mostly_rejects_absent_keys(self):
        bloom = BloomFilter(expected_items=1000, bits_per_key=10)
        for i in range(1000):
            bloom.add(f"present-{i}".encode())
        false_positives = sum(
            bloom.might_contain(f"absent-{i}".encode())
            for i in range(1000))
        # Theoretical FPR at 10 bits/key is ~1%; allow generous slack.
        assert false_positives < 60

    def test_empty_filter_contains_nothing(self):
        bloom = BloomFilter(expected_items=10)
        assert not bloom.might_contain(b"anything")

    def test_contains_operator(self):
        bloom = BloomFilter(expected_items=10)
        bloom.add(b"k")
        assert b"k" in bloom

    def test_false_positive_rate_estimate(self):
        bloom = BloomFilter(expected_items=100, bits_per_key=10)
        assert bloom.false_positive_rate() == 0.0
        for i in range(100):
            bloom.add(str(i).encode())
        assert 0.0 < bloom.false_positive_rate() < 0.05

    def test_size_bytes(self):
        bloom = BloomFilter(expected_items=1000, bits_per_key=8)
        assert bloom.size_bytes == (1000 * 8 + 7) // 8

    @given(st.sets(st.binary(min_size=1, max_size=16), min_size=1,
                   max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_property_no_false_negatives(self, keys):
        bloom = BloomFilter(expected_items=len(keys))
        for key in keys:
            bloom.add(key)
        assert all(key in bloom for key in keys)


def _scalar_bits(bloom, keys):
    """The filter bytes that setting ``(h1 + i*h2) % nbits`` key by key
    gives: the positions ``might_contain`` probes."""
    bits = bytearray(bloom.size_bytes)
    for key in keys:
        h1 = zlib.crc32(key)
        h2 = (zlib.crc32(key, 0x9E3779B9) << 15) | 1
        for i in range(bloom.nhashes):
            pos = (h1 + i * h2) % bloom.nbits
            bits[pos >> 3] |= 1 << (pos & 7)
    return bytes(bits)


class TestAddMany:
    @given(st.lists(st.binary(max_size=16), max_size=300),
           st.integers(min_value=0, max_value=300),
           st.integers(min_value=1, max_value=16), st.data())
    @settings(max_examples=60, deadline=None)
    def test_bytes_match_scalar_positions(self, keys, expected, bits_per_key,
                                          data):
        bloom = BloomFilter(expected, bits_per_key)
        cut = data.draw(st.integers(min_value=0, max_value=len(keys)))
        bloom.add_many(keys[:cut])          # two passes: the second ORs in
        bloom.add_many(keys[cut:])
        assert bytes(bloom._bits) == _scalar_bits(bloom, keys)
        assert bloom.items == len(keys)

    def test_nbits_not_a_multiple_of_eight(self):
        keys = [b"key-%d" % i for i in range(13)]
        bloom = BloomFilter(len(keys), bits_per_key=7)
        assert bloom.nbits == 91 and bloom.size_bytes == 12
        bloom.add_many(keys)
        assert bytes(bloom._bits) == _scalar_bits(bloom, keys)
        assert all(key in bloom for key in keys)
        # The padding bits past ``nbits`` are never set.
        assert bloom._bits[-1] >> (bloom.nbits & 7) == 0
