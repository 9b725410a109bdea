"""Tests for size-tiered compaction and the strategy trade-off."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LSMError
from repro.lsm.levels import LevelStructure
from repro.lsm.store import LSMConfig, LSMTree
from repro.lsm.tiered import TieredCompactor
from repro.storage.flash import FlashDevice

from tests.conftest import small_lsm_config


def tiered_tree(**overrides):
    config = small_lsm_config(compaction="tiered", tiered_fanout=3,
                              **overrides)
    return LSMTree(config=config, flash=FlashDevice())


def leveled_tree(**overrides):
    return LSMTree(config=small_lsm_config(**overrides),
                   flash=FlashDevice())


class TestConfig:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(LSMError):
            LSMConfig(compaction="cosmic")

    def test_compactor_needs_tiered_structure(self):
        with pytest.raises(ValueError):
            TieredCompactor(LevelStructure(tiered=False))


class TestTieredCompaction:
    def _load(self, tree, n=1200, keyspace=400, seed=1):
        rng = random.Random(seed)
        model = {}
        for i in range(n):
            key = f"key-{rng.randrange(keyspace):05d}".encode()
            value = f"v{i}".encode().ljust(30, b".")
            tree.put(key, value)
            model[key] = value
        tree.freeze_and_flush()
        return model

    def test_fanout_bounds_runs_per_tier(self):
        tree = tiered_tree(memtable_size=512)
        self._load(tree)
        for n in range(1, tree.levels.max_levels):
            assert len(tree.levels.level(n)) < tree.compactor.fanout

    def test_reads_correct_after_compaction(self):
        tree = tiered_tree(memtable_size=512)
        model = self._load(tree)
        assert dict(tree.scan()) == model
        for key in list(model)[:40]:
            assert tree.get(key) == model[key]

    def test_deletes_respected(self):
        tree = tiered_tree(memtable_size=512)
        model = self._load(tree)
        victims = list(model)[:50]
        for key in victims:
            tree.delete(key)
            del model[key]
        tree.freeze_and_flush()
        assert dict(tree.scan()) == model

    def test_overlapping_runs_allowed_in_deep_tiers(self):
        tree = tiered_tree(memtable_size=512)
        self._load(tree)
        # The invariant check must tolerate overlap in tiered mode.
        assert tree.levels.check_invariants() is True

    def test_write_amplification_lower_than_leveled(self):
        """The classic trade-off: tiered writes less ...."""
        tiered = tiered_tree(memtable_size=512)
        leveled = leveled_tree(memtable_size=512, level_base_bytes=1024,
                               sst_target_bytes=1024)
        for tree in (tiered, leveled):
            rng = random.Random(2)
            for i in range(3000):
                key = f"key-{rng.randrange(300):05d}".encode()
                tree.put(key, b"x" * 30)
            tree.freeze_and_flush()
        assert (tiered.compactor.stats.bytes_written
                <= leveled.compactor.stats.bytes_written)

    def test_read_amplification_higher_than_leveled(self):
        """... but reads must consult more runs."""
        tiered = tiered_tree(memtable_size=512)
        leveled = leveled_tree(memtable_size=512, level_base_bytes=1024,
                               sst_target_bytes=1024)
        for tree in (tiered, leveled):
            rng = random.Random(2)
            for i in range(3000):
                key = f"key-{rng.randrange(300):05d}".encode()
                tree.put(key, b"x" * 30)
            tree.freeze_and_flush()
        key = b"key-00007"
        assert (tiered.read_amplification(key)
                >= leveled.read_amplification(key))

    @given(st.lists(
        st.tuples(st.sampled_from(["put", "delete"]),
                  st.integers(min_value=0, max_value=40),
                  st.binary(min_size=1, max_size=8)),
        max_size=250))
    @settings(max_examples=20, deadline=None)
    def test_property_matches_dict_model(self, ops):
        tree = tiered_tree(memtable_size=256)
        model = {}
        for op, key_n, value in ops:
            key = f"k{key_n:03d}".encode()
            if op == "put":
                tree.put(key, value)
                model[key] = value
            else:
                tree.delete(key)
                model.pop(key, None)
        tree.freeze_and_flush()
        assert dict(tree.scan()) == model
