"""nKV-style LSM key-value substrate (RocksDB/MyRocks model, paper §2).

A multi-level LSM tree per column family: a dict-backed MemTable (C0),
Sorted String Tables with sorted data blocks, a sparse index block, bloom
filters and min/max fence pointers; an overlapping C1 and non-overlapping
C2..Ck maintained by leveled compaction; merging iterators for GET/SCAN
with key- and value-predicates; and shared-state snapshots so NDP
executions are transactionally consistent without host interaction.
"""

from repro.lsm.memtable import MemTable
from repro.lsm.bloom import BloomFilter
from repro.lsm.sstable import SSTable, SSTableBuilder
from repro.lsm.levels import LevelStructure
from repro.lsm.store import LSMTree, ReadStats, ReadTrace, WriteBatch
from repro.lsm.column_family import ColumnFamily, KVDatabase
from repro.lsm.snapshot import SharedState

TOMBSTONE = b"\x00__repro_tombstone__\x00"

__all__ = [
    "MemTable",
    "BloomFilter",
    "SSTable",
    "SSTableBuilder",
    "LevelStructure",
    "LSMTree",
    "ReadStats",
    "ReadTrace",
    "WriteBatch",
    "ColumnFamily",
    "KVDatabase",
    "SharedState",
    "TOMBSTONE",
]
