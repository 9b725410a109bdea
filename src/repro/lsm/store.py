"""The LSM tree: RocksDB-style store built from the pieces in this package.

Provides PUT/DELETE/GET and range/full scans with key- or value-predicates,
automatic flush of full MemTables to C1, leveled compaction, and read-path
statistics that the timing model prices (paper §2.2).
"""

from dataclasses import dataclass, field
from operator import attrgetter, sub

from repro.errors import LSMError
from repro.lsm.compaction import LeveledCompactor
from repro.lsm.iterator import point_lookup, range_scan
from repro.lsm.levels import LevelStructure
from repro.lsm.memtable import TOMBSTONE, MemTable
from repro.lsm.sstable import INDEX_BLOCK, SSTableBuilder


@dataclass
class ReadStats:
    """Physical work done by one read operation (GET or SCAN).

    When ``cache`` is set (a :class:`repro.lsm.cache.BlockCache`), block
    reads served from the cache increment ``cache_hits`` instead of the
    I/O counters — the block-cache model of RocksDB/the page cache.
    """

    memtable_gets: int = 0
    ssts_considered: int = 0
    ssts_skipped_fence: int = 0
    ssts_skipped_bloom: int = 0
    bloom_probes: int = 0
    bloom_negatives: int = 0
    index_blocks_read: int = 0
    data_blocks_read: int = 0
    bytes_read: int = 0
    key_comparisons: int = 0
    entries_scanned: int = 0
    cache_hits: int = 0
    cache: object = field(default=None, compare=False, repr=False)

    def merge(self, other):
        """Accumulate another stats object into this one."""
        for name in self.__dataclass_fields__:
            if name == "cache":
                continue
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self


#: ``ReadStats`` fields one seek charges identically every time while the
#: tree does not change; the others depend on block-cache state.
#: :meth:`Replays.flush` unpacks them in this order.
_static_counts = attrgetter(
    "memtable_gets", "ssts_considered", "ssts_skipped_fence",
    "ssts_skipped_bloom", "bloom_probes", "bloom_negatives",
    "key_comparisons", "entries_scanned")


class ReadTrace:
    """One recorded seek, replayable without walking the tree again.

    A seek of one key does the same key comparisons, bloom probes and
    SST/entry visits and touches the same blocks in the same order for
    as long as the tree is unchanged; only whether a touch hits the
    block cache varies.  The trace keeps the first part as a
    :class:`ReadStats` delta and the second as the ordered
    ``(cache key, nbytes, is index block)`` touches, so :meth:`replay`
    charges — and moves the LRU — exactly as the walk would, through
    whichever cache the replaying ``stats`` carry.  A trace is only
    valid while no write, flush or compaction reaches the tree it was
    recorded on, i.e. while :attr:`LSMTree.version` has not moved: a
    trace kept past its recording call is kept under the versions it
    was recorded at.  A finished trace holds no reference to the stats
    or cache it was recorded with.

    Record by seeking inside the ``with`` block, with the same stats::

        with ReadTrace(stats) as trace:
            value = tree.get(key, stats=stats)     # charged as usual
        trace.replay(stats)                        # charged again

    Reads must finish inside the block (exhaust generators).

    ``fits`` is the byte sum of the trace's distinct blocks: a cache of
    at least that capacity holds all of them at once (see
    :class:`Replays`).
    """

    __slots__ = ("static", "touches", "index_blocks", "data_blocks",
                 "nbytes", "fits", "_stats", "_cache")

    def __init__(self, stats):
        self._stats = stats
        self._cache = stats.cache
        self.touches = []

    def __enter__(self):
        self.static = _static_counts(self._stats)    # until __exit__
        self._stats.cache = self
        return self

    def access(self, key, nbytes):
        """Stand in for the block cache while recording: log, forward."""
        self.touches.append((key, nbytes, key[0] == INDEX_BLOCK))
        return self._cache is not None and self._cache.access(key, nbytes)

    def __exit__(self, *exc_info):
        stats = self._stats
        stats.cache = self._cache
        self.static = tuple(map(sub, _static_counts(stats), self.static))
        touches = self.touches
        self.index_blocks = sum(touch[2] for touch in touches)
        self.data_blocks = len(touches) - self.index_blocks
        self.nbytes = sum(touch[1] for touch in touches)
        self.fits = sum({touch[0]: touch[1] for touch in touches}.values())
        # A memoised trace outlives its recording call; it must not pin
        # that executor's block cache.
        self._stats = self._cache = None

    def replay(self, stats, times=1):
        """Charge ``stats`` (and its block cache) as ``times`` seeks would."""
        replays = Replays(stats)
        replays.add(self, times)
        replays.flush()


class Replays:
    """Runs of back-to-back trace replays, charged to one ``stats``.

    :meth:`add` queues ``times`` consecutive replays of a trace,
    :meth:`extend` a sequence of such runs, and :meth:`flush` charges
    everything queued.  Queued runs reach the block cache in queue
    order, so nothing else may touch ``stats`` or its cache between an
    ``add`` and the next ``flush``.  (The pipeline records its walks
    against scratch stats and queues each walked seek as a replay too.)
    Charges and LRU order are exactly those of replaying every seek, by
    three rules:

    - A trace's cache-independent ``ReadStats`` delta is charged once
      per flush, multiplied by the replays queued since the last one.
      With no cache, or one of capacity zero, every touch is a miss and
      is multiplied likewise.
    - *Rule 1, a trace that fits* (``trace.fits <= capacity``).  One
      replay leaves every block of the trace resident, at the MRU end
      in the trace's own last-touch order: LRU evicts everything older
      first, and the trace's blocks alone never overflow the cache.  The
      run's other replays therefore hit everywhere and move nothing.
      Only the first replay's touches go through the cache — those of
      consecutive runs through one :meth:`BlockCache.access_all` — and
      the repeats are counted hits.
    - *Rule 2, a trace larger than the cache*.  What a replay does
      depends on the cache's LRU state alone, so one that ends in the
      state the previous one ended in repeats itself, delta and all.
      The run is replayed until that happens and multiplied from there.
      Comparing states is cheap when it matters: a block that fits only
      misses on an immediate repeat if it was evicted since its last
      touch, and LRU evicts everything older first — every block this
      trace does not touch — so by then the cache holds nothing but
      this trace's blocks.
    """

    __slots__ = ("stats", "_cache", "_times", "_touches", "_hits")

    def __init__(self, stats):
        self.stats = stats
        cache = stats.cache
        #: The cache replays go through; ``None`` when nothing is ever
        #: resident and every touch is a miss.
        self._cache = (cache if cache is not None and cache.capacity_bytes > 0
                       else None)
        self._times = {}        # trace -> replays queued since the flush
        self._touches = []      # first replays of fitting runs, in order
        self._hits = 0          # touches of their repeats, all hits

    def add(self, trace, times=1):
        """Queue ``times`` consecutive replays of ``trace``."""
        self.extend((trace,), (times,))

    def extend(self, traces, counts):
        """Queue runs in order, as :meth:`add` of each ``traces[i]``,
        ``counts[i]`` pair would; a ``None`` trace queues nothing."""
        queued = self._times
        cache = self._cache
        capacity = -1 if cache is None else cache.capacity_bytes
        touches = self._touches
        hits = 0
        for trace, times in zip(traces, counts):
            if trace is None or times <= 0:
                continue
            queued[trace] = queued.get(trace, 0) + times
            if cache is None:
                continue
            if trace.fits <= capacity:
                touches += trace.touches
                hits += (times - 1) * len(trace.touches)
            else:
                self._hits += hits
                hits = 0
                self._access()
                touches = self._touches
                self._thrash(trace, times)
        self._hits += hits

    def flush(self):
        """Charge every queued replay to ``stats`` and its cache."""
        self._access()
        stats = self.stats
        cold = self._cache is None
        for trace, times in self._times.items():
            (memtable_gets, ssts_considered, ssts_skipped_fence,
             ssts_skipped_bloom, bloom_probes, bloom_negatives,
             key_comparisons, entries_scanned) = trace.static
            stats.memtable_gets += memtable_gets * times
            stats.ssts_considered += ssts_considered * times
            stats.ssts_skipped_fence += ssts_skipped_fence * times
            stats.ssts_skipped_bloom += ssts_skipped_bloom * times
            stats.bloom_probes += bloom_probes * times
            stats.bloom_negatives += bloom_negatives * times
            stats.key_comparisons += key_comparisons * times
            stats.entries_scanned += entries_scanned * times
            if cold:
                stats.index_blocks_read += trace.index_blocks * times
                stats.data_blocks_read += trace.data_blocks * times
                stats.bytes_read += trace.nbytes * times
                if stats.cache is not None:
                    stats.cache.misses += len(trace.touches) * times
        self._times = {}

    def _access(self):
        """Send the pending first replays through the cache (rule 1)."""
        touches = self._touches
        if not touches:
            return
        stats = self.stats
        missed = self._cache.access_all(touches)
        self._cache.hits += self._hits
        stats.cache_hits += len(touches) - len(missed) + self._hits
        _charge_misses(stats, missed, 1)
        self._touches = []
        self._hits = 0

    def _thrash(self, trace, times):
        """Replay a trace larger than the cache ``times`` times (rule 2)."""
        stats = self.stats
        cache = self._cache
        touches = trace.touches
        state = None
        while times > 0:
            missed = cache.access_all(touches)
            hits = len(touches) - len(missed)
            charged = 1
            if times > 1:
                before = state
                # A block larger than the cache misses however much else
                # is resident: never compare a large cache.
                state = (cache.lru_state()
                         if len(cache) <= len(touches) else None)
                if state is not None and state == before:
                    charged = times
                    cache.hits += hits * (times - 1)
                    cache.misses += len(missed) * (times - 1)
            times -= charged
            stats.cache_hits += hits * charged
            _charge_misses(stats, missed, charged)


def _charge_misses(stats, missed, times):
    """Charge ``times`` reads of every missed ``(key, nbytes, is index)``."""
    for _key, nbytes, is_index in missed:
        if is_index:
            stats.index_blocks_read += times
        else:
            stats.data_blocks_read += times
        stats.bytes_read += nbytes * times


@dataclass
class _WriteStats:
    puts: int = 0
    deletes: int = 0
    flushes: int = 0
    bytes_flushed: int = 0


@dataclass
class LSMConfig:
    """Tuning knobs for one LSM tree.

    ``seed`` is inert: it seeded the skiplist MemTables the dict-backed
    ones replaced, and is kept only because callers still pass it.
    """

    memtable_size: int = 4 * 1024 * 1024
    block_size: int = 4096
    max_levels: int = 7
    level_base_bytes: int = 8 * 1024 * 1024
    size_ratio: int = 10
    sst_target_bytes: int = 2 * 1024 * 1024
    bits_per_key: int = 10
    auto_compact: bool = True
    compaction: str = "leveled"     # 'leveled' | 'tiered' (paper §2.2)
    tiered_fanout: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.compaction not in ("leveled", "tiered"):
            raise LSMError(
                f"unknown compaction strategy {self.compaction!r}")


class LSMTree:
    """A single-column-family LSM tree."""

    def __init__(self, name="default", config=None, flash=None):
        self.name = name
        self.config = config or LSMConfig()
        self.flash = flash
        self._active = MemTable(self.config.memtable_size)
        tiered = self.config.compaction == "tiered"
        self.levels = LevelStructure(self.config.max_levels, tiered=tiered)
        if tiered:
            from repro.lsm.tiered import TieredCompactor
            self.compactor = TieredCompactor(
                self.levels,
                flash=flash,
                fanout=self.config.tiered_fanout,
                block_size=self.config.block_size,
            )
        else:
            self.compactor = LeveledCompactor(
                self.levels,
                flash=flash,
                level_base_bytes=self.config.level_base_bytes,
                size_ratio=self.config.size_ratio,
                sst_target_bytes=self.config.sst_target_bytes,
                block_size=self.config.block_size,
            )
        self._next_sst_id = 1
        self.write_stats = _WriteStats()
        #: Monotone version stamp of what a read sees and is charged: it
        #: moves on every put, delete, write batch, flush and compaction.
        #: Two reads at one version walk the same components, so a
        #: :class:`ReadTrace` recorded at a version stays valid for it.
        #: Unlike ``RelationalTable.mutation_count`` (logical row writes,
        #: the plan cache's key) it also moves when a flush or compaction
        #: reshapes the tree without changing a row.
        self.version = 0
        #: The last :class:`~repro.lsm.snapshot.FamilySnapshot` captured
        #: of this tree; :meth:`FamilySnapshot.capture` hands it out again
        #: while its ``version`` equals :attr:`version`.
        self.last_capture = None

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def put(self, key, value):
        """Insert or overwrite ``key`` with ``value`` (both bytes)."""
        self._active.put(key, value)
        self.write_stats.puts += 1
        self.version += 1
        self._maybe_rotate()

    def delete(self, key):
        """Delete ``key`` by writing a tombstone."""
        self._active.delete(key)
        self.write_stats.deletes += 1
        self.version += 1
        self._maybe_rotate()

    def apply_batch(self, batch):
        """Apply a :class:`WriteBatch` atomically.

        All operations land in the active MemTable before any rotation
        is considered, so a flush can never split the batch across
        components (RocksDB's WriteBatch guarantee).
        """
        for op, key, value in batch.operations:
            if op == "put":
                self._active.put(key, value)
                self.write_stats.puts += 1
            else:
                self._active.delete(key)
                self.write_stats.deletes += 1
        self.version += 1
        self._maybe_rotate()

    def _maybe_rotate(self):
        if self._active.is_full():
            self._active.freeze()
            self.flush()

    def flush(self):
        """Flush a frozen active MemTable to C1 (no merge, paper §2.2).

        A MemTable is frozen only right before this runs, so it is
        written as one SST and replaced by a fresh one before any read
        can see it.  Compaction only ever runs here, so one
        :attr:`version` bump covers both whenever either changed the
        tree.
        """
        changed = False
        memtable = self._active
        if memtable.immutable:
            self._active = MemTable(self.config.memtable_size)
            builder = SSTableBuilder.from_sorted(
                memtable.entries(), block_size=self.config.block_size,
                bits_per_key=self.config.bits_per_key)
            sst = builder.finish(flash=self.flash, sst_id=self._next_sst_id,
                                 level=1)
            self._next_sst_id += 1
            self.levels.add_to_level(1, sst)
            self.write_stats.flushes += 1
            self.write_stats.bytes_flushed += sst.nbytes
            changed = True
        if self.config.auto_compact and self.compactor.maybe_compact():
            changed = True
        if changed:
            self.version += 1

    def freeze_and_flush(self):
        """Force the active MemTable out to C1 (e.g. after bulk load)."""
        if len(self._active):
            self._active.freeze()
        self.flush()

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    @property
    def memtable(self):
        """The active MemTable (C0) — shipped as NDP shared state."""
        return self._active

    def get(self, key, stats=None):
        """Point lookup following the C0 -> C1 -> Ck search order."""
        return point_lookup(self._active, self.levels.lookup_plan(), key,
                            stats if stats is not None else ReadStats(),
                            True)

    def scan(self, lo=None, hi=None, value_predicate=None, stats=None):
        """Range scan over [lo, hi) merging all components, as of its
        first ``next()`` (see :func:`repro.lsm.iterator.range_scan`)."""
        return range_scan(self._read_inputs, lo, hi, value_predicate,
                          stats if stats is not None else ReadStats())

    def _read_inputs(self):
        return self._active, self.levels.lookup_plan()

    def full_scan(self, value_predicate=None, stats=None):
        """Scan the whole key space."""
        return self.scan(None, None, value_predicate=value_predicate,
                         stats=stats)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def total_bytes(self):
        """Bytes held across all on-flash components."""
        return self.levels.total_bytes()

    def placements(self):
        """Physical placement of every SST (for the NDP command payload)."""
        result = []
        for sst in self.levels.all_ssts():
            entry = {
                "sst_id": sst.sst_id,
                "level": sst.level,
                "min_key": sst.min_key,
                "max_key": sst.max_key,
                "nbytes": sst.nbytes,
            }
            if sst.extent is not None and self.flash is not None:
                entry["extent"] = self.flash.placement_of(sst.extent)
            result.append(entry)
        return result

    def read_amplification(self, key):
        """Number of components a GET for ``key`` may need to touch."""
        return 1 + len(self.levels.candidates_for_key(key))

    def __repr__(self):
        return (f"LSMTree({self.name!r}, memtable={len(self._active)}, "
                f"ssts={self.levels.sst_count()})")


class WriteBatch:
    """An ordered set of writes applied atomically to one LSM tree.

    >>> batch = WriteBatch()
    >>> batch.put(b"k1", b"v1").delete(b"k2")     # doctest: +ELLIPSIS
    <repro.lsm.store.WriteBatch object at ...>
    """

    def __init__(self):
        self.operations = []

    def put(self, key, value):
        """Queue a put; returns self for chaining."""
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise LSMError("batch entries must be bytes")
        self.operations.append(("put", key, value))
        return self

    def delete(self, key):
        """Queue a delete; returns self for chaining."""
        if not isinstance(key, bytes):
            raise LSMError("batch keys must be bytes")
        self.operations.append(("delete", key, None))
        return self

    def __len__(self):
        return len(self.operations)

    def clear(self):
        """Drop all queued operations."""
        self.operations.clear()


def require_bytes(key):
    """Validate a user-supplied key."""
    if not isinstance(key, bytes):
        raise LSMError(f"keys must be bytes, got {type(key)}")
    return key


__all__ = ["LSMTree", "LSMConfig", "ReadStats", "ReadTrace", "Replays",
           "TOMBSTONE", "require_bytes"]
