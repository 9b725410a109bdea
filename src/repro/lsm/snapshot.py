"""Shared state for intervention-free NDP execution.

nKV sends, alongside every NDP invocation, (a) the unflushed MemTable
contents of each involved column family and (b) the physical placement of
every involved SST, so the device can construct a transactionally
consistent snapshot of the database without further host interaction
(paper §2.1, "Shared State" / update-aware NDP).

:class:`SnapshotView` is the device-side read structure built from one
family's shared state: it reads the shipped MemTable entries and the
referenced SSTs through the live tree's own read path
(:mod:`repro.lsm.iterator`), but is pinned — host writes after capture
are invisible, which is what makes the NDP execution transactionally
consistent.

A family's capture is a function of its tree and the tree's
:attr:`~repro.lsm.store.LSMTree.version`: the first capture at a version
builds the immutable :class:`FamilySnapshot`, every later capture at
that version returns the same object, and a put, delete, write batch,
flush or compaction moves the version so the next capture rebuilds.  A
snapshot taken before a write keeps the state it pinned.
"""

from dataclasses import dataclass, field
from functools import cached_property

from repro.lsm.iterator import point_lookup, range_scan
from repro.lsm.memtable import MemTable
from repro.lsm.store import ReadStats


@dataclass(frozen=True)
class FamilySnapshot:
    """Snapshot of a single column family."""

    name: str
    memtable_entries: tuple          # ((key, value_or_tombstone), ...) by key
    placements: tuple                # physical placement dicts
    total_bytes: int
    # The tree's LSMTree.version at capture: two snapshots of one family
    # with equal versions read and charge alike (not on the wire).
    version: int = field(repr=False, compare=False)
    # The tree's LookupPlan at capture: device-side handles to the
    # referenced SSTs (the simulation's address-mapping resolution; not
    # part of the wire payload).
    lookup_plan: object = field(repr=False, compare=False)

    @classmethod
    def capture(cls, name, tree):
        """The snapshot of ``tree`` (family ``name``) at its current
        version: built at the first capture at that version, the same
        object after (the tree keeps it as ``last_capture``)."""
        held = tree.last_capture
        if held is not None and held.version == tree.version:
            return held
        held = tree.last_capture = cls(
            name=name,
            memtable_entries=tuple(tree.memtable.items()),
            placements=tuple(tuple(sorted(placement.items()))
                             for placement in tree.placements()),
            total_bytes=tree.total_bytes(),
            version=tree.version,
            lookup_plan=tree.levels.lookup_plan(),
        )
        return held

    @cached_property
    def memtable(self):
        """``memtable_entries`` as a frozen :class:`MemTable`, for reads."""
        return MemTable.pinned(self.memtable_entries)

    @property
    def memtable_count(self):
        """Unflushed entries shipped with the command."""
        return len(self.memtable_entries)

    @property
    def sst_count(self):
        """Number of SSTs the device may touch."""
        return len(self.placements)


class SnapshotView:
    """Pinned read view over one family's shared state.

    Mirrors the :class:`~repro.lsm.store.LSMTree` read API (get/scan with
    a ``stats`` parameter) and runs the same read path over the
    capture's MemTable and lookup plan, so a read charges what the live
    tree charged at the captured version.  By default bloom filters are
    NOT probed — the paper notes the NDP engine skips them since the
    host already did (§2.2) — while ``use_bloom_filters=True`` probes
    them as the live tree does (the host fragment of a split reads its
    capture this way).
    """

    def __init__(self, snapshot, use_bloom_filters=False):
        self._snapshot = snapshot
        self._memtable = snapshot.memtable
        self._plan = snapshot.lookup_plan
        self.use_bloom_filters = use_bloom_filters

    @property
    def name(self):
        """Column family name."""
        return self._snapshot.name

    def get(self, key, stats=None):
        """Point lookup following memtable -> SST precedence."""
        return point_lookup(self._memtable, self._plan, key,
                            stats if stats is not None else ReadStats(),
                            self.use_bloom_filters)

    def scan(self, lo=None, hi=None, value_predicate=None, stats=None):
        """Range scan over the pinned components."""
        return range_scan(self._read_inputs, lo, hi, value_predicate,
                          stats if stats is not None else ReadStats())

    def _read_inputs(self):
        return self._memtable, self._plan


@dataclass(frozen=True)
class SharedState:
    """Everything an NDP command carries about database state."""

    families: tuple = field(default_factory=tuple)

    @classmethod
    def capture(cls, database, family_names):
        """Capture a consistent snapshot of the named column families."""
        return cls(families=tuple(
            FamilySnapshot.capture(name, database.column_family(name).tree)
            for name in family_names))

    def subset(self, family_names):
        """The state of the named families, in that order (a name may
        repeat): what a command over part of one capture ships."""
        return SharedState(families=tuple(
            self.family(name) for name in family_names))

    def view(self, name, use_bloom_filters=False):
        """Device-side :class:`SnapshotView` of one family."""
        return SnapshotView(self.family(name),
                            use_bloom_filters=use_bloom_filters)

    def family(self, name):
        """Snapshot of one family; raises KeyError when absent."""
        for snapshot in self.families:
            if snapshot.name == name:
                return snapshot
        raise KeyError(name)

    @property
    def payload_bytes(self):
        """Approximate command payload size (memtable entries + placement)."""
        total = 0
        for snapshot in self.families:
            for key, value in snapshot.memtable_entries:
                total += len(key) + (len(value) if value else 0)
            total += 64 * len(snapshot.placements)
        return total

    def __len__(self):
        return len(self.families)
