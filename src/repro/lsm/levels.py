"""Level structure of a multi-level LSM tree.

Level 1 receives freshly flushed MemTables without merging, so its SSTs
may have overlapping key ranges; levels 2..K are produced by compaction
and are non-overlapping and sorted (paper §2.2, Fig. 4).
"""

import bisect

from repro.errors import LSMError


class LookupPlan:
    """What a read needs of the levels, frozen at one shape of the tree.

    ``ssts`` is every SST in read precedence: C1 newest first, then each
    deeper level (a tiered level newest first, a leveled one by key).
    ``levels`` holds, per non-empty level, ``(overlapping, ssts, min
    keys, max keys)``: :meth:`candidates` and a range scan
    (:func:`repro.lsm.iterator.range_scan`) fence every SST of an
    overlapping level and bisect a sorted one, whose fences ascend.  A
    plan copies the level lists it is built from, so a plan pinned by a
    capture still reads the SSTs it saw after the tree has flushed or
    compacted.
    """

    __slots__ = ("ssts", "levels")

    def __init__(self, buckets, tiered):
        ssts = []
        levels = []
        for i, bucket in enumerate(buckets):
            if not bucket:
                continue
            if i == 0 or tiered:
                # Overlapping runs: newest (appended last) first.
                run = tuple(reversed(bucket))
                levels.append((True, run, None, None))
            else:
                run = tuple(bucket)
                levels.append((False, run, [sst.min_key for sst in run],
                               [sst.max_key for sst in run]))
            ssts.extend(run)
        self.ssts = tuple(ssts)
        self.levels = tuple(levels)

    def candidates(self, key):
        """SSTs whose fences admit ``key``, in read-precedence order."""
        result = []
        for overlapping, ssts, min_keys, _max_keys in self.levels:
            if overlapping:
                for sst in ssts:
                    if sst.min_key <= key <= sst.max_key:
                        result.append(sst)
            else:
                pos = bisect.bisect_right(min_keys, key) - 1
                if pos >= 0 and ssts[pos].max_key >= key:
                    result.append(ssts[pos])
        return result


class LevelStructure:
    """Holds the SSTs of levels 1..K for one LSM tree."""

    def __init__(self, max_levels=7, tiered=False):
        """``tiered=True`` allows overlapping runs on every level (the
        size-tiered strategy keeps multiple sorted runs per tier)."""
        if max_levels < 2:
            raise LSMError("need at least 2 levels")
        self.max_levels = max_levels
        self.tiered = tiered
        # _levels[0] is C1 (overlapping); _levels[i] is C(i+1).
        self._levels = [[] for _ in range(max_levels)]
        # The LookupPlan of the current shape; rebuilt at the first read
        # after a mutation.
        self._plan = None

    # ------------------------------------------------------------------
    # Structure access
    # ------------------------------------------------------------------
    def level(self, n):
        """SSTs of level ``n`` (1-based, matching the paper's C1..CK)."""
        if not 1 <= n <= self.max_levels:
            raise LSMError(f"level {n} out of range 1..{self.max_levels}")
        return list(self._levels[n - 1])

    @property
    def levels(self):
        """All non-empty levels as (level_number, [ssts]) pairs."""
        return [(i + 1, list(ssts))
                for i, ssts in enumerate(self._levels) if ssts]

    def all_ssts(self):
        """Every SST, newest level first, suitable for read precedence."""
        return self.lookup_plan().ssts

    def lookup_plan(self):
        """The :class:`LookupPlan` of the levels as they are now."""
        plan = self._plan
        if plan is None:
            plan = self._plan = LookupPlan(self._levels, self.tiered)
        return plan

    def sst_count(self):
        """Total number of SSTs."""
        return sum(len(level) for level in self._levels)

    def level_bytes(self, n):
        """Total bytes stored in level ``n``."""
        return sum(sst.nbytes for sst in self._levels[n - 1])

    def total_bytes(self):
        """Total bytes across all levels."""
        return sum(self.level_bytes(n) for n in range(1, self.max_levels + 1))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_to_level(self, n, sst):
        """Install an SST into level ``n``, keeping sorted order for n>=2
        under the leveled strategy; tiered levels simply stack runs."""
        if not 1 <= n <= self.max_levels:
            raise LSMError(f"level {n} out of range")
        sst.level = n
        bucket = self._levels[n - 1]
        if n == 1 or self.tiered:
            bucket.append(sst)
            self._plan = None
            return
        keys = [existing.min_key for existing in bucket]
        pos = bisect.bisect_left(keys, sst.min_key)
        if pos > 0 and bucket[pos - 1].max_key >= sst.min_key:
            raise LSMError(
                f"SST overlaps predecessor in non-overlapping level {n}")
        if pos < len(bucket) and bucket[pos].min_key <= sst.max_key:
            raise LSMError(
                f"SST overlaps successor in non-overlapping level {n}")
        bucket.insert(pos, sst)
        self._plan = None

    def remove(self, sst):
        """Remove an SST wherever it lives."""
        for bucket in self._levels:
            if sst in bucket:
                bucket.remove(sst)
                self._plan = None
                return
        raise LSMError(f"SST {sst.sst_id} not present in any level")

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def overlapping(self, n, lo, hi):
        """SSTs of level ``n`` whose fences overlap [lo, hi]."""
        return [sst for sst in self._levels[n - 1] if sst.overlaps(lo, hi)]

    def candidates_for_key(self, key):
        """SSTs possibly containing ``key``, in read-precedence order."""
        return self.lookup_plan().candidates(key)

    def check_invariants(self):
        """Validate non-overlap in levels >= 2; raises on violation.

        Tiered structures allow overlap everywhere, so the check passes
        trivially for them.
        """
        if self.tiered:
            return True
        for i, bucket in enumerate(self._levels[1:], start=2):
            for a, b in zip(bucket, bucket[1:]):
                if a.max_key >= b.min_key:
                    raise LSMError(
                        f"level {i} overlap: {a.sst_id} and {b.sst_id}")
                if a.min_key > b.min_key:
                    raise LSMError(f"level {i} not sorted")
        return True
