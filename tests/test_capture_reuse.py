"""A family's capture is a function of its tree and ``LSMTree.version``.

The first capture at a version builds the :class:`FamilySnapshot`; every
later capture at that version returns the same object; a put, delete,
write batch, flush or compaction moves the version, so the next capture
rebuilds.  Checked over random write sequences on a tree whose
memtables are small enough that flushes and compactions run: a reused
capture equals, field by field, one built from the tree directly; both
of its views answer every get and scan as the live tree does, and the
bloom view charges the same ``ReadStats`` too (one read path); and
every earlier capture keeps reading and charging exactly what it did
when taken.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.column_family import KVDatabase
from repro.lsm.snapshot import FamilySnapshot, SharedState, SnapshotView
from repro.lsm.store import LSMTree, ReadStats, WriteBatch
from repro.storage.flash import FlashDevice

from tests.conftest import small_lsm_config

_KEYS = [b"k%03d" % i for i in range(32)]

_key = st.sampled_from(_KEYS)
_value = st.binary(min_size=32, max_size=256)
_step = st.one_of(
    st.tuples(st.just("put"), _key, _value),
    st.tuples(st.just("delete"), _key),
    st.tuples(st.just("batch"),
              st.lists(st.tuples(st.booleans(), _key, _value), max_size=16)),
    st.just(("flush",)),
    st.just(("freeze_and_flush",)),
)


#: 512 B memtables over a 1 KiB C1: a few puts flush, a few flushes
#: compact.
_CONFIG = small_lsm_config(memtable_size=512, level_base_bytes=1024,
                           sst_target_bytes=512, block_size=256)


def _tree():
    return LSMTree("cf", flash=FlashDevice(), config=_CONFIG)


def _apply(tree, step):
    op = step[0]
    if op == "put":
        tree.put(step[1], step[2])
    elif op == "delete":
        tree.delete(step[1])
    elif op == "batch":
        batch = WriteBatch()
        for is_put, key, value in step[1]:
            if is_put:
                batch.put(key, value)
            else:
                batch.delete(key)
        tree.apply_batch(batch)
    else:
        getattr(tree, op)()


def _fields(snapshot):
    return (snapshot.memtable_entries, snapshot.placements,
            snapshot.total_bytes,
            tuple(sst.sst_id for sst in snapshot.lookup_plan.ssts))


def _built_from(tree):
    """The capture's fields read off the tree, with no memo involved."""
    return (tuple(tree.memtable.items()),
            tuple(tuple(sorted(placement.items()))
                  for placement in tree.placements()),
            tree.total_bytes(),
            tuple(sst.sst_id for sst in tree.levels.all_ssts()))


def _each_read(source):
    """``(answer, ReadStats charged)`` of every read a step checks on
    ``source`` (a tree or a view): scans full, bounded and half-open,
    and a get of every key."""
    reads = [lambda stats, lo=lo, hi=hi: list(source.scan(lo, hi,
                                                          stats=stats))
             for lo, hi in ((None, None), (_KEYS[8], _KEYS[24]),
                            (_KEYS[20], None), (None, _KEYS[4]))]
    reads += [lambda stats, key=key: source.get(key, stats)
              for key in _KEYS]
    charged = []
    for read in reads:
        stats = ReadStats()
        charged.append((read(stats), stats))
    return charged


def _reads(snapshot):
    """What a capture's device view (no blooms) answers, and what its
    host view (blooms) answers and charges."""
    device = _each_read(SnapshotView(snapshot))
    host = _each_read(SnapshotView(snapshot, use_bloom_filters=True))
    return [answer for answer, _stats in device], host


def _live_reads(tree):
    live = _each_read(tree)
    return [answer for answer, _stats in live], live


@given(st.lists(_step, min_size=20, max_size=60))
@settings(max_examples=30, deadline=None)
def test_capture_is_a_function_of_the_tree_version(steps):
    tree = _tree()
    taken = []          # (capture, what it read when taken)
    previous = FamilySnapshot.capture("cf", tree)
    for step in steps:
        version = tree.version
        _apply(tree, step)
        capture = FamilySnapshot.capture("cf", tree)
        if tree.version == version:
            assert capture is previous, step
        else:
            assert capture is not previous, step
        assert FamilySnapshot.capture("cf", tree) is capture
        assert capture.version == tree.version
        assert _fields(capture) == _built_from(tree), step
        reads = _reads(capture)
        assert reads == _live_reads(tree), step
        taken.append((capture, reads))
        for earlier, read_then in taken:
            assert _reads(earlier) == read_then, step
        previous = capture


def test_shared_state_reuses_captures_across_flushes_and_compactions():
    """Through the database's capture path the family's snapshot is
    rebuilt once per version, and one kept from before a flush or
    compaction still reads its own state."""
    database = KVDatabase(flash=FlashDevice(), default_config=_CONFIG)
    tree = database.create_column_family("cf").tree
    kept = []
    i = 0
    while tree.compactor.stats.compactions < 3:
        tree.put(_KEYS[i % len(_KEYS)], b"v%d" % i * 20)
        i += 1
        capture, = SharedState.capture(database, ["cf"]).families
        again, = SharedState.capture(database, ["cf"]).families
        assert again is capture and capture.version == tree.version
        kept.append((capture, _reads(capture)))
    assert tree.write_stats.flushes > tree.compactor.stats.compactions
    assert len({id(capture) for capture, _ in kept}) == len(kept)
    for capture, read_then in kept:
        assert _reads(capture) == read_then
