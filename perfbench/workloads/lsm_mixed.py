"""lsm_mixed: reads beside writes on the KV store, checked against a model."""

import hashlib
import json
import os
import random
from dataclasses import asdict
from itertools import islice
from time import perf_counter_ns
from types import SimpleNamespace

from perfbench.harness import OpTimeout, Verdict, Workload

#: Keys preloaded before the first op (= the key universe).
PRELOAD = 60_000
#: Ops per pass.  The ISSUE's 200 k took 6.8 s a pass on this box; 80 k
#: keeps the mix and still cycles ~90 flushes and ~50 compactions.
OPS = 80_000
SCAN_KEYS = 50
VALUE_BYTES = 100
#: Puts slower than this count as foreground stalls (flush/compaction).
STALL_NS = 1_000_000

GET, PUT, DELETE, SCAN = "get", "put", "delete", "scan"


def _key(index):
    return b"k%08d" % index


def _value(tag, number):
    return (b"%s%09d" % (tag, number)).ljust(VALUE_BYTES, b".")


def _open_database(seed):
    from repro.lsm import KVDatabase
    from repro.lsm.store import LSMConfig
    # Memtables far smaller than the data so flush and compaction cycle
    # dozens of times per pass instead of never.
    config = LSMConfig(memtable_size=64 * 1024,
                       level_base_bytes=256 * 1024,
                       sst_target_bytes=128 * 1024, seed=seed)
    return KVDatabase(default_config=config)


def _preload(state):
    """Fresh database with the key universe loaded and flushed."""
    state.database = _open_database(state.seed)
    state.family = state.database.column_family("default")
    put = state.family.put
    for index in range(state.preload):
        put(_key(index), _value(b"p", index))
    state.database.flush_all()
    state.dirty = False


def _op_stream(seed, preload, count):
    """``[(kind, key, value or None, expected)]`` plus the final model.

    45 % get (uniform), 40 % put (zipf-skewed overwrite), 5 % delete,
    10 % range scan of 50 keys; ``expected`` replays a dict model so
    every get and scan can be checked without touching the timed path.
    """
    rng = random.Random(seed)
    live = [_value(b"p", index) for index in range(preload)]
    stream = []
    for number in range(count):
        draw = rng.random()
        if draw < 0.45:
            index = rng.randrange(preload)
            stream.append((GET, _key(index), None, live[index]))
        elif draw < 0.85:
            index = int(rng.paretovariate(1.2)) % preload
            value = _value(b"w", number)
            live[index] = value
            stream.append((PUT, _key(index), value, None))
        elif draw < 0.90:
            index = rng.randrange(preload)
            live[index] = None
            stream.append((DELETE, _key(index), None, None))
        else:
            index = rng.randrange(preload)
            expected = []
            for candidate in range(index, preload):
                if live[candidate] is not None:
                    expected.append((_key(candidate), live[candidate]))
                    if len(expected) == SCAN_KEYS:
                        break
            stream.append((SCAN, _key(index), None, expected))
    return stream, live


class LsmMixed(Workload):
    name = "lsm_mixed"
    why = ("KVDatabase alone with 64 KiB memtables: gets, zipf-skewed puts, "
           "deletes and range scans while flush and compaction cycle, so a "
           "read-path gain that is paid for on the write path shows")

    def setup(self, seed, quick):
        os.environ.pop("REPRO_WORKLOAD_CACHE", None)
        state = SimpleNamespace(seed=seed,
                                preload=2_000 if quick else PRELOAD)
        _preload(state)
        return state

    def prepare(self, state, seed, quick):
        count = 3_000 if quick else OPS
        state.stream, live = _op_stream(seed, state.preload, count)
        digest = hashlib.sha256()
        for _kind, _key_bytes, _value_bytes, expected in state.stream:
            digest.update(repr(expected).encode("utf-8"))
        state.expected_digest = digest.hexdigest()
        state.user_bytes = (
            state.preload * (len(_key(0)) + VALUE_BYTES)
            + sum(len(key) + len(value or b"")
                  for kind, key, value, _e in state.stream
                  if kind in (PUT, DELETE)))
        state.live_bytes = sum(len(_key(0)) + len(value)
                               for value in live if value is not None)
        return [(f"kv/{number}:{op[0]}", None)
                for number, op in enumerate(state.stream)]

    def begin_pass(self, state, timed_setup):
        # Every pass replays the stream on a fresh store, so op i meets
        # the same memtable, the same levels and the same compaction in
        # every pass and its minimum over passes is meaningful.
        if state.dirty:
            timed_setup(lambda: _preload(state))

    def run_pass(self, state, ops, clock):
        from repro.lsm.store import ReadStats
        family = state.family
        get, put, delete, scan = (family.get, family.put, family.delete,
                                  family.scan)
        starts, times, probes = clock.starts, clock.times, clock.sampler.spent
        stats = ReadStats()
        wrong = []
        timed_out = False
        state.dirty = True
        try:
            with clock.whole_pass("kv/pass"):
                for number, (kind, key, value, expected) in enumerate(
                        state.stream):
                    got = expected
                    interrupted = probes[0]
                    start = perf_counter_ns()
                    if kind == GET:
                        got = get(key, stats)
                    elif kind == PUT:
                        put(key, value)
                    elif kind == DELETE:
                        delete(key)
                    else:
                        got = list(islice(scan(lo=key, stats=stats),
                                          SCAN_KEYS))
                    times[number] = (perf_counter_ns() - start
                                     - (probes[0] - interrupted))
                    starts[number] = start
                    if got != expected:
                        wrong.append(number)
        except OpTimeout:
            timed_out = True
        return SimpleNamespace(wrong=wrong, timed_out=timed_out,
                               read_stats=stats)

    def judge(self, state, ops, outcome):
        verdict = Verdict()
        for number in outcome.wrong:
            verdict.failures[ops[number][0]] = "differs from the dict model"
        if outcome.timed_out:
            verdict.failures["kv/pass"] = "pass timed out"
        tree = state.family.tree
        read_stats = asdict(outcome.read_stats)
        read_stats.pop("cache")
        verdict.rows.append(("kv/reads", state.expected_digest))
        verdict.sims.append(("kv", "no simulated clock"))
        verdict.counts.append(("kv", json.dumps({
            "write": asdict(tree.write_stats),
            "compaction": asdict(tree.compactor.stats),
            "read": read_stats,
            "ssts": tree.levels.sst_count(),
            "bytes": tree.total_bytes(),
        }, sort_keys=True)))
        return verdict

    def layer_facts(self, state, ops, outcomes, best_ns):
        tree = state.family.tree
        written = (tree.write_stats.bytes_flushed
                   + tree.compactor.stats.bytes_written)
        return {
            "lsm.flushes": tree.write_stats.flushes,
            "lsm.compactions": tree.compactor.stats.compactions,
            "lsm.write_amp": written / state.user_bytes,
            "lsm.space_amp": tree.total_bytes() / state.live_bytes,
            "workloads.rows_loaded": state.preload,
        }


LSM_MIXED = LsmMixed()
