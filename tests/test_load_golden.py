"""Load golden: bulk loading builds byte-identical LSM trees and statistics.

The committed fixture records, for the session environment (scale
0.0004, seed 7) built with and without secondary indexes, everything a
bulk load decides: per column family its version, write and compaction
stats and every SST (id, level, size, entry count, bloom-filter bytes,
data-block layout and flash placement); per table its row count, column
summaries and a digest of the statistics sample and sampler state.  A
faster write path must reproduce it exactly.  If an intentional change
to the data generator, the LSM layout or the statistics alters it,
regenerate the fixture:

    PYTHONPATH=src:tests python -c "
    from test_load_golden import GOLDEN, golden_text, load_digests
    GOLDEN.write_text(golden_text(load_digests()))"

and explain the layout change in the commit message.
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from repro.workloads.loader import build_environment

GOLDEN = Path(__file__).parent / "golden" / "load_v1.json"


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _sst_digest(tree, sst):
    return {
        "id": sst.sst_id,
        "level": sst.level,
        "nbytes": sst.nbytes,
        "entry_count": sst.entry_count,
        "bloom_sha256": _sha(bytes(sst.bloom._bits)),
        "blocks": [[block.offset, block.nbytes] for block in sst._blocks],
        "placement": (None if sst.extent is None
                      else tree.flash.placement_of(sst.extent)),
    }


def load_digest(env):
    """What the bulk load built, as JSON-ready data."""
    families = {}
    for family in env.database.families():
        tree = family.tree
        families[family.name] = {
            "version": tree.version,
            "write_stats": asdict(tree.write_stats),
            "compaction_stats": asdict(tree.compactor.stats),
            "ssts": [_sst_digest(tree, sst) for sst in tree.levels.all_ssts()],
        }
    tables = {}
    for table in env.catalog.tables():
        stats = table.statistics
        tables[table.name] = {
            "row_count": stats.row_count,
            "columns": {
                name: [column.n_values, column.n_nulls, column.min_value,
                       column.max_value, column.distinct_estimate]
                for name, column in stats.columns.items()},
            "sample_sha256": _sha(repr(stats.sample).encode()),
            "rng_sha256": _sha(repr(stats._rng.getstate()).encode()),
        }
    # A JSON round trip turns tuples into lists and int keys into strings,
    # as the committed fixture has them.
    return json.loads(json.dumps({"families": families, "tables": tables}))


def load_digests():
    """The fixture's two fresh builds, with and without secondary indexes,
    flattened to one entry per column family and per table
    (``"indexed/families/title"``, ``"noindex/tables/title"``, ...).

    Fresh, not the session ``job_env``: a test that writes to that
    environment would otherwise move the layout compared here.
    """
    flat = {}
    for build in ("indexed", "noindex"):
        env = build_environment(scale=0.0004, seed=7,
                                secondary_indexes=build == "indexed")
        for kind, entries in load_digest(env).items():
            for name, value in entries.items():
                flat[f"{build}/{kind}/{name}"] = value
    return flat


def golden_text(digests):
    """The fixture's text: one line per entry, so a diff names what moved."""
    lines = (f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
             for key, value in sorted(digests.items()))
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_bulk_load_reproduces_golden_layout():
    golden = json.loads(GOLDEN.read_text())
    digests = load_digests()
    assert sorted(digests) == sorted(golden)
    for key, value in golden.items():
        assert digests[key] == value, key
