"""Environment builder: dataset -> storage -> catalog -> engines.

``build_environment`` generates the synthetic IMDB dataset at a scale
factor, loads it through the relational layer into the LSM store on a
flash device, profiles the hardware, and wires up the stack runner and
the hybrid planner.  The device buffer sizes are scaled by the ratio of
the synthetic dataset to the paper's 16 GB so buffer-pressure effects
(batching, BNL block counts) stay proportionate.

Because the generator is fully seeded, the generated rows can be cached
on disk (``workload_cache_dir`` or ``$REPRO_WORKLOAD_CACHE``) keyed by
the dataset spec; repeated sweeps — and every worker of the parallel JOB
sweep — then skip regeneration and load identical bytes.
"""

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass

from repro.core.cost_model import CostModel
from repro.core.hardware import HardwareModel
from repro.core.planner import HybridPlanner
from repro.core.splitter import SplitPlanner
from repro.engine.stacks import StackRunner
from repro.lsm.column_family import KVDatabase
from repro.lsm.store import LSMConfig
from repro.relational.catalog import Catalog
from repro.storage.device import SmartStorageDevice
from repro.storage.flash import FlashDevice
from repro.storage.topology import Topology
from repro.workloads.generator import DatasetGenerator, DatasetSpec
from repro.workloads.imdb_schema import imdb_schemas

#: The paper's dataset: ~16 GB including 6 GB of indexes (§5).
PAPER_DATASET_BYTES = 16 * 1024 ** 3


@dataclass
class Environment:
    """Everything needed to run experiments against one dataset."""

    spec: DatasetSpec
    database: KVDatabase
    catalog: Catalog
    device: SmartStorageDevice
    runner: StackRunner
    planner: HybridPlanner
    hardware: HardwareModel
    buffer_scale: float
    secondary_indexes: bool = True
    #: The machine layout the environment was wired from
    #: (:class:`repro.storage.topology.Topology`); single-device by
    #: default, replaced by ``DeviceCluster`` consumers for scale-out.
    topology: object = None

    def build_kwargs(self):
        """Keyword arguments that rebuild an identical environment."""
        return {
            "scale": self.spec.scale,
            "seed": self.spec.seed,
            "min_rows": self.spec.min_rows,
            "table_overrides": tuple(self.spec.table_overrides),
            "secondary_indexes": self.secondary_indexes,
        }

    @property
    def total_rows(self):
        """Rows loaded across all tables."""
        return self.catalog.total_rows()

    @property
    def total_bytes(self):
        """Data bytes across all tables (excluding indexes)."""
        return self.catalog.total_bytes()

    def run(self, query, stack, split_index=None, ctx=None):
        """Shortcut to :meth:`StackRunner.run`."""
        return self.runner.run(query, stack, split_index=split_index,
                               ctx=ctx)

    def decide(self, query, context=None):
        """Shortcut to :meth:`HybridPlanner.decide`.

        ``context`` is a :class:`~repro.core.planning.PlanningContext`.
        """
        return self.planner.decide(query, context=context)


def _lsm_config_for(spec):
    """LSM tuning proportionate to the dataset scale.

    Chosen so the larger tables span several SSTs over 2-3 levels, which
    keeps LSM read-amplification effects (merging iterators, per-SST
    index blocks) visible at any scale.
    """
    memtable = max(16 * 1024, int(2 * 1024 * 1024 * spec.scale * 64))
    return LSMConfig(
        memtable_size=memtable,
        block_size=4096,
        level_base_bytes=4 * memtable,
        size_ratio=8,
        sst_target_bytes=2 * memtable,
    )


def _workload_cache_path(cache_dir, spec):
    """Deterministic cache file for one dataset spec."""
    key = repr((spec.scale, spec.seed, spec.min_rows,
                tuple(spec.table_overrides)))
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:20]
    return os.path.join(cache_dir, f"imdb-{digest}.pkl")


def _generate_workload(spec, table_names, cache_dir=None):
    """{table: rows} for the spec, via the on-disk cache when enabled.

    The generator's RNG is shared across tables, so all tables are
    produced in one pass in schema order — the cache stores that whole
    pass and is only valid as a unit.
    """
    path = _workload_cache_path(cache_dir, spec) if cache_dir else None
    if path and os.path.exists(path):
        with open(path, "rb") as handle:
            cached = pickle.load(handle)
        if set(table_names) <= set(cached):
            return cached
    generator = DatasetGenerator(spec)
    rows = {name: list(generator.generate(name)) for name in table_names}
    if path:
        os.makedirs(cache_dir, exist_ok=True)
        fd, tmp_path = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(rows, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_path, path)     # atomic: concurrent-worker safe
        except OSError:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
    return rows


def build_environment(scale=0.0005, seed=7, secondary_indexes=True,
                      device_spec=None, host_spec=None, min_rows=8,
                      table_overrides=(), workload_cache_dir=None):
    """Generate, load, profile, and wire an :class:`Environment`.

    ``workload_cache_dir`` (default: ``$REPRO_WORKLOAD_CACHE`` when set)
    caches the generated rows on disk so repeated builds of the same
    spec skip generation.
    """
    spec = DatasetSpec(scale=scale, seed=seed, min_rows=min_rows,
                       table_overrides=tuple(table_overrides))
    if workload_cache_dir is None:
        workload_cache_dir = os.environ.get("REPRO_WORKLOAD_CACHE") or None
    flash = FlashDevice()
    database = KVDatabase(flash=flash, default_config=_lsm_config_for(spec))
    catalog = Catalog(database)

    schemas = imdb_schemas(secondary_indexes=secondary_indexes)
    for schema in schemas:
        catalog.create_table(schema)

    workload = _generate_workload(spec, [schema.name for schema in schemas],
                                  cache_dir=workload_cache_dir)
    for schema in schemas:
        table = catalog.table(schema.name)
        table.insert_many(workload[schema.name])
    catalog.flush_all()

    topology = Topology.single(device_spec=device_spec, host_spec=host_spec,
                               flash=flash)
    device = topology.device
    host = topology.host

    # Scale device buffers by dataset-size ratio (floors keep batching
    # meaningful at tiny scales).
    dataset_bytes = max(1, catalog.total_bytes())
    buffer_scale = max(2e-4, dataset_bytes / PAPER_DATASET_BYTES)

    hardware = HardwareModel.profile(device, host)
    cost_model = CostModel(hardware)
    # The minimum-transfer-volume precondition (§3.3) scales with the
    # dataset like every buffer does.
    min_transfer = max(256, int(64 * 1024 * buffer_scale * 1024))
    split_planner = SplitPlanner(hardware, cost_model,
                                 min_transfer_bytes=min_transfer)
    planner = HybridPlanner(catalog, device, hardware,
                            cost_model=cost_model,
                            split_planner=split_planner)
    runner = StackRunner(catalog, database, device, host_spec=host,
                         buffer_scale=buffer_scale)
    return Environment(
        spec=spec,
        database=database,
        catalog=catalog,
        device=device,
        runner=runner,
        planner=planner,
        hardware=hardware,
        buffer_scale=buffer_scale,
        secondary_indexes=secondary_indexes,
        topology=topology,
    )
