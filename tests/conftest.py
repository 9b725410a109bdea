"""Shared fixtures.

Heavy environments are session-scoped: the synthetic JOB dataset is
generated and loaded once and reused read-only by every test that needs
it.  Tests that mutate state build their own small stores.
"""

import pytest

from repro.lsm.column_family import KVDatabase
from repro.lsm.store import LSMConfig
from repro.relational.catalog import Catalog
from repro.relational.schema import TableSchema, char_col, int_col
from repro.storage.topology import Topology
from repro.storage.flash import FlashDevice
from repro.workloads.loader import build_environment


def pytest_addoption(parser):
    parser.addoption(
        "--runslow", action="store_true", default=False,
        help="run slow tests (the full 113-query differential suite, "
             "the Fig 12/13 matrix)")


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: long-running test, skipped unless --runslow is given")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="slow test: pass --runslow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


def small_lsm_config(**overrides):
    """An LSM config that flushes/compacts quickly in tests."""
    defaults = dict(memtable_size=16 * 1024, level_base_bytes=64 * 1024,
                    sst_target_bytes=32 * 1024, block_size=2048)
    defaults.update(overrides)
    return LSMConfig(**defaults)


@pytest.fixture
def flash():
    return FlashDevice()


@pytest.fixture
def device(flash):
    return Topology.single(flash=flash).device


@pytest.fixture
def kv_db(flash):
    return KVDatabase(flash=flash, default_config=small_lsm_config())


@pytest.fixture
def mini_catalog(kv_db):
    """A 3-table catalog with deterministic data, for planner tests."""
    catalog = Catalog(kv_db)
    catalog.create_table(TableSchema(
        "title",
        (int_col("id", False), char_col("title", 32),
         int_col("production_year"), int_col("kind_id")),
        "id", ("production_year",)))
    catalog.create_table(TableSchema(
        "movie_companies",
        (int_col("id", False), int_col("movie_id"),
         int_col("company_type_id"), char_col("note", 40)),
        "id", ("movie_id",)))
    catalog.create_table(TableSchema(
        "company_type",
        (int_col("id", False), char_col("kind", 24)),
        "id"))
    title = catalog.table("title")
    for i in range(400):
        title.insert({"id": i, "title": f"Movie {i}",
                      "production_year": 1950 + i % 70,
                      "kind_id": i % 7})
    mc = catalog.table("movie_companies")
    for i in range(800):
        mc.insert({"id": i, "movie_id": i % 400,
                   "company_type_id": i % 4,
                   "note": "(presents)" if i % 5 == 0
                           else "(co-production)"})
    ct = catalog.table("company_type")
    for i in range(4):
        ct.insert({"id": i, "kind": "production companies" if i == 0
                                    else f"kind{i}"})
    catalog.flush_all()
    return catalog


MINI_JOIN_SQL = """SELECT MIN(t.title) AS movie_title,
       MIN(t.production_year) AS yr
FROM company_type AS ct, title AS t, movie_companies AS mc
WHERE ct.kind = 'production companies'
  AND (mc.note LIKE '%(co-production)%' OR mc.note LIKE '%(presents)%')
  AND ct.id = mc.company_type_id
  AND t.id = mc.movie_id
  AND t.production_year BETWEEN 1960 AND 1980"""


@pytest.fixture
def mini_join_sql():
    return MINI_JOIN_SQL


@pytest.fixture(scope="session")
def job_env():
    """The synthetic JOB environment at tiny scale (read-only)."""
    return build_environment(scale=0.0004, seed=7)


@pytest.fixture(scope="session")
def job_env_noindex():
    """JOB environment without secondary indexes (Experiments 4/5)."""
    return build_environment(scale=0.0008, seed=7, secondary_indexes=False)
