"""Seeded random SQL workload generator over the synthetic IMDB schema.

Produces unbounded novel-but-valid queries in the shape of defio's
``RandomSqlGenerator``: a weighted join-graph sampler walks the foreign
key edges of the 21 JOB tables, predicate samplers draw constants from
the dataset generator's vocabularies (``KIND_TYPES``, ``INFO_TYPES``,
``GENRES``, ...) so selectivities are non-degenerate on the synthetic
data, and aggregate/projection samplers emit the SELECT list.  Every
query round-trips through :func:`repro.query.parser.parse_query` and
plans under :class:`~repro.core.planner.HybridPlanner`.

Determinism contract: query ``i`` of seed ``s`` is a pure function of
``(s, i)`` — independent of how many queries are generated, in what
order, or on which machine — so a failing query replays from its
``(seed, index)`` pair alone (see docs/workloads.md).

Generated queries deliberately avoid two grammar corners:

* ``LIMIT`` — which N rows survive depends on physical row order, so
  host/split/cluster strategies could all be correct yet disagree; the
  differential harness (:mod:`repro.bench.fuzz`) needs row-identical
  results.
* ``SELECT *`` — the projected column set is well-defined but wide,
  which only slows the differential sweeps down without adding grammar
  coverage.

Both stay covered by the parser's unit tests instead.
"""

import random
from dataclasses import dataclass

from repro.errors import ReproError
from repro.query.parser import parse_query
from repro.relational import DataType
from repro.query.render import render_string
from repro.workloads.generator import (CI_NOTES, COMP_CAST_TYPES,
                                       COMPANY_TYPES, COUNTRY_CODES, GENRES,
                                       INFO_TYPES, KIND_TYPES, LANGUAGES,
                                       LINK_TYPES, MC_NOTES, MI_COUNTRIES,
                                       ROLE_TYPES, _NAMED_KEYWORDS,
                                       _TITLE_WORDS)
from repro.workloads.imdb_schema import BASE_ROW_COUNTS, imdb_schemas

# ----------------------------------------------------------------------
# Schema metadata: aliases, foreign keys, column types
# ----------------------------------------------------------------------

#: Canonical JOB-style alias per table (a repeated walk never reuses a
#: table, so aliases are unique within a query).
TABLE_ALIASES = {
    "aka_name": "an",
    "aka_title": "at",
    "cast_info": "ci",
    "char_name": "chn",
    "comp_cast_type": "cct",
    "company_name": "cn",
    "company_type": "ct",
    "complete_cast": "cc",
    "info_type": "it",
    "keyword": "k",
    "kind_type": "kt",
    "link_type": "lt",
    "movie_companies": "mc",
    "movie_info": "mi",
    "movie_info_idx": "mi_idx",
    "movie_keyword": "mk",
    "movie_link": "ml",
    "name": "n",
    "person_info": "pi",
    "role_type": "rt",
    "title": "t",
}


@dataclass(frozen=True)
class FkEdge:
    """A foreign-key edge ``child.child_column -> parent.id``."""

    child: str
    child_column: str
    parent: str


#: The join graph the sampler walks (every parent column is ``id``).
FK_EDGES = (
    FkEdge("aka_name", "person_id", "name"),
    FkEdge("aka_title", "movie_id", "title"),
    FkEdge("aka_title", "kind_id", "kind_type"),
    FkEdge("cast_info", "movie_id", "title"),
    FkEdge("cast_info", "person_id", "name"),
    FkEdge("cast_info", "person_role_id", "char_name"),
    FkEdge("cast_info", "role_id", "role_type"),
    FkEdge("complete_cast", "movie_id", "title"),
    FkEdge("complete_cast", "subject_id", "comp_cast_type"),
    FkEdge("movie_companies", "movie_id", "title"),
    FkEdge("movie_companies", "company_id", "company_name"),
    FkEdge("movie_companies", "company_type_id", "company_type"),
    FkEdge("movie_info", "movie_id", "title"),
    FkEdge("movie_info", "info_type_id", "info_type"),
    FkEdge("movie_info_idx", "movie_id", "title"),
    FkEdge("movie_info_idx", "info_type_id", "info_type"),
    FkEdge("movie_keyword", "movie_id", "title"),
    FkEdge("movie_keyword", "keyword_id", "keyword"),
    FkEdge("movie_link", "movie_id", "title"),
    FkEdge("movie_link", "link_type_id", "link_type"),
    FkEdge("person_info", "person_id", "name"),
    FkEdge("person_info", "info_type_id", "info_type"),
    FkEdge("title", "kind_id", "kind_type"),
)

#: Tables worth starting a walk from (fact tables with several edges),
#: with sampling weights: starting from a relationship table yields the
#: JOB-like star shapes, starting from ``title`` yields snowflakes.
_START_WEIGHTS = {
    "title": 24,
    "cast_info": 10,
    "movie_companies": 14,
    "movie_info": 10,
    "movie_info_idx": 10,
    "movie_keyword": 10,
    "movie_link": 6,
    "complete_cast": 4,
    "aka_title": 4,
    "person_info": 4,
    "aka_name": 4,
}

#: Tables that are large at any scale: the walk keeps their count per
#: query bounded so pure-python join pyramids stay tractable.
_BIG_TABLES = frozenset(name for name, rows in BASE_ROW_COUNTS.items()
                        if rows >= 1_000_000)

#: Walking onto a dimension table is cheaper and more JOB-like than
#: chaining another fact table, so dimension ends get higher weight.
_EDGE_WEIGHT_DIMENSION = 4
_EDGE_WEIGHT_FACT = 1


# ----------------------------------------------------------------------
# Predicate vocabulary: (table, column) -> sampler specs
# ----------------------------------------------------------------------

_YEAR_LO, _YEAR_HI = 1925, 2018

#: LIKE fragments that actually occur in the generated note vocabularies.
_MC_NOTE_FRAGMENTS = ["(co-production)", "(presents)", "(USA)",
                      "(worldwide)", "(theatrical)", "(VHS)", "(TV)"]
_CI_NOTE_FRAGMENTS = ["(voice)", "(uncredited)", "(producer)", "(writer)",
                      "(story)", "(archive footage)"]


def _eq(rng, column, vocab):
    return f"{column} = {render_string(rng.choice(vocab))}"


def _in(rng, column, vocab, lo=2, hi=4):
    count = rng.randint(lo, min(hi, len(vocab)))
    values = rng.sample(vocab, count)
    rendered = ", ".join(render_string(v) for v in values)
    negated = "NOT IN" if rng.random() < 0.15 else "IN"
    return f"{column} {negated} ({rendered})"


def _like(rng, column, fragments):
    negated = "NOT LIKE" if rng.random() < 0.25 else "LIKE"
    return (f"{column} {negated} "
            f"{render_string('%' + rng.choice(fragments) + '%')}")


def _prefix_like(rng, column, alphabet="ABCDEGKLMNRSTW"):
    return f"{column} LIKE {render_string(rng.choice(alphabet) + '%')}"


def _null(rng, column):
    negated = "IS NOT NULL" if rng.random() < 0.5 else "IS NULL"
    return f"{column} {negated}"


def _year(rng, column):
    shape = rng.random()
    if shape < 0.5:
        lo = rng.randint(_YEAR_LO, _YEAR_HI - 5)
        return f"{column} BETWEEN {lo} AND {lo + rng.randint(3, 25)}"
    if shape < 0.8:
        return f"{column} > {rng.randint(_YEAR_LO, _YEAR_HI)}"
    return f"{column} < {rng.randint(_YEAR_LO, _YEAR_HI)}"


def _int_range(rng, column, lo, hi):
    shape = rng.random()
    if shape < 0.4:
        a = rng.randint(lo, hi - 1)
        return f"{column} BETWEEN {a} AND {a + rng.randint(1, hi - a)}"
    op = rng.choice(["<", "<=", ">", ">="])
    return f"{column} {op} {rng.randint(lo, hi)}"


def _rating(rng, column):
    # movie_info_idx ratings are strings like "7.3"; JOB compares them
    # lexicographically ("mi_idx.info > '5.0'"), which works because the
    # format is fixed-width.
    value = f"{rng.randint(1, 9)}.{rng.randint(0, 9)}"
    op = rng.choice([">", "<", ">=", "<="])
    return f"{column} {op} {render_string(value)}"


#: {table: [sampler(rng, qualified_column) -> predicate SQL]} — every
#: constant comes from the dataset generator's vocabularies, so the
#: predicates select real value ranges of the synthetic data.
def _build_predicate_pool():
    mi_vocab = GENRES + MI_COUNTRIES + LANGUAGES
    mc_notes = [note for note in MC_NOTES if note]
    ci_notes = [note for note in CI_NOTES if note]
    named_info = INFO_TYPES[:22]
    return {
        "title": [
            ("production_year", _year),
            ("production_year", _year),
            ("title", lambda rng, col: _like(rng, col, _TITLE_WORDS)),
            ("title", _prefix_like),
            ("episode_nr", _null),
            ("episode_nr", lambda rng, col: _int_range(rng, col, 1, 400)),
            ("imdb_index", _null),
        ],
        "kind_type": [
            ("kind", lambda rng, col: _eq(rng, col, KIND_TYPES)),
            ("kind", lambda rng, col: _in(rng, col, KIND_TYPES)),
        ],
        "company_type": [
            ("kind", lambda rng, col: _eq(rng, col, COMPANY_TYPES)),
            ("kind", lambda rng, col: _in(rng, col, COMPANY_TYPES, 2, 3)),
        ],
        "comp_cast_type": [
            ("kind", lambda rng, col: _eq(rng, col, COMP_CAST_TYPES)),
        ],
        "role_type": [
            ("role", lambda rng, col: _eq(rng, col, ROLE_TYPES)),
            ("role", lambda rng, col: _in(rng, col, ROLE_TYPES)),
        ],
        "link_type": [
            ("link", lambda rng, col: _eq(rng, col, LINK_TYPES)),
            ("link", lambda rng, col: _in(rng, col, LINK_TYPES)),
        ],
        "info_type": [
            ("info", lambda rng, col: _eq(rng, col, named_info)),
            ("info", lambda rng, col: _in(rng, col, named_info)),
        ],
        "company_name": [
            ("country_code", lambda rng, col: _eq(rng, col, COUNTRY_CODES)),
            ("country_code", lambda rng, col: _in(rng, col, COUNTRY_CODES)),
            ("country_code", _null),
            ("name", lambda rng, col: _like(
                rng, col, ["Pictures", "Films", "Studio", "Entertainment"])),
            ("name", lambda rng, col: _like(rng, col, _TITLE_WORDS)),
        ],
        "keyword": [
            ("keyword", lambda rng, col: _eq(rng, col, _NAMED_KEYWORDS)),
            ("keyword", lambda rng, col: _in(rng, col, _NAMED_KEYWORDS)),
            ("keyword", lambda rng, col: _like(
                rng, col, ["super", "based-on", "title", "sequel"])),
        ],
        "movie_companies": [
            ("note", lambda rng, col: _like(rng, col, _MC_NOTE_FRAGMENTS)),
            ("note", lambda rng, col: _in(rng, col, mc_notes, 2, 4)),
            ("note", _null),
        ],
        "cast_info": [
            ("note", lambda rng, col: _like(rng, col, _CI_NOTE_FRAGMENTS)),
            ("note", lambda rng, col: _in(rng, col, ci_notes, 2, 4)),
            ("note", _null),
            ("nr_order", lambda rng, col: _int_range(rng, col, 1, 40)),
            ("nr_order", _null),
        ],
        "movie_info": [
            ("info", lambda rng, col: _eq(rng, col, mi_vocab)),
            ("info", lambda rng, col: _in(rng, col, GENRES, 2, 5)),
            ("info", lambda rng, col: _in(rng, col, MI_COUNTRIES, 2, 4)),
            ("info", lambda rng, col: _in(rng, col, LANGUAGES, 2, 4)),
            ("note", _null),
        ],
        "movie_info_idx": [
            ("info", _rating),
            ("info", _prefix_like),
        ],
        "name": [
            ("gender", lambda rng, col: _eq(rng, col, ["m", "f"])),
            ("gender", _null),
            ("name", _prefix_like),
            ("name", lambda rng, col: _like(
                rng, col, ["an", "or", "el", "son"])),
            ("imdb_index", _null),
        ],
        "char_name": [
            ("name", _prefix_like),
        ],
        "aka_name": [
            ("name", _prefix_like),
        ],
        "aka_title": [
            ("production_year", _year),
            ("title", lambda rng, col: _like(rng, col, _TITLE_WORDS)),
        ],
        "person_info": [
            ("note", _null),
        ],
        "complete_cast": [],
        "movie_keyword": [],
        "movie_link": [],
        "person_info_extra": [],
    }


_PREDICATE_POOL = _build_predicate_pool()

#: Aggregatable columns per table (int columns for SUM/AVG; any column
#: for MIN/MAX), derived from the schema so they cannot drift.
_SCHEMAS = {schema.name: schema for schema in imdb_schemas()}

#: Low-cardinality columns worth grouping on.
_GROUP_COLUMNS = {
    "title": ["kind_id", "production_year"],
    "cast_info": ["role_id"],
    "name": ["gender"],
    "company_name": ["country_code"],
    "movie_companies": ["company_type_id"],
    "movie_info": ["info_type_id"],
    "movie_info_idx": ["info_type_id"],
    "kind_type": ["kind"],
    "role_type": ["role"],
    "info_type": ["info"],
    "complete_cast": ["subject_id"],
    "movie_link": ["link_type_id"],
}


# ----------------------------------------------------------------------
# Configuration and query record
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SqlGenConfig:
    """Knobs of the sampler (all probabilities in [0, 1])."""

    min_tables: int = 2
    max_tables: int = 6
    max_big_tables: int = 2     # large relationship tables per query
    min_predicates: int = 1
    max_predicates: int = 4
    p_extra_edge: float = 0.25  # transitive edge between two FK siblings
    p_or_group: float = 0.2     # wrap two predicates of a table in OR
    p_group_by: float = 0.2
    p_plain_projection: float = 0.15
    max_aggregates: int = 3

    def __post_init__(self):
        if not 1 <= self.min_tables <= self.max_tables:
            raise ReproError("need 1 <= min_tables <= max_tables")
        if self.max_tables > len(TABLE_ALIASES):
            raise ReproError("max_tables exceeds the schema's table count")
        if self.min_predicates > self.max_predicates:
            raise ReproError("min_predicates exceeds max_predicates")


@dataclass(frozen=True)
class GeneratedQuery:
    """One sampled query, addressable as ``(seed, index)``."""

    seed: int
    index: int
    sql: str
    tables: tuple = ()           # table names in FROM order

    @property
    def name(self):
        """Stable display name, e.g. ``gen7-42``."""
        return f"gen{self.seed}-{self.index}"

    def to_dict(self):
        return {"seed": self.seed, "index": self.index, "name": self.name,
                "tables": list(self.tables), "sql": self.sql}


# ----------------------------------------------------------------------
# The generator
# ----------------------------------------------------------------------

class RandomSqlGenerator:
    """Seed-deterministic random query sampler.

    ``generate(n)`` returns queries ``0..n-1`` of the seed;
    ``generate_one(index)`` returns any single one.  Each query draws
    from its own ``random.Random(f"{seed}:{index}")`` stream, so the
    corpus is stable under prefixing: the first 25 queries of a
    200-query corpus are byte-identical to a 25-query corpus.
    """

    def __init__(self, seed=0, config=None):
        self.seed = seed
        self.config = config or SqlGenConfig()
        self._adjacency = {}
        for edge in FK_EDGES:
            self._adjacency.setdefault(edge.child, []).append(edge)
            self._adjacency.setdefault(edge.parent, []).append(edge)

    def generate(self, count):
        """The first ``count`` queries of this seed."""
        if count < 0:
            raise ReproError(f"query count must be non-negative, got {count}")
        return [self.generate_one(index) for index in range(count)]

    def generate_one(self, index):
        """Query ``index`` of this seed (pure function of both)."""
        rng = random.Random(f"{self.seed}:{index}")
        tables = self._sample_join_graph(rng)
        aliases = {name: TABLE_ALIASES[name] for name in tables}
        joins = self._join_conditions(rng, tables, aliases)
        predicates = self._sample_predicates(rng, tables, aliases)
        select, group_by = self._sample_select(rng, tables, aliases)
        sql = self._render(select, tables, aliases, joins + predicates,
                           group_by)
        # The generator's own contract: everything it emits parses.
        parse_query(sql)
        return GeneratedQuery(seed=self.seed, index=index, sql=sql,
                              tables=tuple(tables))

    # ------------------------------------------------------------------
    # Join-graph sampling
    # ------------------------------------------------------------------
    def _sample_join_graph(self, rng):
        """A connected table set sampled by walking FK edges."""
        config = self.config
        target = rng.randint(config.min_tables, config.max_tables)
        start_names = sorted(_START_WEIGHTS)
        start = rng.choices(
            start_names,
            weights=[_START_WEIGHTS[name] for name in start_names])[0]
        tables = [start]
        used = {start}
        big_used = 1 if start in _BIG_TABLES else 0
        while len(tables) < target:
            frontier = []
            weights = []
            for name in tables:
                for edge in self._adjacency[name]:
                    other = (edge.parent if edge.child == name
                             else edge.child)
                    if other in used:
                        continue
                    if (other in _BIG_TABLES
                            and big_used >= config.max_big_tables):
                        continue
                    frontier.append(other)
                    weights.append(_EDGE_WEIGHT_FACT
                                   if other in _BIG_TABLES
                                   else _EDGE_WEIGHT_DIMENSION)
            if not frontier:
                break
            chosen = rng.choices(frontier, weights=weights)[0]
            tables.append(chosen)
            used.add(chosen)
            if chosen in _BIG_TABLES:
                big_used += 1
        return tables

    def _join_conditions(self, rng, tables, aliases):
        """Equi-join conditions covering the sampled tables."""
        used = set(tables)
        conditions = []
        fk_children = {}     # (parent, child_column) -> [child alias]
        for edge in FK_EDGES:
            if edge.child in used and edge.parent in used:
                child = aliases[edge.child]
                parent = aliases[edge.parent]
                conditions.append(
                    f"{child}.{edge.child_column} = {parent}.id")
                fk_children.setdefault(
                    (edge.parent, edge.child_column), []).append(child)
        # Transitive sibling edges, the JOB idiom
        # ``mc.movie_id = mi_idx.movie_id`` (redundant but real).
        for (_parent, column), children in sorted(fk_children.items()):
            if len(children) >= 2 and rng.random() < self.config.p_extra_edge:
                left, right = rng.sample(children, 2)
                conditions.append(f"{left}.{column} = {right}.{column}")
        return conditions

    # ------------------------------------------------------------------
    # Predicate sampling
    # ------------------------------------------------------------------
    def _sample_predicates(self, rng, tables, aliases):
        config = self.config
        candidates = []
        for name in tables:
            pool = _PREDICATE_POOL.get(name) or ()
            for column, sampler in pool:
                candidates.append((name, column, sampler))
        if not candidates:
            return []
        count = rng.randint(config.min_predicates, config.max_predicates)
        count = min(count, len(candidates))
        chosen = rng.sample(candidates, count)
        predicates = []
        for name, column, sampler in chosen:
            qualified = f"{aliases[name]}.{column}"
            predicates.append(sampler(rng, qualified))
        # OR group: two fresh predicates over one table, parenthesized.
        if predicates and rng.random() < config.p_or_group:
            name = rng.choice([name for name in tables
                               if _PREDICATE_POOL.get(name)])
            pool = _PREDICATE_POOL[name]
            (col_a, samp_a), (col_b, samp_b) = (
                rng.choice(pool), rng.choice(pool))
            left = samp_a(rng, f"{aliases[name]}.{col_a}")
            right = samp_b(rng, f"{aliases[name]}.{col_b}")
            predicates.append(f"({left} OR {right})")
        return predicates

    # ------------------------------------------------------------------
    # SELECT-list sampling
    # ------------------------------------------------------------------
    def _columns_of(self, name):
        return [column.name for column in _SCHEMAS[name].columns]

    def _int_columns_of(self, name):
        return [column.name for column in _SCHEMAS[name].columns
                if column.dtype is DataType.INT]

    def _sample_select(self, rng, tables, aliases):
        """Returns ``(select_items, group_by_columns)``."""
        config = self.config
        shape = rng.random()
        if shape < config.p_plain_projection:
            count = rng.randint(1, 3)
            items = []
            for _ in range(count):
                name = rng.choice(tables)
                column = rng.choice(self._columns_of(name))
                items.append(f"{aliases[name]}.{column}")
            return items, []

        group_by = []
        if rng.random() < config.p_group_by:
            groupable = [name for name in tables if name in _GROUP_COLUMNS]
            if groupable:
                name = rng.choice(groupable)
                column = rng.choice(_GROUP_COLUMNS[name])
                group_by = [f"{aliases[name]}.{column}"]

        count = rng.randint(1, config.max_aggregates)
        items = []
        for position in range(count):
            kind = rng.choices(["min", "max", "count", "sum", "avg"],
                               weights=[40, 15, 25, 10, 10])[0]
            if kind == "count":
                items.append(f"COUNT(*) AS c{position}")
                continue
            name = rng.choice(tables)
            if kind in ("sum", "avg"):
                columns = self._int_columns_of(name)
                if not columns:
                    items.append(f"COUNT(*) AS c{position}")
                    continue
            else:
                columns = self._columns_of(name)
            column = rng.choice(columns)
            items.append(f"{kind.upper()}({aliases[name]}.{column}) "
                         f"AS a{position}")
        return items, group_by

    # ------------------------------------------------------------------
    # Rendering
    # ------------------------------------------------------------------
    @staticmethod
    def _render(select, tables, aliases, conditions, group_by):
        parts = ["SELECT " + ",\n       ".join(select)]
        parts.append("FROM " + ", ".join(
            f"{name} AS {aliases[name]}" for name in tables))
        if conditions:
            parts.append("WHERE " + "\n  AND ".join(conditions))
        if group_by:
            parts.append("GROUP BY " + ", ".join(group_by))
        return "\n".join(parts)


def generate_corpus(seed, count, config=None):
    """The first ``count`` queries of ``seed`` (module-level shortcut)."""
    return RandomSqlGenerator(seed=seed, config=config).generate(count)


__all__ = ["FK_EDGES", "FkEdge", "GeneratedQuery", "RandomSqlGenerator",
           "SqlGenConfig", "TABLE_ALIASES", "generate_corpus"]
