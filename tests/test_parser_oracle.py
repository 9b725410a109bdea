"""The SQL front end against its retained token-at-a-time reference.

:mod:`repro.query.parser` lexes in one ``findall`` pass and parses over
parallel tag/text lists; :mod:`tests.parseref` keeps the lexer and
parser it replaced.  Every input below goes through both, and the two
must agree on

- the token list: each token's ``kind``, ``text`` and ``position``, or
  the lexer's error;
- the parse: equal ``ParsedQuery`` values with equal reprs (so an
  ``int`` literal never turns into an equal ``float``), rendering to
  the same text by :func:`~repro.query.render.render_query`;
- a failure: the exception type, ``str()`` and ``.position``.

Inputs are all JOB queries, ``generate_corpus`` at three seeds, and a
seeded corpus of mutated SQL: fragments deleted, inserted and
truncated, always including an unterminated string, a backslash-newline
inside a string, trailing whitespace, ``NOT`` before a comparison, a
fractional and a negative ``LIMIT``, ``@`` and non-ASCII digits and
whitespace.

One difference is intended.  The reference raised the "qualified table
name" error without an offset; the live parser gives it the offset of
the table-name token (:func:`_expected_error`).

The ``slow`` variant runs more mutation seeds (``--runslow``).
"""

import random

import pytest

from repro.errors import ParseError
from repro.query import parser as live
from repro.query.render import render_query
from repro.workloads.job_queries import all_queries
from repro.workloads.sqlgen import generate_corpus
from tests import parseref

#: Mutated strings per corpus seed.
MUTATIONS = 5000
#: Queries per ``generate_corpus`` seed.
GENERATED = 150

#: Inputs every mutation corpus starts with.
REQUIRED = (
    "SELECT t.a FROM title AS t WHERE t.note = 'unterminated",
    "SELECT t.a FROM title AS t WHERE t.note = 'a\\\nb'",
    "SELECT t.a FROM title AS t WHERE t.note = 'a\\'",
    "SELECT t.a FROM title AS t WHERE t.note = 'back\\\\slash\\n'",
    "SELECT t.a FROM title AS t WHERE t.note LIKE 'it''s \\'q\\' \\\\'",
    "SELECT t.a FROM title AS t   \n\t ",
    "SELECT t.a FROM title AS t\n",
    "SELECT t.a FROM title AS t WHERE NOT t.id = 1",
    "SELECT t.a FROM title AS t WHERE t.id NOT = 1",
    "SELECT t.a FROM title AS t WHERE t.id NOT > 1 AND t.a = 2",
    "SELECT t.a FROM title AS t LIMIT 1.5",
    "SELECT t.a FROM title AS t LIMIT -2",
    "SELECT t.a FROM title AS t LIMIT 'x'",
    "SELECT @ FROM title AS t",
    "SELECT t.a FROM title AS t WHERE t.id = @x",
    "SELECT t.a FROM db.title AS t",
    "SELECT t.a FROM title AS t, db.info AS i",
    # Non-ASCII decimal digits lex as a number, other digits as junk.
    "SELECT t.a FROM title AS t WHERE t.id = \u0663\u0664",
    "SELECT t.a FROM title AS t WHERE t.id = \u00b2",
    # Non-ASCII whitespace is whitespace, trailing too.
    "SELECT t.a FROM\u00a0title AS t\u2003",
    "",
    "   ",
    "SELECT",
)

#: Fragments the mutator inserts.
FRAGMENTS = (
    "'", "'abc", "'a\\\nb'", "'it''s'", "''''", "'\\\\'", "\\", " \n",
    "\t", "NOT ", "NOT x = 1", "NOT t.a > 2", "LIMIT 1.5", "LIMIT -3",
    "LIMIT 10", "@", "(", ")", ",", ";", "*", " AND ", " OR ",
    "BETWEEN 1 AND 2",
    "IS NOT NULL", "IS NULL", "IN (1, 'a')", "IN ()", "LIKE '%x%'",
    "NOT LIKE 'a'", "t.a", "a.b.c", "db.title", "-", "--", "1.", ".5",
    "-7", "3.25", "!", "!=", "<>", "<=", ">=", "=", "MIN(", "COUNT(*)",
    "AS", "AS x", "FROM", "WHERE", "GROUP BY", "GROUP BY t.a", "SELECT",
    "\u00e9", "\u0663", "\u00b2", "\u00a0", "\u2003", "$", "#", "?", ":",
    "select", "Where", "aNd",
)


def _failure(error):
    return ("error", type(error), str(error),
            getattr(error, "position", None))


def _outcome(run):
    """``("ok", run())`` or the failure it raised."""
    try:
        return ("ok", run())
    except Exception as error:  # noqa: BLE001 - the type is compared
        return _failure(error)


def _token_fields(tokens):
    return [(token.kind, token.text, token.position) for token in tokens]


def _rendered(parsed):
    return parsed, repr(parsed), render_query(parsed)


def _reference(sql):
    """The reference's ``(tokens, parse)`` outcomes, lexing once (its
    parser raises the lexer's error from its constructor)."""
    try:
        parser = parseref._Parser(sql)
    except Exception as error:  # noqa: BLE001 - the type is compared
        return _failure(error), _failure(error)
    return (("ok", _token_fields(parser._tokens)),
            _outcome(lambda: _rendered(parser.parse())))


def _expected_error(ref, sql):
    """The reference's error as the live parser raises it.

    The reference gave "qualified table name" no offset; the live
    parser adds the offset of the table-name token.
    """
    kind, error_type, message, position = ref
    if (error_type is ParseError and position is None
            and message.startswith("qualified table name ")):
        name = message.split("'")[1]
        offsets = [token.position for token in parseref.tokenize(sql)
                   if token.kind == "ident" and token.text == name]
        position = offsets[0]
        message = f"{message} (at offset {position})"
    return kind, error_type, message, position


def check(sql):
    """Assert the live front end equals the reference on ``sql``;
    returns whether it parsed."""
    ref_tokens, ref = _reference(sql)
    assert _outcome(lambda: _token_fields(live.tokenize(sql))) == (
        ref_tokens), sql
    result = _outcome(lambda: _rendered(live.parse_query(sql)))
    if ref[0] == "error":
        assert result == _expected_error(ref, sql), sql
        return False
    assert result[0] == "ok", (sql, result)
    ref_parsed, ref_repr, ref_text = ref[1]
    live_parsed, live_repr, live_text = result[1]
    assert live_parsed == ref_parsed, sql
    assert live_repr == ref_repr, sql
    assert live_text == ref_text, sql
    return True


def mutation_corpus(seed, count=MUTATIONS):
    """:data:`REQUIRED`, then ``count`` seeded mutations of JOB and
    generated SQL."""
    rng = random.Random(seed)
    bases = list(all_queries().values())
    bases += [query.sql for query in generate_corpus(seed, 40)]
    corpus = list(REQUIRED)
    while len(corpus) < len(REQUIRED) + count:
        sql = rng.choice(bases)
        for _ in range(rng.randint(1, 3)):
            op = rng.random()
            at = rng.randrange(len(sql) + 1)
            if op < 0.4:
                sql = sql[:at] + sql[at + rng.randint(1, 12):]
            elif op < 0.85:
                fragment = rng.choice(FRAGMENTS)
                if rng.random() < 0.5:
                    fragment = f" {fragment} "
                sql = sql[:at] + fragment + sql[at:]
            else:
                sql = sql[:at]
        corpus.append(sql)
    return corpus


def test_job_queries_match_reference():
    for sql in all_queries().values():
        assert check(sql)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_corpus_matches_reference(seed):
    for query in generate_corpus(seed, GENERATED):
        assert check(query.sql)


def test_required_inputs_match_reference():
    outcomes = {sql: check(sql) for sql in REQUIRED}
    # The required errors are errors, and the required valid forms parse.
    assert outcomes["SELECT t.a FROM title AS t   \n\t "]
    assert outcomes["SELECT t.a FROM title AS t WHERE NOT t.id = 1"]
    assert not outcomes["SELECT t.a FROM title AS t WHERE t.id NOT = 1"]
    assert not outcomes["SELECT t.a FROM title AS t LIMIT 1.5"]
    assert not outcomes["SELECT @ FROM title AS t"]


def test_qualified_table_name_carries_its_offset():
    sql = "SELECT t.a FROM title AS t, db.info AS i"
    with pytest.raises(ParseError) as caught:
        live.parse_query(sql)
    assert caught.value.position == sql.index("db.info")
    assert str(caught.value) == (
        f"qualified table name 'db.info' not supported "
        f"(at offset {sql.index('db.info')})")


def _check_corpus(seed):
    corpus = mutation_corpus(seed)
    parsed = sum(check(sql) for sql in corpus)
    # Mutations keep a share of valid queries, so both paths are hit.
    assert 0 < parsed < len(corpus)


def test_mutation_corpus_matches_reference():
    _check_corpus(0)


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(1, 9))
def test_mutation_corpus_matches_reference_many_seeds(seed):
    _check_corpus(seed)


def test_tokens_keep_their_fields():
    token = live.tokenize("SELECT x")[1]
    assert (token.kind, token.text, token.position) == ("ident", "x", 7)
