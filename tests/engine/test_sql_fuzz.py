"""Grammar-driven SQL fuzzing: any input, only :class:`ReproError` out.

Two layers of generation feed ``Database.execute``:

* a *grammar* strategy composing syntactically plausible statements from
  the dialect's productions (often valid, sometimes semantically wrong —
  unknown tables, arity errors, bad thresholds);
* raw token soup and mutations of a seed corpus (``sql_corpus/``), which
  are almost never valid and stress the lexer/parser error paths.

The engine contract under fuzzing: every failure is a ``ReproError``
subclass — never a bare ``Exception``, ``TypeError``, numpy warning
escalation, or interpreter-level crash — and a failed statement leaves
the database consistent (autocommit rollback).
"""

from __future__ import annotations

import os

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.engine.executor import Operator
from repro.engine.sql import ast, planner
from repro.engine.sql.parser import parse
from repro.errors import ReproError

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "sql_corpus")


def corpus_statements():
    out = []
    for name in sorted(os.listdir(CORPUS_DIR)):
        if not name.endswith(".sql"):
            continue
        with open(os.path.join(CORPUS_DIR, name)) as f:
            for line in f:
                line = line.strip()
                if line and not line.startswith("--"):
                    out.append(line.rstrip(";"))
    return out


CORPUS = corpus_statements()


def test_corpus_exists_and_is_nontrivial():
    assert len(CORPUS) >= 12


# ---------------------------------------------------------------------------
# Grammar strategies
# ---------------------------------------------------------------------------

_names = st.sampled_from(["t", "s", "r", "missing", "T", "x1"])
_attrs = st.sampled_from(["a", "b", "v", "temp", "nope", "rid"])
_numbers = st.one_of(
    st.integers(-100, 100),
    st.floats(
        min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
    ),
)


@st.composite
def _pdf_expr(draw):
    kind = draw(st.integers(0, 4))
    a = draw(_numbers)
    b = draw(_numbers)
    if kind == 0:
        return f"GAUSSIAN({a}, {b})"
    if kind == 1:
        return f"UNIFORM({a}, {b})"
    if kind == 2:
        p = draw(st.floats(min_value=-0.5, max_value=1.5))
        return f"DISCRETE({a}:{p}, {b}:{1.0 - p})"
    if kind == 3:
        return f"HISTOGRAM(0, {a}, {b} ; 0.5, 0.5)"
    return f"JOINT_GAUSSIAN([{a}, {b}], [[1, 0.5], [0.5, 1]])"


@st.composite
def _predicate(draw):
    attr = draw(_attrs)
    op = draw(st.sampled_from([">", "<", ">=", "<=", "="]))
    val = draw(_numbers)
    base = f"{attr} {op} {val}"
    if draw(st.booleans()):
        attr2 = draw(_attrs)
        conj = draw(st.sampled_from(["AND", "OR"]))
        base = f"{base} {conj} {attr2} {op} {val}"
    return base


_SELECT_ITEMS = st.sampled_from(
    ["rid", "a", "rid AS a", "a AS x", "v", "*", "COUNT(*)", "COUNT(*) AS n",
     "EXPECTED(v) AS e", "SUM(v)", "MEAN(v)", "MEAN(v) AS m", "VARIANCE(v) AS a", "MASS(v)"]
)


@st.composite
def _select(draw, names=_names):
    """A SELECT over the select-list grammar: columns, aggregates and MEAN /
    VARIANCE / MASS, aliased or not, under GROUP BY or not, ordered by an
    output alias, an aggregate alias, an unselected FROM column or a
    qualified column that an alias (``rid AS a``) shadows."""
    name = draw(names)
    items = ", ".join(draw(st.lists(_SELECT_ITEMS, min_size=1, max_size=3)))
    distinct = draw(st.sampled_from(["", "DISTINCT "]))
    group = draw(st.sampled_from(["", " GROUP BY rid", " GROUP BY a"]))
    order = draw(
        st.sampled_from(
            ["", " ORDER BY x", " ORDER BY n", " ORDER BY e DESC", " ORDER BY m", " ORDER BY a",
             " ORDER BY b", f" ORDER BY {name}.a", " ORDER BY rid, x", " ORDER BY PROB(*)"]
        )
    )
    return f"SELECT {distinct}{items} FROM {name}{group}{order}"


@st.composite
def _statement(draw):
    kind = draw(st.integers(0, 10))
    name = draw(_names)
    attr = draw(_attrs)
    if kind == 0:
        extra = draw(st.sampled_from(["", " UNCERTAIN"]))
        dep = draw(st.sampled_from(["", f", DEPENDENCY ({attr}, b)"]))
        return f"CREATE TABLE {name} (rid INT, {attr} REAL{extra}{dep})"
    if kind == 1:
        pdf = draw(_pdf_expr())
        return f"INSERT INTO {name} VALUES ({draw(_numbers)}, {pdf})"
    if kind == 2:
        pred = draw(_predicate())
        return f"SELECT rid, {attr} FROM {name} WHERE {pred}"
    if kind == 3:
        p = draw(st.floats(min_value=-1, max_value=2))
        op = draw(st.sampled_from([">", ">=", "<", "<="]))
        inner = draw(st.sampled_from(["*", f"{attr} > {draw(_numbers)}"]))
        return f"SELECT rid FROM {name} WHERE PROB({inner}) {op} {p}"
    if kind == 4:
        # SPATIAL INDEX left the dialect; it stays in the grammar as a negative
        idx = draw(st.sampled_from(["INDEX", "PROB INDEX", "SPATIAL INDEX"]))
        return f"CREATE {idx} ON {name} ({attr})"
    if kind == 5:
        return draw(
            st.sampled_from(
                [
                    f"DROP TABLE {name}",
                    "BEGIN",
                    "COMMIT",
                    "ROLLBACK",
                ]
            )
        )
    if kind == 6:
        pred = draw(_predicate())
        return f"DELETE FROM {name} WHERE {pred}"
    if kind == 7:
        pdf = draw(_pdf_expr())
        return f"UPDATE {name} SET {attr} = {pdf} WHERE rid = {draw(_numbers)}"
    if kind == 8:
        agg = draw(st.sampled_from(["COUNT(*)", f"SUM({attr})", f"AVG({attr})"]))
        group = draw(st.sampled_from(["", " GROUP BY rid"]))
        return f"SELECT {agg} FROM {name}{group}"
    if kind == 9:
        return draw(_select())
    return f"CREATE TABLE {name}2 AS SELECT rid FROM {name} WHERE PROB(*) >= 0.5"


def _mutate(sql: str, cut: int, insert: str) -> str:
    pos = cut % (len(sql) + 1)
    return sql[:pos] + insert + sql[pos:]


_FUZZ_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _check(db: Database, sql: str) -> None:
    try:
        db.execute(sql)
    except ReproError:
        pass  # the only admissible failure
    # anything else propagates and fails the test


@given(stmts=st.lists(_statement(), min_size=1, max_size=8))
@_FUZZ_SETTINGS
def test_grammar_fuzz_only_repro_errors(stmts):
    db = Database()
    for sql in stmts:
        _check(db, sql)


@given(stmts=st.lists(_select(st.just("t")), min_size=1, max_size=6))
@_FUZZ_SETTINGS
def test_select_list_fuzz_only_repro_errors(stmts):
    """The select-list grammar over a table it names: every statement
    answers or raises a ``ReproError``."""
    db = Database()
    db.execute("CREATE TABLE t (rid INT, a INT, b TEXT, v REAL UNCERTAIN)")
    db.execute(
        "INSERT INTO t VALUES (1, 2, 'x', GAUSSIAN(0, 1)), (2, 2, 'y', DISCRETE(1: 0.5)), "
        "(3, 1, 'x', UNIFORM(0, 4))"
    )
    for sql in stmts:
        _check(db, sql)


@given(
    seed=st.sampled_from(CORPUS) if CORPUS else st.just(""),
    cut=st.integers(0, 500),
    junk=st.sampled_from(
        ["(", ")", ",", ";", "''", "PROB", "SELECT", "\x00", "🙂", "1e999", "--", "'"]
    ),
)
@_FUZZ_SETTINGS
def test_corpus_mutation_fuzz(seed, cut, junk):
    db = Database()
    for sql in CORPUS[:4]:
        _check(db, sql)  # a little live schema for the mutants to hit
    _check(db, _mutate(seed, cut, junk))


@given(
    soup=st.text(
        alphabet=st.sampled_from(
            list("SELECTFROMWHEREPROB()*<>=.,;'\"0123456789 abcxyz\n\t-+[]:")
        ),
        max_size=80,
    )
)
@_FUZZ_SETTINGS
def test_token_soup_never_escapes(soup):
    _check(Database(), soup)


@given(stmts=st.lists(_statement(), min_size=2, max_size=6))
@_FUZZ_SETTINGS
def test_failed_statements_leave_database_consistent(stmts):
    """A failing statement must roll back: the dump before equals the
    dump after, and the database still answers queries."""
    db = Database()
    db.execute("CREATE TABLE base (rid INT, v REAL UNCERTAIN)")
    db.execute("INSERT INTO base VALUES (1, GAUSSIAN(0, 1))")
    for sql in stmts:
        before = db.dump_state()
        try:
            db.execute(sql)
        except ReproError:
            if not db.catalog.txn.active:
                assert db.dump_state() == before
    if db.catalog.txn.active:
        db.abort()
    assert db.execute("SELECT rid FROM base").rowcount >= 0


def test_corpus_replays_clean():
    """Every corpus statement is dialect-valid against the seed schema."""
    db = Database()
    for sql in CORPUS:
        db.execute(sql)


def test_corpus_builds_every_planner_operator():
    """Every operator the planner can build has a documented statement: the
    plans of the corpus's SELECTs (bare, under EXPLAIN, inside CREATE TABLE
    AS) together use each ``Operator`` subclass ``planner.py`` imports."""
    db = Database()
    seen = set()

    def walk(op):
        seen.add(type(op))
        for child in op.children():
            walk(child)

    for sql in CORPUS:
        stmt = parse(sql)
        query = stmt if isinstance(stmt, ast.Select) else getattr(stmt, "query", None)
        if query is not None:
            walk(planner.plan_select(db.catalog, query))
        db.execute(sql)
    buildable = {
        cls
        for cls in vars(planner).values()
        if isinstance(cls, type) and issubclass(cls, Operator) and cls is not Operator
    }
    assert not {cls.__name__ for cls in buildable - seen}


def test_explain_analyze_counts_rows_on_every_node_of_every_corpus_select():
    """docs/SQL.md: EXPLAIN ANALYZE "annotates actual row counts" — on every
    operator of the plan, not on scans and filters only."""
    db = Database()
    explained = 0
    for sql in CORPUS:
        if sql.startswith("SELECT"):
            text = db.execute("EXPLAIN ANALYZE " + sql).plan_text
            bare = [line for line in text.splitlines() if "actual=" not in line]
            assert not bare, f"{sql}\n{text}"
            explained += 1
        db.execute(sql)
    assert explained >= 20
