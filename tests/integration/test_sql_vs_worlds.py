"""SQL answers vs. possible worlds, executed literally.

The engine's one execution path is held to :mod:`repro.core` bit for bit
(``tests/engine/test_columnar_equivalence.py``); this file anchors that
path, from SQL text to result rows, to the paper's definition itself: a
fixed tiny discrete database is expanded into every possible world
(:mod:`repro.core.possible_worlds`), the query is run per world with
ordinary certain semantics, and the expected multiplicity of every result
row must equal what the engine's result pdfs and histories say.

The instance has one partial pdf (``r.k = 1`` is absent with probability
0.2) and one two-attribute dependency set (``s.{a, b}``).  The last two
queries are the ones where histories, not marginals, decide the answer: a
self-join on the uncertain attribute and a join of a materialised
selection back to its base table.

A second instance, ``d``, stores the paper's symbolic discrete families
(Bernoulli, Binomial, Poisson).  Its worlds come from their explicit
forms; what it checks is that a row whose true probability is 1 is never
lost to rounding or truncation under ``PROB(...) >= 1``.
"""

from dataclasses import replace

import pytest

from repro import Database
from repro.core import And, Comparison, Not, ProbabilisticRelation
from repro.core.possible_worlds import (
    enumerate_worlds,
    expected_multiplicities,
    model_multiplicities,
    multiplicities_match,
    world_join,
    world_project,
    world_select,
)
from repro.core.predicates import col
from repro.engine.sql import planner
from repro.errors import UnsupportedOperationError


def _fill(db):
    """The r / s instance."""
    db.execute("CREATE TABLE r (k INT, x REAL UNCERTAIN)")
    db.execute(
        "INSERT INTO r VALUES (1, DISCRETE(1: 0.3, 2: 0.5)), "
        "(2, DISCRETE(2: 0.5, 3: 0.5)), (3, DISCRETE(1: 1.0))"
    )
    db.execute(
        "CREATE TABLE s (k INT, a REAL UNCERTAIN, b REAL UNCERTAIN, DEPENDENCY (a, b))"
    )
    db.execute(
        "INSERT INTO s VALUES (1, JOINT_DISCRETE((1, 2): 0.6, (3, 1): 0.4)), "
        "(2, JOINT_DISCRETE((2, 2): 0.5, (3, 1): 0.25, (4, 3): 0.25))"
    )
    return db


@pytest.fixture(params=[256, 1], ids=["batch256", "batch1"])
def db(request, monkeypatch):
    monkeypatch.setattr(planner, "DEFAULT_BATCH_SIZE", request.param)
    return _fill(Database())


@pytest.fixture(params=["kept", "saved", "checkpointed", "replayed"])
def reopen(request, tmp_path):
    """``(db, back)``: an empty database and how it comes back after the
    statements a test runs on it — as it is, from ``save`` / ``open``, from
    a checkpoint, or by replaying its write-ahead log."""
    how = request.param
    path = str(tmp_path / "db")
    durable = how in ("checkpointed", "replayed")
    opened = [Database(path=path) if durable else Database()]

    def back(db):
        if how == "saved":
            db.save(path + ".rpdb")
            opened.append(Database.open(path + ".rpdb"))
        elif durable:
            if how == "checkpointed":
                db.checkpoint()
            db.close()
            opened.append(Database(path=path))
        return opened[-1]

    yield opened[0], back
    for db in opened:
        db.close()


def _relation(db, schema, tuples, name=None):
    rel = ProbabilisticRelation(schema, store=db.catalog.store, name=name)
    for t in tuples:
        rel.add_tuple(t, acquire=False)
    return rel


def _base(db, names=("r", "s")):
    """The stored base tables as relations over the database's own store."""
    return {
        name: _relation(
            db, db.table(name).schema, [t for _rid, t in db.table(name).scan()], name
        )
        for name in names
    }


def _assert_matches_worlds(db, sql, world_query, names=("r", "s"), base=None):
    if base is None:
        base = _base(db, names)  # before the query: its result must not change the base
    result = db.execute(sql)
    model = model_multiplicities(_relation(db, result.schema, result.rows))
    worlds = expected_multiplicities(base, world_query)
    assert worlds, "the query must return something in some world"
    assert multiplicities_match(model, worlds), (sql, model, worlds)


def _as(rows, binding):
    """World rows under a FROM-clause binding: ``k`` -> ``binding.k``."""
    return [{f"{binding}.{a}": v for a, v in row.items()} for row in rows]


def test_selection_over_partial_pdf(db):
    _assert_matches_worlds(
        db,
        "SELECT k, x FROM r WHERE x >= 2",
        lambda w: world_project(
            world_select(w["r"], Comparison("x", ">=", 2)), ["k", "x"]
        ),
    )


def test_equi_join_with_residual_uncertain_predicate(db):
    predicate = And(
        [Comparison("r.k", "=", col("s.k")), Comparison("r.x", "<", col("s.a"))]
    )
    _assert_matches_worlds(
        db,
        "SELECT r.k, x, a FROM r, s WHERE r.k = s.k AND x < a",
        lambda w: world_project(
            world_join(_as(w["r"], "r"), _as(w["s"], "s"), predicate),
            ["r.k", "r.x", "s.a"],
        ),
    )


def test_self_join_through_aliases(db):
    # Each tuple joins itself with its full mass (x = x in every world where
    # it exists); multiplying the marginals would give sum_v P(x = v)^2.
    _assert_matches_worlds(
        db,
        "SELECT p.k, q.k, p.x FROM r p, r q WHERE p.x = q.x",
        lambda w: world_project(
            world_join(
                _as(w["r"], "p"), _as(w["r"], "q"), Comparison("p.x", "=", col("q.x"))
            ),
            ["p.k", "q.k", "p.x"],
        ),
    )


def test_materialised_selection_joined_back_to_its_base(db):
    # hi.x is a floor of the very pdf r.x still holds: in every world the
    # two agree, which only the shared ancestor can tell the engine.
    db.execute("CREATE TABLE hi AS SELECT k, x FROM r WHERE x >= 2")

    def world_query(w):
        hi = world_project(world_select(w["r"], Comparison("x", ">=", 2)), ["k", "x"])
        joined = world_join(
            _as(hi, "hi"), _as(w["r"], "r"), Comparison("hi.k", "=", col("r.k"))
        )
        return world_project(joined, ["hi.k", "hi.x", "r.x"])

    _assert_matches_worlds(
        db, "SELECT hi.k, hi.x, r.x FROM hi, r WHERE hi.k = r.k", world_query
    )


def test_self_join_through_a_third_table(db):
    # p and q are one r row wherever p.k = s.k = q.k: p.x and q.x agree in
    # every world, which only their shared ancestor tells a chain of two
    # hash joins.
    on_s, on_q = Comparison("p.k", "=", col("s.k")), Comparison("s.k", "=", col("q.k"))

    def world_query(w):
        joined = world_join(
            world_join(_as(w["r"], "p"), _as(w["s"], "s"), on_s), _as(w["r"], "q"), on_q
        )
        return world_project(joined, ["p.k", "p.x", "q.x", "s.a"])

    _assert_matches_worlds(
        db,
        "SELECT p.k, p.x, q.x, s.a FROM r p, s, r q WHERE p.k = s.k AND s.k = q.k",
        world_query,
    )


def test_materialisation_joined_to_its_base_and_a_third_table(db):
    # hi.x floors the pdf r.x holds; s joins on the same key.
    db.execute("CREATE TABLE hi AS SELECT k, x FROM r WHERE x >= 2")

    def world_query(w):
        hi = world_project(world_select(w["r"], Comparison("x", ">=", 2)), ["k", "x"])
        joined = world_join(
            world_join(_as(hi, "hi"), _as(w["r"], "r"), Comparison("hi.k", "=", col("r.k"))),
            _as(w["s"], "s"),
            Comparison("r.k", "=", col("s.k")),
        )
        return world_project(joined, ["hi.k", "hi.x", "r.x", "s.b"])

    _assert_matches_worlds(
        db,
        "SELECT hi.k, hi.x, r.x, s.b FROM hi, r, s WHERE hi.k = r.k AND r.k = s.k",
        world_query,
    )


def test_three_table_keyless_join_on_uncertain_equalities(db):
    # No certain equality ties the tables: two keyless hash joins, and the
    # uncertain equalities select over all 18 candidate triples.
    first, second = Comparison("p.x", "=", col("q.x")), Comparison("q.x", "=", col("s.a"))

    def world_query(w):
        joined = world_join(
            world_join(_as(w["r"], "p"), _as(w["r"], "q"), first),
            _as(w["s"], "s"),
            second,
        )
        return world_project(joined, ["p.k", "q.k", "s.k", "p.x"])

    sql = "SELECT p.k, q.k, s.k, p.x FROM r p, r q, s WHERE p.x = q.x AND q.x = s.a"
    assert db.execute("EXPLAIN " + sql).plan_text.count("HashJoin(TRUE)") == 2
    _assert_matches_worlds(db, sql, world_query)


def _hi_self_join(w):
    hi = world_project(world_select(w["r"], Comparison("x", ">=", 2)), ["k", "x"])
    joined = world_join(_as(hi, "a"), _as(hi, "b"), Comparison("a.k", "=", col("b.k")))
    return world_project(joined, ["a.k", "a.x", "b.x"])


_HI_SELF_JOIN = "SELECT a.k, a.x, b.x FROM hi a, hi b WHERE a.k = b.k"


def test_materialised_selection_after_its_base_is_deleted(reopen):
    # Once r's rows are gone, hi.x's ancestor lives on only as a phantom;
    # a.x and b.x of one hi row agree in every world through it.
    db, back = reopen
    _fill(db)
    db.execute("CREATE TABLE hi AS SELECT k, x FROM r WHERE x >= 2")
    base = _base(db, ("r",))
    db.execute("DELETE FROM r")
    db = back(db)
    _assert_matches_worlds(db, _HI_SELF_JOIN, _hi_self_join, base=base)


def test_rolled_back_delete_brings_the_phantoms_back(db):
    # Deleting hi's rows drops the last references to r's deleted rows;
    # the rollback must restore those phantoms with the rows.
    db.execute("CREATE TABLE hi AS SELECT k, x FROM r WHERE x >= 2")
    base = _base(db, ("r",))
    db.execute("DELETE FROM r")
    before = db.execute(_HI_SELF_JOIN)
    db.execute("BEGIN")
    db.execute("DELETE FROM hi")
    db.execute("ROLLBACK")
    after = db.execute(_HI_SELF_JOIN)
    assert multiplicities_match(
        model_multiplicities(_relation(db, after.schema, after.rows)),
        model_multiplicities(_relation(db, before.schema, before.rows)),
    )
    _assert_matches_worlds(db, _HI_SELF_JOIN, _hi_self_join, base=base)


def test_self_join_after_a_rolled_back_delete_and_an_insert(db):
    # The rollback puts r's first row in a new slot and the insert adds a
    # row: the second self-join must find both ancestors anyway.
    sql = "SELECT p.k, q.k, p.x FROM r p, r q WHERE p.x = q.x"

    def world_query(w):
        joined = world_join(_as(w["r"], "p"), _as(w["r"], "q"), Comparison("p.x", "=", col("q.x")))
        return world_project(joined, ["p.k", "q.k", "p.x"])

    _assert_matches_worlds(db, sql, world_query)
    db.execute("BEGIN")
    db.execute("DELETE FROM r WHERE k = 1")
    db.execute("ROLLBACK")
    db.execute("INSERT INTO r VALUES (4, DISCRETE(2: 0.4, 3: 0.6))")
    _assert_matches_worlds(db, sql, world_query)


def test_self_join_after_a_certain_only_materialisation(reopen):
    # f.x is never partial, so c's rows read no set of f and link to no
    # ancestor; they must not hide f's records from the self-join, whose
    # record map the insert makes stale.
    db, back = reopen
    db.execute("CREATE TABLE f (k INT, x REAL UNCERTAIN)")
    db.execute("INSERT INTO f VALUES (1, DISCRETE(1: 0.5, 2: 0.5)), (2, DISCRETE(2: 1.0))")
    db.execute("CREATE TABLE c AS SELECT k FROM f")
    db = back(db)
    db.execute("INSERT INTO f VALUES (3, DISCRETE(1: 0.25, 2: 0.75))")

    def world_query(w):
        joined = world_join(_as(w["f"], "p"), _as(w["f"], "q"), Comparison("p.x", "=", col("q.x")))
        return world_project(joined, ["p.k", "q.k", "p.x"])

    _assert_matches_worlds(
        db, "SELECT p.k, q.k, p.x FROM f p, f q WHERE p.x = q.x", world_query, names=("f",)
    )


def test_unnamed_partial_set_survives_a_join_and_its_materialisation(db):
    # The query names no uncertain attribute.  r.x is partial (r.k = 1 is
    # absent with probability 0.2), so the join must carry it as a phantom;
    # s.{a, b} has full mass, so it may go.  PROB(*) over a stored copy of
    # the join must still see the 0.2.
    sql = "SELECT r.k AS rk, s.k AS sk FROM r, s WHERE r.k = s.k"

    def world_query(w):
        joined = world_join(
            _as(w["r"], "r"), _as(w["s"], "s"), Comparison("r.k", "=", col("s.k"))
        )
        return [{"rk": row["r.k"], "sk": row["s.k"]} for row in joined]

    _assert_matches_worlds(db, sql, world_query)
    assert db.execute(sql).schema.dependency == (frozenset({"r.x"}),)

    worlds = expected_multiplicities(_base(db), world_query)
    db.execute("CREATE TABLE j AS " + sql)
    _assert_matches_worlds(db, "SELECT rk, sk FROM j", world_query)
    for p in (0.5, 0.9):
        got = {t.certain["rk"] for t in db.execute(f"SELECT rk FROM j WHERE PROB(*) >= {p}")}
        want = {dict(key)["rk"] for key, m in worlds.items() if m >= p}
        assert got == want, (p, got, want)


def test_prob_of_a_column_comparison_and_a_constant(db):
    # a < b is a predicate region, a > 0.5 a box: their AND is an
    # intersection region over the joint pdf of s.{a, b}.
    def world_query(w):
        return [{"k": row["k"]} for row in w["s"] if row["a"] < row["b"] and row["a"] > 0.5]

    worlds = expected_multiplicities(_base(db), world_query)
    for p in (0.2, 0.5, 0.7):
        sql = f"SELECT k FROM s WHERE PROB(a < b AND a > 0.5) > {p}"
        got = {t.certain["k"] for t in db.execute(sql)}
        want = {dict(key)["k"] for key, m in worlds.items() if m > p}
        assert got == want, (p, got, want)
    assert {dict(key)["k"] for key in worlds} == {1}


@pytest.mark.parametrize("p_inner, p_exists", [(0.3, 0.2), (0.3, 0.6), (0.5, 0.2)])
def test_value_conjunct_and_two_prob_terms(db, p_inner, p_exists):
    # One Filter: x <= a floors the joined row, then PROB(a >= 2) and
    # PROB(*) measure that floored row and keep it unfloored.  Per key 1 / 2:
    # PROB(a >= 2) reads 0.32 / 0.75, PROB(*) 0.5 / 0.75, so the last two
    # cases drop key 1, each through one term.
    value = And([Comparison("r.k", "=", col("s.k")), Comparison("r.x", "<=", col("s.a"))])

    def joined(w):
        return world_join(_as(w["r"], "r"), _as(w["s"], "s"), value)

    def key_probability(test):
        worlds = expected_multiplicities(
            base, lambda w: [{"k": row["r.k"]} for row in joined(w) if test(row)]
        )
        return {dict(key)["k"]: m for key, m in worlds.items()}

    base = _base(db)
    inner = key_probability(lambda row: row["s.a"] >= 2)
    exists = key_probability(lambda row: True)
    keep = {k for k in exists if inner.get(k, 0.0) > p_inner and exists[k] > p_exists}
    assert keep == ({1, 2} if p_exists < 0.5 and p_inner < 0.32 else {2})
    _assert_matches_worlds(
        db,
        "SELECT r.k, x, a FROM r, s WHERE r.k = s.k AND x <= a"
        f" AND PROB(a >= 2) > {p_inner} AND PROB(*) > {p_exists}",
        lambda w: world_project(
            [row for row in joined(w) if row["r.k"] in keep], ["r.k", "r.x", "s.a"]
        ),
        base=base,
    )


def test_negated_column_comparison(db):
    # NOT (a < b) floors s.{a, b} with the complement of a predicate region.
    _assert_matches_worlds(
        db,
        "SELECT k, a, b FROM s WHERE NOT (a < b)",
        lambda w: world_project(
            world_select(w["s"], Not(Comparison("a", "<", col("b")))), ["k", "a", "b"]
        ),
    )


@pytest.fixture(params=[256, 1], ids=["batch256", "batch1"])
def sym(request, monkeypatch):
    monkeypatch.setattr(planner, "DEFAULT_BATCH_SIZE", request.param)
    db = Database()
    db.execute("CREATE TABLE d (k INT, b REAL UNCERTAIN, n REAL UNCERTAIN)")
    db.execute(
        "INSERT INTO d VALUES (1, BERNOULLI(0.5), BINOMIAL(3, 0.4)), "
        "(2, BERNOULLI(0.9), POISSON(2)), "
        "(3, DISCRETE(0: 0.25, 1: 0.5), BINOMIAL(2, 0.5)), "
        "(4, BERNOULLI(1), BINOMIAL(10, 0.3))"
    )
    return db


#: a row "certainly" qualifies when its worlds say so up to the mass the
#: explicit forms drop (< 1e-11) and floating-point rounding
_CERTAIN = 1 - 1e-9


def _certain_keys(db, world_query):
    worlds = expected_multiplicities(_base(db, ("d",)), world_query)
    return {dict(key)["k"] for key, m in worlds.items() if m >= _CERTAIN}


#: a PROB term -> the same condition on a world's row
_PROB_TERMS = {
    "PROB(*)": lambda row: True,
    "PROB(n >= 0)": lambda row: row["n"] >= 0,
    "PROB(b >= 0 AND n >= 0)": lambda row: row["b"] >= 0 and row["n"] >= 0,
    "PROB(n < 3)": lambda row: row["n"] < 3,
}


@pytest.mark.parametrize("prob", list(_PROB_TERMS))
def test_symbolic_discrete_certain_rows_pass_a_threshold_of_one(sym, prob):
    def world_query(w):
        return [{"k": row["k"]} for row in w["d"] if _PROB_TERMS[prob](row)]

    want = _certain_keys(sym, world_query)
    got = {t.certain["k"] for t in sym.execute(f"SELECT k FROM d WHERE {prob} >= 1")}
    assert got == want, (prob, got, want)
    if prob != "PROB(n < 3)":
        assert {1, 2, 4} <= got  # full-mass rows: rounding must not drop them


_WHERE = {
    "n >= 0": Comparison("n", ">=", 0),
    "n < 2": Comparison("n", "<", 2),
    "b = 1 AND n >= 1": And([Comparison("b", "=", 1), Comparison("n", ">=", 1)]),
}


@pytest.mark.parametrize("where", list(_WHERE))
def test_symbolic_discrete_selection(sym, where):
    predicate = _WHERE[where]
    _assert_matches_worlds(
        sym,
        f"SELECT k, b, n FROM d WHERE {where}",
        lambda w: world_project(world_select(w["d"], predicate), ["k", "b", "n"]),
        names=("d",),
    )


def test_symbolic_discrete_covering_selection_keeps_the_symbolic_pdf(sym):
    rows = {t.certain["k"]: t for t in sym.execute("SELECT k, n FROM d WHERE n >= 0")}
    assert repr(rows[2].pdfs[frozenset({"n"})]) == "POISSON(2)@n"
    assert repr(rows[4].pdfs[frozenset({"n"})]) == "BINOMIAL(10, 0.3)@n"


# ---------------------------------------------------------------------------
# Aggregates: a tuple exists only when every one of its sets drew a value
# ---------------------------------------------------------------------------


@pytest.fixture
def two_sets(db):
    """``t.a`` and ``t.b`` are independent sets of one tuple, each partial
    somewhere: a tuple's share of SUM(a) hangs on ``b`` too."""
    db.execute("CREATE TABLE t (k INT, a REAL UNCERTAIN, b REAL UNCERTAIN)")
    db.execute(
        "INSERT INTO t VALUES (1, DISCRETE(10: 1.0), DISCRETE(1: 0.5)), "
        "(2, DISCRETE(2: 0.6, 3: 0.2), DISCRETE(0: 1.0)), "
        "(3, DISCRETE(5: 0.5, 7: 0.5), DISCRETE(1: 0.3, 2: 0.6))"
    )
    return db


def _world_sum(db, names, values_of, base=None):
    """The distribution of ``sum(values_of(world))`` over the worlds."""
    dist = {}
    for world in enumerate_worlds(base or _base(db, names)):
        total = float(sum(values_of(world.relations)))
        dist[total] = dist.get(total, 0.0) + world.probability
    return dist


def _assert_sum_matches_worlds(db, sql, names, values_of, base=None):
    (row,) = db.execute(sql.format(func="SUM")).rows
    (pdf,) = row.pdfs.values()
    got = {v: p for v, p in pdf.items() if p > 1e-15}
    want = _world_sum(db, names, values_of, base)
    assert got.keys() == want.keys() and all(
        abs(got[v] - want[v]) <= 1e-9 for v in want
    ), (got, want)
    (row,) = db.execute(sql.format(func="EXPECTED")).rows
    (expected,) = row.certain.values()
    assert expected == pytest.approx(sum(v * p for v, p in want.items()), abs=1e-9)


def test_sum_and_expected_weigh_a_tuple_by_its_other_sets(two_sets):
    _assert_sum_matches_worlds(
        two_sets, "SELECT {func}(a) FROM t", ("t",), lambda w: [row["a"] for row in w["t"]]
    )
    (row,) = two_sets.execute("SELECT EXPECTED(a) FROM t WHERE k = 1").rows
    assert row.certain["expected_a"] == pytest.approx(5.0)  # 10 x P(b drew a value)


def test_sum_over_a_set_dependent_on_another_of_its_tuple(db):
    # p.x and q.x are one base pdf renamed twice; q's floor decides whether
    # the row exists, and in every world where it does p.x = q.x >= 2.
    _assert_sum_matches_worlds(
        db,
        "SELECT {func}(p.x) FROM r p, r q WHERE p.k = q.k AND q.x >= 2",
        ("r",),
        lambda w: [
            row["p.x"]
            for row in world_join(
                _as(w["r"], "p"),
                _as(world_select(w["r"], Comparison("x", ">=", 2)), "q"),
                Comparison("p.k", "=", col("q.k")),
            )
        ],
    )


def _fill_w(db):
    db.execute("CREATE TABLE w (k INT, a REAL UNCERTAIN, b REAL UNCERTAIN, c REAL UNCERTAIN)")
    db.execute(
        "INSERT INTO w VALUES "
        "(1, DISCRETE(10: 1.0), DISCRETE(1: 0.5), DISCRETE(4: 0.5, 5: 0.5)), "
        "(2, DISCRETE(2: 0.6, 3: 0.4), DISCRETE(0: 0.7, 1: 0.1), DISCRETE(4: 1.0)), "
        "(3, DISCRETE(5: 0.5, 7: 0.5), DISCRETE(2: 1.0), DISCRETE(6: 0.25, 7: 0.75))"
    )
    return db


@pytest.fixture
def phantoms(db):
    """``w.b`` is partial and never named below; ``w.a`` and ``w.c`` have
    full mass in every row, so an aggregate reads ``b`` unasked and skips
    whichever of ``a`` / ``c`` it does not name."""
    return _fill_w(db)


def _assert_count_matches_worlds(db, sql, names, rows_of, base=None):
    (row,) = db.execute(sql).rows
    (pdf,) = row.pdfs.values()
    got = {v: p for v, p in pdf.items() if p > 1e-15}
    want = _world_sum(db, names, lambda w: [1 for _ in rows_of(w)], base)
    assert got.keys() == want.keys() and all(
        abs(got[v] - want[v]) <= 1e-9 for v in want
    ), (got, want)


def _scan_sets(db, sql):
    """The ``sets=K/N`` token of the statement's one scan."""
    words = db.execute("EXPLAIN " + sql).plan_text.replace("[", " ").replace("]", " ").split()
    (token,) = (word for word in words if word.startswith("sets="))
    return token


def test_aggregates_weigh_every_row_by_an_unnamed_partial_set(phantoms):
    # Each row exists with b's mass (0.5, 0.8, 1): a read set without the
    # partial b would count three rows in every world and give a its full
    # weight.
    assert _scan_sets(phantoms, "SELECT COUNT(*) FROM w") == "sets=1/3"
    _assert_count_matches_worlds(phantoms, "SELECT COUNT(*) FROM w", ("w",), lambda w: w["w"])
    assert _scan_sets(phantoms, "SELECT SUM(a) FROM w") == "sets=2/3"
    _assert_sum_matches_worlds(
        phantoms, "SELECT {func}(a) FROM w", ("w",), lambda w: [row["a"] for row in w["w"]]
    )


def test_aggregate_over_a_stored_self_join(phantoms):
    # pa and qa are one base pdf of each row, pb and the phantom q.b another.
    # An aggregate of pa skips the full-mass qa, which shares pa's ancestor,
    # and reads pb and q.b, whose shared ancestor makes the row exist with
    # b's mass once, not squared.
    phantoms.execute(
        "CREATE TABLE sj AS SELECT p.k AS k, p.a AS pa, q.a AS qa, p.b AS pb "
        "FROM w p, w q WHERE p.k = q.k"
    )

    def joined(w):
        return world_join(_as(w["w"], "p"), _as(w["w"], "q"), Comparison("p.k", "=", col("q.k")))

    assert _scan_sets(phantoms, "SELECT COUNT(*) FROM sj") == "sets=2/4"
    _assert_count_matches_worlds(phantoms, "SELECT COUNT(*) FROM sj", ("w",), joined)
    assert _scan_sets(phantoms, "SELECT SUM(pa) FROM sj") == "sets=3/4"
    _assert_sum_matches_worlds(
        phantoms, "SELECT {func}(pa) FROM sj", ("w",), lambda w: [row["p.a"] for row in joined(w)]
    )


def test_aggregate_over_a_stored_self_join_after_its_base_is_deleted(reopen):
    # The same aggregates once w's rows are gone: the ancestors pa / qa and
    # pb / q.b share are phantoms.
    db, back = reopen
    _fill_w(db)
    db.execute(
        "CREATE TABLE sj AS SELECT p.k AS k, p.a AS pa, q.a AS qa, p.b AS pb "
        "FROM w p, w q WHERE p.k = q.k"
    )
    base = _base(db, ("w",))
    db.execute("DELETE FROM w")
    db = back(db)

    def joined(w):
        return world_join(_as(w["w"], "p"), _as(w["w"], "q"), Comparison("p.k", "=", col("q.k")))

    _assert_count_matches_worlds(db, "SELECT COUNT(*) FROM sj", ("w",), joined, base)
    _assert_sum_matches_worlds(
        db,
        "SELECT {func}(pa) FROM sj",
        ("w",),
        lambda w: [row["p.a"] for row in joined(w)],
        base,
    )


@pytest.mark.parametrize("work_mem", [None, 1], ids=["in_memory", "work_mem_1"])
@pytest.mark.parametrize("where", ["", "WHERE x >= 2"], ids=["all", "floored"])
def test_count_per_group(db, work_mem, where):
    # Rows of one k exist independently, each with its partial pdf's mass
    # (after the WHERE floors it, with the mass left at x >= 2): a group's
    # COUNT is the number of its rows in a world, 0 included.
    db.execute("CREATE TABLE g (k INT, x REAL UNCERTAIN)")
    db.execute(
        "INSERT INTO g VALUES (1, DISCRETE(1: 0.5)), (2, DISCRETE(2: 0.3, 3: 0.6)), "
        "(1, DISCRETE(2: 0.8)), (2, DISCRETE(1: 0.5, 4: 0.5)), (1, DISCRETE(3: 1.0))"
    )
    db.catalog.config = replace(db.catalog.config, work_mem=work_mem)
    text = db.execute(f"EXPLAIN ANALYZE SELECT k, COUNT(*) FROM g {where} GROUP BY k").plan_text
    assert ("sort_runs=" in text) == (work_mem == 1), text
    rows = db.execute(f"SELECT k, COUNT(*) FROM g {where} GROUP BY k").rows
    assert sorted(row.certain["k"] for row in rows) == [1, 2]
    kept = world_select if where else (lambda rows, _pred: rows)
    for row in rows:
        (pdf,) = row.pdfs.values()
        got = {v: p for v, p in pdf.items() if p > 1e-15}
        want = _world_sum(
            db,
            ("g",),
            lambda w, k=row.certain["k"]: [
                1 for r in kept(w["g"], Comparison("x", ">=", 2)) if r["k"] == k
            ],
        )
        assert got.keys() == want.keys() and all(
            abs(got[v] - want[v]) <= 1e-9 for v in want
        ), (row.certain, got, want)


def test_min_max_need_every_set_of_a_tuple_to_exist(two_sets):
    # a has full mass in tuple 1, but tuple 1 exists only with b's 0.5
    with pytest.raises(UnsupportedOperationError, match="full-mass"):
        two_sets.execute("SELECT MAX(a) FROM t WHERE k = 1")
    with pytest.raises(UnsupportedOperationError, match="full-mass"):
        two_sets.execute("SELECT MIN(a) FROM t WHERE k = 2")
    two_sets.execute("CREATE TABLE full (k INT, a REAL UNCERTAIN, b REAL UNCERTAIN)")
    two_sets.execute("INSERT INTO full VALUES (1, UNIFORM(0, 4), DISCRETE(0: 1.0))")
    (row,) = two_sets.execute("SELECT MAX(a) FROM full").rows
    assert row.pdfs[frozenset({"max_a"})].mass() == pytest.approx(1.0)


@pytest.mark.parametrize("order", ["e", "grp"])
def test_count_and_expected_per_aliased_group(db, order):
    # The group column under an alias: a group's COUNT is the number of its
    # rows in a world and EXPECTED(x) the mean over worlds of their x summed.
    # Groups appear as k = 2, 3, 1; by e they come 3, 2, 1, by grp 1, 2, 3.
    db.execute("CREATE TABLE g (k INT, x REAL UNCERTAIN)")
    db.execute(
        "INSERT INTO g VALUES (2, DISCRETE(2: 0.3, 3: 0.6)), (3, DISCRETE(1: 0.25)), "
        "(2, DISCRETE(1: 0.5, 4: 0.5)), (1, DISCRETE(1: 0.5)), (1, DISCRETE(2: 0.8)), "
        "(1, DISCRETE(3: 1.0))"
    )
    sql = f"SELECT k AS grp, COUNT(*) AS n, EXPECTED(x) AS e FROM g GROUP BY k ORDER BY {order}"
    result = db.execute(sql)
    assert list(result.columns) == ["grp", "n", "e"]
    want_e = {}
    for row in result.rows:
        k = row.certain["grp"]
        counts = _world_sum(db, ("g",), lambda w: [1 for r in w["g"] if r["k"] == k])
        got = {v: p for v, p in row.pdfs[frozenset({"n"})].items() if p > 1e-15}
        assert got.keys() == counts.keys() and all(
            abs(got[v] - counts[v]) <= 1e-9 for v in counts
        ), (k, got, counts)
        sums = _world_sum(db, ("g",), lambda w: [r["x"] for r in w["g"] if r["k"] == k])
        want_e[k] = sum(v * p for v, p in sums.items())
        assert row.certain["e"] == pytest.approx(want_e[k], abs=1e-9)
    order_of = want_e.get if order == "e" else None
    assert [row.certain["grp"] for row in result.rows] == sorted(want_e, key=order_of)
    assert [row.certain["grp"] for row in result.rows] == ([3, 2, 1] if order == "e" else [1, 2, 3])
