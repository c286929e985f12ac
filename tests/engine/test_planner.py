"""Planner tests: plan shapes via EXPLAIN for every feature."""

import pytest

from repro import Database
from repro.errors import QueryError


@pytest.fixture
def db():
    db = Database()
    db.execute("CREATE TABLE r (rid INT, site TEXT, value REAL UNCERTAIN)")
    db.execute(
        "INSERT INTO r VALUES (1, 'a', GAUSSIAN(10, 1)), (2, 'b', GAUSSIAN(50, 1))"
    )
    db.execute("CREATE TABLE s (sid INT, name TEXT)")
    db.execute("INSERT INTO s VALUES (1, 'x'), (2, 'y')")
    return db


def plan(db, sql):
    return db.execute("EXPLAIN " + sql).plan_text


class TestAccessPaths:
    def test_seq_scan_default(self, db):
        assert "SeqScan(r)" in plan(db, "SELECT * FROM r")

    def test_btree_chosen_for_certain_range(self, db):
        db.execute("CREATE INDEX ON r (rid)")
        text = plan(db, "SELECT rid FROM r WHERE rid > 1")
        assert "SeqScan(r)" in text and "btree=rid[1,inf]" in text
        assert "Filter" not in text  # the scan tests rid > 1 exactly

    def test_btree_equality(self, db):
        db.execute("CREATE INDEX ON r (rid)")
        assert plan(db, "SELECT rid FROM r WHERE rid = 2") == (
            "-> Project(rid)\n"
            "  -> SeqScan(r)  [pruned lazy btree=rid[2,2] sets=0/1 where=(rid = 2.0)]"
        )

    def test_pti_chosen_for_uncertain_range(self, db):
        db.execute("CREATE PROB INDEX ON r (value)")
        text = plan(db, "SELECT rid FROM r WHERE value > 5 AND value < 15")
        assert "SeqScan(r)" in text and "index=value@0]" in text

    def test_pti_not_used_without_range(self, db):
        db.execute("CREATE PROB INDEX ON r (value)")
        text = plan(db, "SELECT rid FROM r WHERE site = 'a'")
        assert "SeqScan(r)" in text and "index=" not in text

    def test_no_index_scan_in_multi_table_queries(self, db):
        db.execute("CREATE INDEX ON r (rid)")
        text = plan(db, "SELECT a.rid FROM r a, s b WHERE a.rid = b.sid")
        assert "btree=" not in text


class TestPredicateSplit:
    def test_certain_filter_below_uncertain(self, db):
        text = plan(db, "SELECT rid FROM r WHERE site = 'a' AND value > 5")
        lines = text.splitlines()
        certain_idx = next(i for i, l in enumerate(lines) if "site" in l)
        uncertain_idx = next(i for i, l in enumerate(lines) if "value" in l)
        # Deeper in the tree = larger index; certain runs first (below).
        assert certain_idx > uncertain_idx

    def test_prob_terms_become_filters(self, db):
        text = plan(db, "SELECT rid FROM r WHERE PROB(value > 5) >= 0.5")
        assert "Filter(Pr((value > 5.0)) >= 0.5)" in text

    def test_prob_star_becomes_threshold_filter(self, db):
        text = plan(db, "SELECT rid FROM r WHERE PROB(*) >= 0.5")
        assert "Filter(Pr(*) >= 0.5)" in text


class TestJoins:
    def test_hash_join_for_certain_equi(self, db):
        text = plan(db, "SELECT a.rid FROM r a, s b WHERE a.rid = b.sid")
        assert "HashJoin" in text

    def test_keyless_hash_join_without_equi_key(self, db):
        text = plan(db, "SELECT a.rid FROM r a, s b WHERE a.rid < b.sid")
        assert "HashJoin((a.rid < b.sid))" in text

    def test_three_tables_left_deep(self, db):
        db.execute("CREATE TABLE t3 (k INT)")
        text = plan(db, "SELECT a.rid FROM r a, s b, t3 c")
        assert text.count("HashJoin(TRUE)") == 2

    def test_one_table_conjunct_runs_in_its_scan(self):
        """A certain conjunct over one table's columns is that table's scan
        test (stored names), whatever the FROM; only the conjuncts spanning
        tables stay on the join steps."""
        db = Database()
        db.execute("CREATE TABLE a (k INT, x REAL UNCERTAIN)")
        db.execute("CREATE TABLE b (k INT, j INT)")
        db.execute("CREATE TABLE c (j INT, y INT, t TEXT)")
        for i in range(5):
            db.execute(f"INSERT INTO a VALUES ({i}, GAUSSIAN({i}, 1))")
            db.execute(f"INSERT INTO b VALUES ({i}, {i % 3})")
            db.execute(f"INSERT INTO c VALUES ({i}, {i * 60}, 'x{i}')")
        sql = (
            "SELECT a.k FROM a, c, b WHERE a.k = b.k AND b.j = c.j"
            " AND (c.y > 100 OR c.t = 'x0')"
        )
        text = db.execute("EXPLAIN ANALYZE " + sql).plan_text
        (scan,) = [ln for ln in text.splitlines() if "SeqScan(c AS c)" in ln]
        assert "where=((y > 100.0) OR (t = 'x0'))" in scan, text
        assert "actual=4 " in scan, text
        assert "HashJoin(b.j = c.j, (b.j = c.j))" in text, text
        assert sorted(r["a.k"] for r in db.execute(sql).to_dicts()) == [0, 2, 3]

    def test_aliases_name_the_scans(self, db):
        # A multi-table FROM decodes each row under its binding's names: the
        # scans print the binding and no Rename node sits above them.
        text = plan(db, "SELECT a.rid FROM r a, s b")
        assert "Rename" not in text
        assert "SeqScan(r AS a)" in text and "SeqScan(s AS b)" in text


class TestSelectList:
    def test_projection(self, db):
        assert "Project(rid)" in plan(db, "SELECT rid FROM r")

    def test_star_no_projection(self, db):
        assert "Project" not in plan(db, "SELECT * FROM r")

    def test_alias_rename_on_top(self, db):
        text = plan(db, "SELECT rid AS k FROM r")
        assert "Project(rid AS k)" in text

    def test_aggregate_plan(self, db):
        text = plan(db, "SELECT COUNT(*), EXPECTED(value) FROM r")
        assert "Aggregate(COUNT(*)" in text

    def test_group_plan(self, db):
        text = plan(db, "SELECT site, COUNT(*) FROM r GROUP BY site")
        assert "Aggregate(by site" in text

    def test_scalarize_plan(self, db):
        text = plan(db, "SELECT rid, MEAN(value) FROM r")
        assert "Project(rid, MEAN(value) AS mean_value)" in text

    def test_distinct_plan(self, db):
        text = plan(db, "SELECT DISTINCT site FROM r")
        assert "Distinct" in text

    def test_sort_limit_order(self, db):
        text = plan(db, "SELECT rid FROM r ORDER BY rid LIMIT 1")
        lines = text.splitlines()
        assert "Limit" in lines[0]
        assert "Sort" in lines[1]

    def test_top_k_plan(self, db):
        text = plan(db, "SELECT rid FROM r ORDER BY PROB(*) DESC LIMIT 1")
        assert "Sort(PROB(*) DESC)" in text

    def test_group_by_items_are_project_items(self, db):
        # An alias on a group column renames it, as without GROUP BY; an
        # aggregate's alias is its output name.
        result = db.execute("SELECT site AS s, COUNT(*) AS n FROM r GROUP BY site")
        assert list(result.columns) == ["s", "n"]
        assert plan(db, "SELECT site AS s, COUNT(*) AS n FROM r GROUP BY site").startswith(
            "-> Project(site AS s, n)\n  -> Aggregate(by site; COUNT(*))"
        )

    def test_order_by_output_names_sorts_above_the_project(self, db):
        for sql, keys in (
            ("SELECT site AS s FROM r ORDER BY s DESC", "s DESC"),
            ("SELECT site AS s FROM r ORDER BY r.site DESC", "s DESC"),
            ("SELECT rid, MEAN(value) AS m FROM r ORDER BY m DESC", "m DESC"),
            ("SELECT site, EXPECTED(value) AS e FROM r GROUP BY site ORDER BY e", "e"),
            ("SELECT site AS s, COUNT(*) FROM r GROUP BY site ORDER BY s DESC", "s DESC"),
        ):
            assert plan(db, sql).startswith(f"-> Sort({keys})"), sql
        rows = db.execute("SELECT rid, MEAN(value) AS m FROM r ORDER BY m DESC").to_dicts()
        assert [row["rid"] for row in rows] == [2, 1]

    def test_order_by_unselected_column_sorts_below_the_project(self, db):
        assert plan(db, "SELECT site FROM r ORDER BY rid DESC").startswith(
            "-> Project(site)\n  -> Sort(rid DESC)"
        )
        rows = db.execute("SELECT site FROM r ORDER BY rid DESC").to_dicts()
        assert [row["site"] for row in rows] == ["b", "a"]
        sql = "SELECT COUNT(*) FROM r GROUP BY site ORDER BY site DESC"
        assert plan(db, sql).startswith(
            "-> Project(count)\n  -> Sort(site DESC)\n    -> Aggregate(by site; COUNT(*))"
        )
        assert len(db.execute(sql).rows) == 2

    def test_qualified_order_by_key_an_alias_shadows(self):
        # r.site is the FROM column, not the alias of k: the rows come in
        # site order, k order inside a site.
        db = Database()
        db.execute("CREATE TABLE r (site TEXT, k INT)")
        db.execute(
            "INSERT INTO r VALUES ('s0', 0), ('s1', 1), ('s0', 2), ('s1', 3), ('s0', 4), ('s1', 5)"
        )
        rows = db.execute("SELECT k AS site FROM r ORDER BY r.site").to_dicts()
        assert [row["site"] for row in rows] == [0, 2, 4, 1, 3, 5]
        rows = db.execute("SELECT k AS site FROM r ORDER BY site DESC").to_dicts()
        assert [row["site"] for row in rows] == [5, 4, 3, 2, 1, 0]


class TestPlannerValidation:
    def test_order_by_uncertain_rejected(self, db):
        with pytest.raises(QueryError):
            db.execute("SELECT rid FROM r ORDER BY value")

    def test_duplicate_aliases_rejected(self, db):
        from repro.errors import SqlBindError

        with pytest.raises(SqlBindError):
            db.execute("SELECT x.rid FROM r x, s x")

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT site, MEAN(value) FROM r GROUP BY site",
            "SELECT site, VARIANCE(value) AS v FROM r GROUP BY site",
            "SELECT MASS(value), COUNT(*) FROM r",
            "SELECT COUNT(*), MEAN(value) FROM r",
        ],
    )
    def test_per_row_calls_beside_aggregates_rejected(self, db, sql):
        with pytest.raises(QueryError, match="MEAN/VARIANCE/MASS"):
            db.execute(sql)

    @pytest.mark.parametrize(
        "sql, message",
        [
            ("SELECT site AS s, COUNT(*) AS n FROM r GROUP BY site ORDER BY n", "'n' is uncertain"),
            ("SELECT site, COUNT(*) FROM r GROUP BY site ORDER BY rid", "'rid' is not in its input"),
            ("SELECT DISTINCT site FROM r ORDER BY rid", "selected columns"),
            ("SELECT MEAN(value) AS m, site FROM r ORDER BY m, rid", "selected columns"),
        ],
    )
    def test_order_by_key_rejected(self, db, sql, message):
        with pytest.raises(QueryError, match=message):
            db.execute(sql)

    def test_column_selected_twice_rejected(self, db):
        with pytest.raises(QueryError):
            db.execute("SELECT rid, rid FROM r")
