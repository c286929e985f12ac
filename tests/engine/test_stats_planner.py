"""The planner's one access-path rule, and the EXPLAIN surface.

There are no optimizer statistics: a single-table statement reads through
the pruned sequential scan, narrowed by a B+tree when a conjunct bounds an
indexed column and otherwise tested by a probability-threshold index — for
``SELECT`` and, through ``Database._matching_rows``, for ``UPDATE`` /
``DELETE`` — and a certain equi-join of two tables is a ``HashJoin`` at
every size.  ``ANALYZE`` survives only as the keyword of
``EXPLAIN ANALYZE``, which reports ``actual=`` row counts.
"""

import random
import re

import pytest

from repro import Database
from repro.engine.storage.synopsis import ScanPruner
from repro.errors import SqlParseError


def _insert_many(db, n=200, spread=100.0, seed=11):
    rng = random.Random(seed)
    for start in range(0, n, 50):
        db.execute(
            "INSERT INTO r VALUES "
            + ", ".join(
                f"({i}, {i % 50}, GAUSSIAN({rng.uniform(0, spread):.4f}, 1.0))"
                for i in range(start, min(start + 50, n))
            )
        )


@pytest.fixture
def db():
    db = Database()
    db.execute("CREATE TABLE r (rid INT, grp INT, value REAL UNCERTAIN)")
    return db


def plan(db, sql):
    return db.execute("EXPLAIN " + sql).plan_text


def _rows(result):
    return sorted((t.certain["rid"], repr(t.pdfs)) for t in result.rows)


class TestAccessPathRule:
    def test_select_takes_btree_then_pti_then_seq(self, db):
        _insert_many(db, 10)
        both = "SELECT rid FROM r WHERE rid < 3 AND value > 50"
        assert "SeqScan(r)" in plan(db, both) and "index=" not in plan(db, both)
        db.execute("CREATE PROB INDEX ON r (value)")
        assert "SeqScan(r)  [pruned lazy index=value@0 where=(rid < 3.0)]" in plan(db, both)
        db.execute("CREATE INDEX ON r (rid)")
        assert "btree=rid[-inf,3]" in plan(db, both) and "index=" not in plan(db, both)
        # Each index still serves the conjunct only it can bound ...
        assert "index=value@0" in plan(db, "SELECT rid FROM r WHERE value > 50")
        # ... and a conjunct no index bounds leaves the pruned scan.
        assert "SeqScan(r)" in plan(db, "SELECT rid FROM r WHERE grp = 2")

    @pytest.mark.parametrize("rows", [10, 400])
    def test_rule_ignores_table_size_and_range_width(self, db, rows):
        """The deleted cost arm flipped these to SeqScan after ANALYZE."""
        _insert_many(db, rows)
        db.execute("CREATE INDEX ON r (rid)")
        assert "btree=rid[-inf,4]" in plan(db, "SELECT rid FROM r WHERE rid < 4")
        assert "btree=rid[0,inf]" in plan(db, "SELECT rid FROM r WHERE rid >= 0")

    @pytest.mark.parametrize(
        "inner",
        [
            "value BETWEEN 18 AND 22",
            "value BETWEEN 18 AND 22 AND value > 19",
            "value > 18 AND (value < 22 AND value > 19)",
        ],
    )
    def test_nested_prob_conjuncts_reach_the_pti(self, db, inner):
        """BETWEEN and parentheses nest ANDs inside PROB(...): the PTI rule
        flattens them exactly as the scan pruner does."""
        db.execute(
            "INSERT INTO r VALUES "
            + ", ".join(f"({i}, 0, GAUSSIAN({i}, 1.0))" for i in range(40))
        )
        sql = f"SELECT rid, value FROM r WHERE PROB({inner}) >= 0.5"
        assert "SeqScan(r)" in plan(db, sql)
        by_scan = _rows(db.execute(sql))
        db.execute("CREATE PROB INDEX ON r (value)")
        assert "SeqScan(r)" in plan(db, sql)
        assert "index=value@0.5]" in plan(db, sql)
        assert _rows(db.execute(sql)) == by_scan
        assert by_scan  # the window is not empty

    def test_update_and_delete_take_the_btree_first(self, db):
        _insert_many(db, 1500)
        db.execute("CREATE PROB INDEX ON r (value)")
        db.execute("CREATE INDEX ON r (rid)")
        pool, pages = db.catalog.pool, db.table("r").heap.num_pages
        assert pages >= 20

        def cold_fetches(sql):
            pool.clear()
            pool.reset_stats()
            assert db.execute(sql).rowcount >= 1
            return pool.stats.misses

        assert cold_fetches("UPDATE r SET grp = 7 WHERE rid = 417") <= 3
        assert cold_fetches("DELETE FROM r WHERE rid = 417") <= 3
        # No index bounds grp: the statement reads the pages whose synopsis
        # admits the value, as a SELECT's pruned scan does.
        assert cold_fetches("UPDATE r SET grp = 8 WHERE grp = 3") > 3
        admitted = db.table("r").candidate_pages(ScanPruner({"grp": (4.0, 4.0)}))
        assert 3 < cold_fetches("DELETE FROM r WHERE grp = 4") <= len(admitted) < pages


class TestJoinRule:
    SQL = "SELECT a.x FROM a, b WHERE a.x = b.y"

    def test_certain_equi_join_is_a_hash_join_at_every_size(self, db):
        """2 x 2 rows, then 600 x 600 in the same tables: with statistics
        taken at 2 rows the old cost arm planned a nested loop forever."""
        db.execute("CREATE TABLE a (x INT)")
        db.execute("CREATE TABLE b (y INT)")
        db.execute("INSERT INTO a VALUES (1), (2)")
        db.execute("INSERT INTO b VALUES (1), (2)")
        assert "HashJoin" in plan(db, self.SQL)
        for name in "ab":
            db.execute(
                f"INSERT INTO {name} VALUES "
                + ", ".join(f"({i})" for i in range(3, 601))
            )
        text = plan(db, self.SQL)
        assert "HashJoin(a.x = b.y" in text
        assert len(db.execute(self.SQL)) == 600

    def test_anything_else_is_a_keyless_hash_join(self, db):
        db.execute("CREATE TABLE a (x INT)")
        db.execute("CREATE TABLE b (y INT)")
        assert "HashJoin((a.x < b.y))" in plan(db, "SELECT a.x FROM a, b WHERE a.x < b.y")
        assert "HashJoin(TRUE)" in plan(db, "SELECT a.x FROM a, b")
        # An uncertain key never hashes: the equality filters above the join.
        text = plan(db, "SELECT a.x FROM a, r WHERE a.x = r.value")
        assert "HashJoin(TRUE)" in text and "Filter((a.x = r.value))" in text


class TestExplain:
    def test_analyze_statement_is_a_syntax_error(self, db):
        for sql in ("ANALYZE r", "ANALYZE"):
            with pytest.raises(SqlParseError, match="expected a statement"):
                db.execute(sql)

    def test_all_scan_types_report_actual(self, db):
        _insert_many(db, 200)
        db.execute("CREATE INDEX ON r (rid)")
        db.execute("CREATE PROB INDEX ON r (value)")
        cases = [
            ("btree=rid[-inf,5]", "SELECT rid FROM r WHERE rid < 5"),
            ("index=value@0.9", "SELECT rid FROM r WHERE PROB(value > 99) >= 0.9"),
            ("where=(grp < 10.0)", "SELECT rid FROM r WHERE grp < 10"),
        ]
        for path, sql in cases:
            text = db.execute("EXPLAIN ANALYZE " + sql).plan_text
            match = re.search(r"SeqScan\(r\)\s+\[actual=(\d+) pages=\d+/\d+ rows=\d+/\d+", text)
            assert match and path in text, f"{path} missing actual= in:\n{text}"
            assert "est=" not in text

    def test_explain_analyze_counts_match(self, db):
        _insert_many(db, 80)
        sql = "SELECT rid FROM r WHERE grp < 5"
        expected = len(db.execute(sql))
        text = db.execute("EXPLAIN ANALYZE " + sql).plan_text
        match = re.search(r"SeqScan\(r\)\s+\[actual=(\d+)", text)
        assert match and int(match.group(1)) == expected
        assert "Filter" not in text  # the scan applies grp < 5 itself

    def test_plain_explain_has_no_actual(self, db):
        _insert_many(db, 30)
        text = plan(db, "SELECT rid FROM r WHERE rid < 5")
        assert "actual=" not in text
        assert "est=" not in text
