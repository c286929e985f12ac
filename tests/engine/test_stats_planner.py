"""ANALYZE statistics and the cost-based planner.

Covers the statistics module (equi-depth histograms over certain values
and pdf support midpoints, mass histograms, null fractions), the
stats-gated cost-based access-path and join choices, and the EXPLAIN /
EXPLAIN ANALYZE surface: every scan type must report estimated rows, and
EXPLAIN ANALYZE must add actual row counts.
"""

import random
import re

import pytest

from repro import Database
from repro.core.model import ModelConfig
from repro.engine.stats import analyze_table


def _insert_many(db, n=200, spread=100.0, seed=11):
    rng = random.Random(seed)
    for i in range(n):
        mu = rng.uniform(0, spread)
        db.execute(f"INSERT INTO r VALUES ({i}, {i % 50}, GAUSSIAN({mu:.4f}, 1.0))")


@pytest.fixture
def db():
    db = Database(config=ModelConfig(batch_size=64))
    db.execute("CREATE TABLE r (rid INT, grp INT, value REAL UNCERTAIN)")
    return db


def plan(db, sql):
    return db.execute("EXPLAIN " + sql).plan_text


class TestAnalyze:
    def test_analyze_builds_stats(self, db):
        _insert_many(db, 120)
        res = db.execute("ANALYZE r")
        assert "ANALYZE" in res.message
        stats = db.table("r").statistics
        assert stats is not None
        assert stats.row_count == 120
        assert stats.page_count == db.table("r").heap.num_pages
        assert {"rid", "grp", "value"} <= set(stats.columns)
        assert stats.columns["value"].uncertain
        assert not stats.columns["rid"].uncertain

    def test_analyze_all_tables(self, db):
        db.execute("CREATE TABLE s (sid INT)")
        db.execute("INSERT INTO s VALUES (1)")
        _insert_many(db, 30)
        db.execute("ANALYZE")
        assert db.table("r").statistics is not None
        assert db.table("s").statistics is not None

    def test_histogram_selectivity_is_calibrated(self, db):
        # rid is uniform over 0..199: a quarter-range should estimate ~25%.
        _insert_many(db, 200)
        stats = analyze_table(db.table("r"))
        sel = stats.selectivity("rid", 50, 99)
        assert 0.18 <= sel <= 0.32
        assert stats.selectivity("rid", -100, -50) == 0.0
        # Support-midpoint histogram for the uncertain column spans the data.
        col = stats.columns["value"]
        assert col.lo >= -10 and col.hi <= 110

    def test_null_fraction(self, db):
        for i in range(20):
            pdf = "NULL" if i % 4 == 0 else "GAUSSIAN(5, 1)"
            db.execute(f"INSERT INTO r VALUES ({i}, 0, {pdf})")
        stats = analyze_table(db.table("r"))
        assert stats.columns["value"].null_frac == pytest.approx(0.25)

    def test_mass_fraction(self, db):
        _insert_many(db, 40)
        stats = analyze_table(db.table("r"))
        col = stats.columns["value"]
        # Complete Gaussians carry (almost) all their mass.
        assert col.mass_fraction(0.5) > 0.9
        assert col.mean_mass == pytest.approx(1.0, abs=0.01)


class TestCostBasedChoices:
    def test_btree_rule_based_without_stats(self, db):
        _insert_many(db, 10)
        db.execute("CREATE INDEX ON r (rid)")
        assert "BTreeScan" in plan(db, "SELECT rid FROM r WHERE rid < 3")

    def test_small_table_prefers_seq_after_analyze(self, db):
        # 10 rows on one page: a probe + fetches costs more than one page read.
        _insert_many(db, 10)
        db.execute("CREATE INDEX ON r (rid)")
        db.execute("ANALYZE r")
        assert "SeqScan" in plan(db, "SELECT rid FROM r WHERE rid >= 0")

    def test_selective_range_prefers_btree_after_analyze(self, db):
        _insert_many(db, 400)
        db.execute("CREATE INDEX ON r (rid)")
        db.execute("ANALYZE r")
        assert "BTreeScan" in plan(db, "SELECT rid FROM r WHERE rid < 4")

    def test_wide_range_prefers_seq_after_analyze(self, db):
        _insert_many(db, 400)
        db.execute("CREATE INDEX ON r (rid)")
        db.execute("ANALYZE r")
        assert "SeqScan" in plan(db, "SELECT rid FROM r WHERE rid >= 0")

    def test_tiny_join_prefers_nested_loop_after_analyze(self, db):
        db.execute("CREATE TABLE a (x INT)")
        db.execute("CREATE TABLE b (y INT)")
        db.execute("INSERT INTO a VALUES (1), (2)")
        db.execute("INSERT INTO b VALUES (1), (2)")
        sql = "SELECT a.x FROM a, b WHERE a.x = b.y"
        assert "HashJoin" in plan(db, sql)  # rule-based without stats
        db.execute("ANALYZE")
        assert "NestedLoopJoin" in plan(db, sql)

    def test_large_join_keeps_hash_after_analyze(self, db):
        db.execute("CREATE TABLE a (x INT)")
        db.execute("CREATE TABLE b (y INT)")
        for i in range(30):
            db.execute(f"INSERT INTO a VALUES ({i})")
            db.execute(f"INSERT INTO b VALUES ({i})")
        db.execute("ANALYZE")
        assert "HashJoin" in plan(db, "SELECT a.x FROM a, b WHERE a.x = b.y")


class TestExplainEstimates:
    def test_seq_scan_reports_estimates(self, db):
        _insert_many(db, 50)
        text = plan(db, "SELECT rid FROM r WHERE rid < 10")
        assert re.search(r"SeqScan\(r\)\s+\[est=\d+", text)

    def test_all_scan_types_report_est_and_actual(self, db):
        _insert_many(db, 200)
        db.execute("CREATE INDEX ON r (rid)")
        db.execute("CREATE PROB INDEX ON r (value)")
        db.execute("ANALYZE")

        cases = {
            "BTreeScan": "SELECT rid FROM r WHERE rid < 5",
            "PtiScan": "SELECT rid FROM r WHERE PROB(value > 99) >= 0.9",
            "SeqScan": "SELECT rid FROM r WHERE grp < 10",
        }
        for scan, sql in cases.items():
            text = db.execute("EXPLAIN ANALYZE " + sql).plan_text
            match = re.search(rf"{scan}\([^)]*\)\s+\[est=(\d+) actual=(\d+)", text)
            assert match, f"{scan} missing est/actual in:\n{text}"

    def test_explain_analyze_counts_match(self, db):
        _insert_many(db, 80)
        sql = "SELECT rid FROM r WHERE grp < 5"
        expected = len(db.execute(sql))
        text = db.execute("EXPLAIN ANALYZE " + sql).plan_text
        match = re.search(r"Filter\([^]]*\[est=\d+ actual=(\d+)", text)
        assert match and int(match.group(1)) == expected

    def test_plain_explain_has_no_actual(self, db):
        _insert_many(db, 30)
        text = plan(db, "SELECT rid FROM r WHERE rid < 5")
        assert "actual=" not in text
        assert "est=" in text
