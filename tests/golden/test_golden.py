"""Golden-file regression suite over ~20 canonical queries.

Each case runs a query against a fixed, deterministically built database
and compares a *semantic summary* of the result — visible columns, sorted
rows with certain values, and per-dependency-set pdf digests (symbolic
repr, mass/mean/variance rounded to 9 significant decimals) — against a
checked-in JSON file.  Rounding keeps the goldens stable across benign
floating-point refactors while still catching semantic drift.

Regenerate after an intentional semantic change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/golden -q
"""

from __future__ import annotations

import json
import math
import os

import pytest

from repro.engine.database import Database

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "cases")
UPDATE = os.environ.get("REPRO_UPDATE_GOLDEN") == "1"

#: name -> SQL.  Setup statements mutate; query cases are summarized.
SETUP = [
    "CREATE TABLE readings (rid INT, site TEXT, value REAL UNCERTAIN)",
    "INSERT INTO readings VALUES (1, 'a', GAUSSIAN(20, 5))",
    "INSERT INTO readings VALUES (2, 'a', UNIFORM(0, 10))",
    "INSERT INTO readings VALUES (3, 'b', DISCRETE(1:0.4, 2:0.6))",
    "INSERT INTO readings VALUES (4, 'b', HISTOGRAM(0, 10, 20 ; 0.4, 0.6))",
    "INSERT INTO readings VALUES (5, 'c', GAUSSIAN(30, 2))",
    "CREATE TABLE objects (oid INT, x REAL, y REAL, DEPENDENCY (x, y))",
    "INSERT INTO objects VALUES (10, JOINT_GAUSSIAN([0, 0], [[1, 0.5], [0.5, 1]]))",
    "INSERT INTO objects VALUES (11, JOINT_DISCRETE((4, 5): 0.9, (2, 3): 0.1))",
    "CREATE INDEX ON readings (rid)",
    "CREATE PROB INDEX ON readings (value)",
    "CREATE TABLE hot AS SELECT rid, value FROM readings WHERE PROB(value > 15) >= 0.5",
    "CREATE TABLE r (site TEXT, k INT)",
    "INSERT INTO r VALUES ('s0', 0), ('s1', 1), ('s0', 2), ('s1', 3), ('s0', 4), ('s1', 5)",
]

CASES = {
    "select_all": "SELECT rid, site, value FROM readings",
    "select_certain_eq": "SELECT rid FROM readings WHERE site = 'a'",
    "select_value_floor": "SELECT rid, value FROM readings WHERE value > 18",
    "select_value_band": "SELECT rid, value FROM readings WHERE value > 18 AND value < 22",
    "select_or": "SELECT rid FROM readings WHERE rid = 1 OR rid = 3",
    "prob_simple": "SELECT rid FROM readings WHERE PROB(value > 15) >= 0.5",
    "prob_band": "SELECT rid FROM readings WHERE PROB(value > 18 AND value < 22) > 0.3",
    "prob_exist": "SELECT rid FROM readings WHERE PROB(*) >= 1",
    "prob_upper": "SELECT rid FROM readings WHERE PROB(value > 25) <= 0.1",
    "topk_prob": "SELECT rid FROM readings WHERE value > 18 ORDER BY PROB(*) DESC LIMIT 2",
    "order_prob_asc": "SELECT rid FROM readings WHERE value > 5 ORDER BY PROB(*) ASC",
    "count_all": "SELECT COUNT(*) FROM readings",
    "count_group": "SELECT site, COUNT(*) FROM readings GROUP BY site",
    "sum_group": "SELECT site, SUM(value) FROM readings GROUP BY site",
    "expected_group": "SELECT site, EXPECTED(value) FROM readings GROUP BY site",
    "count_filtered": "SELECT site, COUNT(*) FROM readings WHERE value > 20 GROUP BY site",
    "joint_select": "SELECT oid, x, y FROM objects WHERE x > 0 AND y > 0",
    "joint_prob": "SELECT oid FROM objects WHERE PROB(x > 0) >= 0.5",
    "ctas_result": "SELECT rid, value FROM hot",
    "ctas_prob": "SELECT COUNT(*) FROM hot WHERE PROB(*) >= 0.999",
    "explain_prob": "EXPLAIN SELECT rid FROM readings WHERE PROB(value > 18 AND value < 22) >= 0.5",
    "explain_topk": "EXPLAIN SELECT rid FROM readings ORDER BY PROB(*) DESC",
    "order_by_shadowed": "SELECT k AS site FROM r ORDER BY r.site",
}
#: cases whose row order is part of the answer; every other case's rows are sorted
ORDERED = {"order_by_shadowed"}


def _round(x: float) -> float:
    if x != x or math.isinf(x):  # NaN/inf become strings for JSON stability
        return str(x)
    return float(f"{x:.9g}")


def _pdf_digest(pdf) -> dict:
    if pdf is None:
        return {"null": True}
    digest = {"repr": repr(pdf), "mass": _round(pdf.mass())}
    try:
        digest["mean"] = _round(float(pdf.mean()))
        digest["variance"] = _round(float(pdf.variance()))
    except Exception:
        pass  # multivariate/symbolic pdfs without scalar moments
    return digest


def _row_summary(t) -> dict:
    certain = {
        k: (_round(v) if isinstance(v, float) else v)
        for k, v in sorted(t.certain.items())
    }
    pdfs = {
        ",".join(sorted(dep)): _pdf_digest(pdf)
        for dep, pdf in sorted(t.pdfs.items(), key=lambda kv: sorted(kv[0]))
    }
    return {"certain": certain, "pdfs": pdfs}


def summarize(result, ordered: bool = False) -> dict:
    """An ``EXPLAIN`` pins its plan; any other statement pins its columns
    and rows, sorted unless ``ordered`` (a SELECT result carries its plan
    too, which is not compared)."""
    if result.message.startswith("EXPLAIN"):
        return {"plan": result.plan_text.splitlines()}
    rows = [_row_summary(t) for t in result.rows]
    if not ordered:
        rows.sort(key=lambda r: json.dumps(r, sort_keys=True))
    return {"columns": list(result.columns), "rows": rows}


@pytest.fixture(scope="module")
def db():
    d = Database()
    for sql in SETUP:
        d.execute(sql)
    return d


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, db):
    summary = summarize(db.execute(CASES[name]), ordered=name in ORDERED)
    path = os.path.join(GOLDEN_DIR, f"{name}.json")
    if UPDATE:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(path, "w") as f:
            json.dump(summary, f, indent=2, sort_keys=True)
            f.write("\n")
        pytest.skip("golden updated")
    assert os.path.exists(path), (
        f"missing golden {path}; regenerate with REPRO_UPDATE_GOLDEN=1"
    )
    with open(path) as f:
        expected = json.load(f)
    assert summary == expected, (
        f"result for {name!r} drifted from {path}; if intentional, "
        "regenerate with REPRO_UPDATE_GOLDEN=1"
    )


def test_goldens_cover_all_cases():
    names = {
        os.path.splitext(n)[0]
        for n in os.listdir(GOLDEN_DIR)
        if n.endswith(".json")
    }
    assert names == set(CASES), (
        f"stale/missing goldens: {sorted(names ^ set(CASES))}"
    )
    assert len(CASES) >= 20
