"""Golden data-quality queries over a tiny fixed uncertain-TPC-H instance.

The cleaning scenario the workload exists for, pinned as golden files:
rank tuples by denial-constraint violation probability, repair by
conditioning (CTAS keeping only constraint-satisfying mass), and verify
the repaired table carries no residual violation.  The instance is a
30-lineitem ``TpchConfig`` with 3 injected violators per constraint, so
every pdf digest in the goldens is reviewable by hand.

Regenerate after an intentional semantic change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/golden -q
"""

from __future__ import annotations

import json
import os

import pytest

from repro.engine.database import Database
from repro.workloads import TpchConfig, default_constraints, generate_tpch

from .test_golden import UPDATE, summarize

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "cases_tpch")

CFG = TpchConfig(
    lineitem_rows=30, orders_rows=10, part_rows=5, seed=5,
    violations_per_constraint=3, partial_fraction=0.2,
)

_QUANTITY, _PRICE, _SHIPDATE = default_constraints(CFG)

#: Repairs (CTAS by conditioning) run once at setup; cases query them.
SETUP = [
    _QUANTITY.repair_sql("clean_quantity"),
    _PRICE.repair_sql("clean_price"),
]

CASES = {
    # -- rank by violation probability (most suspicious first) --------------
    "tpch_rank_quantity": _QUANTITY.ranking_sql(columns="l_linenumber", limit=10),
    "tpch_rank_price": _PRICE.ranking_sql(columns="l_linenumber"),
    "tpch_rank_shipdate": _SHIPDATE.ranking_sql(columns="l_linenumber"),
    # -- thresholded violation report ---------------------------------------
    "tpch_prob_threshold": (
        f"SELECT l_linenumber FROM lineitem WHERE PROB({_QUANTITY.violation_predicate}) >= 0.2"
    ),
    # -- repair by conditioning: pdfs keep only satisfying mass -------------
    "tpch_repaired_pdfs": (
        f"SELECT l_linenumber, l_quantity FROM clean_quantity WHERE {_QUANTITY.satisfaction_predicate}"
    ),
    "tpch_repair_is_clean": (
        f"SELECT l_linenumber FROM clean_price WHERE {_PRICE.violation_predicate}"
    ),
    # -- the workload's analytics shapes over the same instance -------------
    "tpch_expected_by_status": (
        "SELECT l_linestatus, COUNT(*), EXPECTED(l_extendedprice) "
        "FROM lineitem GROUP BY l_linestatus"
    ),
    "tpch_join_priorities": (
        "SELECT l_linenumber, o_orderpriority FROM lineitem, orders "
        "WHERE lineitem.l_orderkey = orders.o_orderkey"
    ),
}


@pytest.fixture(scope="module")
def db():
    d = Database()
    generate_tpch(d, CFG)
    for sql in SETUP:
        d.execute(sql)
    return d


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_tpch(name, db):
    summary = summarize(db.execute(CASES[name]))
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


def test_tpch_goldens_cover_all_cases():
    names = {
        os.path.splitext(n)[0]
        for n in os.listdir(GOLDEN_DIR)
        if n.endswith(".json")
    }
    assert names == set(CASES), (
        f"stale/missing goldens: {sorted(names ^ set(CASES))}"
    )
    assert len(CASES) >= 6
