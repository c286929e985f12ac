#!/usr/bin/env python3
"""PYTHONPATH=<f8785ba>/src python benchmarks/measure/measure_certain_tier.py [PAIRS] — PR 24's three measure-first tables.

Runs against the *parent* tree (``git clone . /tmp/p && git -C /tmp/p checkout f8785ba``, then
``PYTHONPATH=/tmp/p/src``): it patches the float64 certain-column tier that PR 24 deleted, so it cannot run at HEAD.
One process, uncertain TPC-H at SF 0.0003 through the public API.  Per cell: one untimed execution per side, then PAIRS
(default 10) alternating pairs, each execution timed after ``gc.collect()``.
(i) rows ``CertainColumnBuilder`` filled vs reads that consumed a seeded array, and three statements with ``add`` /
``seed`` stubbed out; (ii) ``join_orders`` through the searchsorted probe vs forced onto the dict buckets (re-check
included); (iii) five numeric-key GROUP BYs through ``_execute_columnar`` vs ``_execute_reference``.
Tables: docs/PERFORMANCE.md "Execution path".
"""
import gc
import glob
import os
import sys
import time
from contextlib import ExitStack
from statistics import median, quantiles
from unittest import mock

from repro.core.columnar import ColumnarSegment
from repro.engine.database import Database
from repro.engine.executor import aggregate, relational
from repro.engine.storage.serialize import CertainColumnBuilder
from repro.workloads import TpchConfig, generate_tpch, query_suite

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "benchmarks", "e2e"))
from wl_tpch import EXTRA_STATEMENTS  # noqa: E402

PAIRS = int(sys.argv[1]) if len(sys.argv) > 1 else 10
GROUP_BYS = {
    "COUNT(*) BY l_orderkey": "SELECT l_orderkey, COUNT(*) FROM lineitem GROUP BY l_orderkey",
    "EXPECTED(l_quantity) BY l_orderkey": "SELECT l_orderkey, EXPECTED(l_quantity) FROM lineitem GROUP BY l_orderkey",
    "SUM(l_quantity) BY l_orderkey": "SELECT l_orderkey, SUM(l_quantity) FROM lineitem GROUP BY l_orderkey",
    "COUNT(*) BY l_linenumber": "SELECT l_linenumber, COUNT(*) FROM lineitem GROUP BY l_linenumber",
    "EXPECTED(l_extendedprice) BY l_linenumber": "SELECT l_linenumber, EXPECTED(l_extendedprice) FROM lineitem GROUP BY l_linenumber",
}
cfg = TpchConfig(scale_factor=0.0003, seed=0)
db = Database()
generate_tpch(db, cfg)
statements = {**dict(query_suite(cfg)), **EXTRA_STATEMENTS}


def patched(*patches):
    """``with patched((owner, name, value), ...):`` — each attribute replaced for the block."""
    stack = ExitStack()
    for owner, name, value in patches:
        stack.enter_context(mock.patch.object(owner, name, value))
    return stack


def timed(sql):
    gc.collect()
    t0 = time.perf_counter()
    rows = [(t.tuple_id, tuple(t.certain.items()), repr(t.pdfs)) for t in db.execute(sql)]
    return (time.perf_counter() - t0) * 1e3, rows


def compare(label, sql, patches, collector=True):
    """``as is`` vs ``patched`` on one statement; the answers must agree bar fresh tuple ids."""
    sides = {"as is": (), "patched": patches}
    times = {side: [] for side in sides}
    answers = {}
    for side in sides:
        with patched(*sides[side]):
            answers[side] = [row[1:] for row in timed(sql)[1]]
    assert answers["as is"] == answers["patched"], label
    if not collector:
        gc.disable()
    for pair in range(PAIRS):
        for side in list(sides)[:: 1 if pair % 2 else -1]:
            with patched(*sides[side]):
                times[side].append(timed(sql)[0])
    gc.enable()
    a, b = times["as is"], times["patched"]
    q1, _, q3 = quantiles(a, n=4)
    q1b, _, q3b = quantiles(b, n=4)
    print(f"| {label} | {len(answers['as is'])} | {median(a):.1f} (IQR {q3 - q1:.1f}) | {median(b):.1f} (IQR {q3b - q1b:.1f}) "
          f"| {sum(x < y for x, y in zip(a, b))} / {sum(y < x for x, y in zip(a, b))} of {PAIRS} |", flush=True)


# (i) does any read consume an array the scan seeded?
filled, seeded, reads = [0], {}, {"seeded": 0, "gathered": 0}
add, seed, certain_column = CertainColumnBuilder.add, CertainColumnBuilder.seed, ColumnarSegment.certain_column


def counting_add(self, certain):
    filled[0] += 1
    add(self, certain)


def counting_seed(self, segment):
    seeded[id(segment)] = segment  # kept alive so the id stays unique
    seed(self, segment)


def counting_certain_column(self, attr):
    reads["seeded" if id(self) in seeded and attr in self._certain else "gathered"] += 1
    return certain_column(self, attr)


corpus = [line.strip().rstrip(";") for p in sorted(glob.glob(f"{ROOT}/tests/engine/sql_corpus/*.sql")) for line in open(p)
          if line.strip() and not line.startswith("--")]  # one statement per line
with patched((CertainColumnBuilder, "add", counting_add), (CertainColumnBuilder, "seed", counting_seed),
             (ColumnarSegment, "certain_column", counting_certain_column)):
    for sql in [*statements.values(), *list(GROUP_BYS.values())[:2]]:
        list(db.execute(sql))
    side_db = Database()
    for sql in corpus:
        side_db.execute(sql)
print(f"(i) CertainColumnBuilder filled arrays for {filled[0]} scanned rows in {len(seeded)} segments; "
      f"certain_column reads that consumed a seeded array: {reads['seeded']}; reads that gathered their own: {reads['gathered']}")
del seeded
print("\n| statement | rows | as is, ms | patched, ms | as is faster / patched faster |\n|---|---|---|---|---|")
stub = [(CertainColumnBuilder, "add", lambda self, certain: None), (CertainColumnBuilder, "seed", lambda self, segment: None)]
for name in ("price_range", "orderby_linenumber", "join_orders"):
    compare(f"(i) `{name}`, `add` / `seed` stubbed out", statements[name], stub)

# (ii) the searchsorted probe vs the dict buckets (index=None: buckets + SelectionPlan re-check, no trivial-match skip)
compare("(ii) `join_orders`, forced onto the dict buckets", statements["join_orders"],
        [(relational, "keys_kernelizable", lambda vals, mask: False)])

# (iii) np.unique grouping vs the dict grouping
reference = [(aggregate.GroupAggregate, "_execute_columnar", lambda self, tuples: None)]
for label, sql in GROUP_BYS.items():
    compare(f"(iii) `{label}`, dict grouping", sql, reference)
compare("(iii) `COUNT(*) BY l_orderkey`, dict grouping, collector off", GROUP_BYS["COUNT(*) BY l_orderkey"], reference,
        collector=False)
