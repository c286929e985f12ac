"""Ablation A4 — probability-threshold index vs sequential scan.

The PTI (the paper's reference [6], integrated here as the engine's
uncertain-column index) prunes records whose quantile x-bounds cannot
satisfy a probabilistic range query, avoiding page reads and pdf
evaluations.  This ablation measures selective range queries with and
without the index and reports the page-read savings; it then runs the
``PROB(value > lo AND value < lo + 2) >= 0.5`` windows, which only the
index's quantile ladder prunes below the support hull, and reports how many
records the scan completed (decoded whole) for them.

Run: ``pytest benchmarks/bench_ablation_pti_index.py --benchmark-only -q``
"""

import re
import time

import pytest

from repro.bench.figures import _build_database
from repro.bench.protocol import cold_start
from repro.bench.reporting import print_figure
from repro.workloads import generate_readings

N = 2000


def _fresh_db(with_index: bool):
    readings = generate_readings(N, seed=61)
    db = _build_database(readings, "symbolic", 0, buffer_pages=32)
    if with_index:
        db.execute("CREATE PROB INDEX ON readings (value)")
    return db


def _selective_queries(db):
    rows = 0
    for lo in (5.0, 35.0, 65.0, 95.0):
        result = db.execute(
            f"SELECT rid FROM readings WHERE value > {lo} AND value < {lo + 2}"
        )
        rows += len(result)
    return rows


def _prob_windows(db):
    """The rids each ``PROB`` window returns, and the records its scan
    completed (the scan's ``actual=`` under ``EXPLAIN ANALYZE``)."""
    answers, completed = [], 0
    for lo in (5.0, 35.0, 65.0, 95.0):
        sql = f"SELECT rid FROM readings WHERE PROB(value > {lo} AND value < {lo + 2}) >= 0.5"
        answers.append(sorted(t.certain["rid"] for t in db.execute(sql).rows))
        text = db.execute("EXPLAIN ANALYZE " + sql).plan_text
        completed += int(re.search(r"Scan\([^)]*\)\s+\[actual=(\d+)", text).group(1))
    return answers, completed


def bench_range_query_seqscan(benchmark):
    db = _fresh_db(with_index=False)

    def run():
        cold_start(db)
        return _selective_queries(db)

    benchmark(run)


def bench_range_query_pti(benchmark):
    db = _fresh_db(with_index=True)

    def run():
        cold_start(db)
        return _selective_queries(db)

    benchmark(run)


def bench_ablation_a4_report(benchmark, capsys):
    """Same answers; the index trades a build pass for per-query savings."""

    windows = []  # per access path: the PROB windows' answers

    def run():
        out = []
        for with_index in (False, True):
            db = _fresh_db(with_index)
            cold_start(db)
            t0 = time.perf_counter()
            rows = _selective_queries(db)
            elapsed = time.perf_counter() - t0
            reads = db.io_counters.reads
            answers, completed = _prob_windows(db)
            out.append(
                [
                    "pti" if with_index else "seqscan",
                    elapsed,
                    reads,
                    rows,
                    sum(map(len, answers)),
                    completed,
                ]
            )
            windows.append(answers)
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    with capsys.disabled():
        print()
        print_figure(
            "Ablation A4: probability-threshold index vs sequential scan",
            ["access_path", "seconds", "page_reads", "result_rows", "prob_rows", "prob_completed"],
            rows,
        )
    seq, pti = rows
    assert seq[3] == pti[3]  # identical answers ...
    assert pti[2] <= seq[2]  # ... from no more page reads
    assert windows[0] == windows[1]  # identical PROB answers ...
    assert pti[5] < seq[5]  # ... from fewer completed records
