"""The paper's three result figures as runnable experiments.

Each function returns ``(headers, rows)`` ready for
:func:`repro.bench.reporting.print_figure`; the pytest-benchmark wrappers
in ``benchmarks/`` and the ``python -m repro.bench`` CLI both call in here.

* :func:`fig4_accuracy` — Figure 4, "Accuracy vs Sample Size": mean
  absolute error (and its standard deviation) of range-query probabilities
  under histogram vs discrete approximation, as a function of
  representation size.
* :func:`fig5_discretized_performance` — Figure 5, "Performance of
  Discretized PDFs": range-query workload wall time and physical page I/O
  as the table grows, for symbolic vs histogram-5 vs discrete-25 (the two
  approximations chosen for equal accuracy, per the paper).
* :func:`fig6_history_overhead` — Figure 6, "Overhead of Histories": join
  over range queries (floors + products) and projection of the resulting
  correlated data, with and without history maintenance.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

import numpy as np

from ..core.join import prefix_attrs
from ..core.model import ModelConfig
from ..core.predicates import And, Comparison, col
from ..core.project import project
from ..core.select import select
from ..engine.database import Database
from ..engine.storage.disk import MemoryDisk
from ..pdf.convert import discretize, to_histogram
from ..pdf.regions import IntervalSet
from .protocol import cold_start
from ..workloads.sensors import (
    generate_range_queries,
    generate_readings,
    load_readings_relation,
)

__all__ = [
    "fig4_accuracy",
    "fig5_discretized_performance",
    "fig6_history_overhead",
]

Headers = List[str]
Rows = List[List[float]]


# ---------------------------------------------------------------------------
# Figure 4 — Accuracy vs sample size
# ---------------------------------------------------------------------------


def fig4_accuracy(
    sample_sizes: Sequence[int] = (2, 3, 5, 8, 10, 15, 20, 25, 30),
    n_pdfs: int = 200,
    n_queries: int = 200,
    seed: int = 7,
) -> Tuple[Headers, Rows]:
    """Mean |error| and error std-dev of range probabilities per sample size.

    For every reading and every range query the exact answer comes from the
    symbolic Gaussian cdf; the histogram and discrete approximations of
    equal size are then evaluated on the same queries.
    """
    readings = generate_readings(n_pdfs, seed=seed)
    queries = generate_range_queries(n_queries, seed=seed + 1)
    rows: Rows = []
    for size in sample_sizes:
        hist_errors: List[float] = []
        disc_errors: List[float] = []
        for reading in readings:
            exact_pdf = reading.pdf
            hist = to_histogram(exact_pdf, size)
            disc = discretize(exact_pdf, size)
            for q in queries:
                window = IntervalSet.between(q.lo, q.hi)
                exact = exact_pdf.prob_interval(window)
                hist_errors.append(abs(hist.prob_interval(window) - exact))
                disc_errors.append(abs(disc.prob_interval(window) - exact))
        hist_arr = np.asarray(hist_errors)
        disc_arr = np.asarray(disc_errors)
        rows.append(
            [
                size,
                float(hist_arr.mean()),
                float(hist_arr.std()),
                float(disc_arr.mean()),
                float(disc_arr.std()),
            ]
        )
    headers = [
        "sample_size",
        "hist_mean_err",
        "hist_err_std",
        "disc_mean_err",
        "disc_err_std",
    ]
    return headers, rows


# ---------------------------------------------------------------------------
# Figure 5 — Performance of discretized pdfs
# ---------------------------------------------------------------------------

_REPRESENTATIONS = (
    ("symbolic", 0),
    ("histogram", 5),
    ("discrete", 25),
)


def _build_database(
    readings, representation: str, size: int, buffer_pages: int
) -> Database:
    db = Database(disk=MemoryDisk(), buffer_capacity=buffer_pages)
    db.execute("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)")
    table = db.table("readings")
    for reading in readings:
        exact = reading.pdf
        if representation == "symbolic":
            pdf = exact
        elif representation == "histogram":
            pdf = to_histogram(exact, size)
        else:
            pdf = discretize(exact, size)
        table.insert(certain={"rid": reading.rid}, uncertain={"value": pdf})
    db.catalog.pool.flush_all()
    return db


def _run_range_workload(db: Database, queries) -> Tuple[float, int, int]:
    """(wall seconds, physical page reads, result rows) for the query batch."""
    cold_start(db)  # fresh scan-heavy workload: no cached pages or pdf ops
    rows = 0
    start = time.perf_counter()
    for q in queries:
        result = db.execute(
            f"SELECT rid FROM readings WHERE value > {q.lo} AND value < {q.hi}"
        )
        rows += len(result)
    elapsed = time.perf_counter() - start
    return elapsed, db.io_counters.reads, rows


def fig5_discretized_performance(
    tuple_counts: Sequence[int] = (500, 1000, 2000, 4000),
    n_queries: int = 10,
    buffer_pages: int = 64,
    io_ms: float = 1.0,
    seed: int = 11,
) -> Tuple[Headers, Rows]:
    """Workload cost per representation and table size.

    The paper fixes histogram buckets at 5 and discrete points at 25 so the
    two approximations have equal accuracy (see Figure 4), then scales the
    table.  Discrete-25 records are several times larger, so they overflow
    the (fixed-size) buffer pool earlier and rise more steeply — the
    paper's qualitative result.  Symbolic costs sit just below the
    histogram's.

    The paper's 2008 testbed was disk-bound; in this reproduction the disk
    is simulated, so the reported ``*_cost`` series charges each physical
    page read ``io_ms`` milliseconds (default 1 ms, a sequential page read
    on a 2008-era disk) on top of measured CPU time.  Raw CPU seconds and
    page-read counts are reported alongside.
    """
    queries = generate_range_queries(n_queries, seed=seed + 1)
    rows: Rows = []
    for n in tuple_counts:
        readings = generate_readings(n, seed=seed)
        row: List[float] = [n]
        for representation, size in _REPRESENTATIONS:
            db = _build_database(readings, representation, size, buffer_pages)
            elapsed, reads, _ = _run_range_workload(db, queries)
            cost = elapsed + reads * io_ms / 1000.0
            row.extend([cost, elapsed, reads])
        rows.append(row)
    headers = [
        "tuples",
        "symbolic_cost",
        "symbolic_cpu_s",
        "symbolic_io",
        "hist5_cost",
        "hist5_cpu_s",
        "hist5_io",
        "disc25_cost",
        "disc25_cpu_s",
        "disc25_io",
    ]
    return headers, rows


# ---------------------------------------------------------------------------
# Figure 6 — Overhead of histories
# ---------------------------------------------------------------------------


def _history_workload(n: int, use_history: bool, seed: int) -> Tuple[float, float]:
    """(join seconds, project seconds) for one configuration.

    The paper's queries: joins over range queries (floors and products of
    historically dependent pdfs) and projections of the resulting
    correlated data (collapsing the 2-D pdfs).  Both selections read the
    same base table, so every rid-matched pair of the join shares a common
    ancestor and the ``value``-comparison must repair that shared ancestry
    — precisely the work that is skipped (incorrectly) when histories are
    off.
    """
    from ..engine.executor import Filter, HashJoin, RelationScan

    config = ModelConfig(use_history=use_history)
    readings = generate_readings(n, seed=seed)
    base = load_readings_relation(readings, representation="discrete", size=4)
    store = base.store

    # The timed join phase includes the two range selections feeding it:
    # the paper's "joins over range queries" are end-to-end query times.
    start = time.perf_counter()
    r1 = select(base, And([Comparison("value", ">", 20.0), Comparison("value", "<", 70.0)]), config)
    r2 = select(base, And([Comparison("value", ">", 40.0), Comparison("value", "<", 90.0)]), config)
    a = prefix_attrs(r1, "a")
    b = prefix_attrs(r2, "b")
    join_plan = HashJoin(
        RelationScan(a),
        RelationScan(b),
        "a.rid",
        "b.rid",
        Comparison("a.rid", "=", col("b.rid")),
        store,
        config,
    )
    value_plan = Filter(
        join_plan, Comparison("a.value", "<=", col("b.value")), store, config
    )
    joined = a.derived(value_plan.output_schema)
    for t in value_plan:
        joined.add_tuple(t, acquire=False)
    join_time = time.perf_counter() - start

    # Projection of the correlated result: collapse the 2-D value pdfs down
    # to a.value (the paper's "triggering a collapse of the 2D pdfs").
    start = time.perf_counter()
    project(joined, ["a.rid", "a.value"], config, aggressive=True)
    project_time = time.perf_counter() - start
    return join_time, project_time


def fig6_history_overhead(
    tuple_counts: Sequence[int] = (100, 200, 300, 400, 500),
    seed: int = 23,
    repeats: int = 3,
) -> Tuple[Headers, Rows]:
    """Join and projection runtimes with and without history maintenance.

    The paper reports a 5-20% overhead for correctness; ignoring histories
    is faster but yields wrong answers (Figure 3).  Each configuration runs
    ``repeats`` times and the minimum is reported (timing-noise control).
    """

    def best(n: int, use_history: bool) -> Tuple[float, float]:
        samples = [
            _history_workload(n, use_history=use_history, seed=seed)
            for _ in range(repeats)
        ]
        return min(s[0] for s in samples), min(s[1] for s in samples)

    rows: Rows = []
    for n in tuple_counts:
        join_with, project_with = best(n, True)
        join_without, project_without = best(n, False)
        overhead = (
            (join_with + project_with) / (join_without + project_without) - 1.0
            if (join_without + project_without) > 0
            else 0.0
        )
        rows.append(
            [n, join_with, join_without, project_with, project_without, overhead * 100.0]
        )
    headers = [
        "tuples",
        "join_hist_s",
        "join_nohist_s",
        "proj_hist_s",
        "proj_nohist_s",
        "overhead_pct",
    ]
    return headers, rows
