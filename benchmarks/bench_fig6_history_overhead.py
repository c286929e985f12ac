"""Figure 6 — Overhead of Histories.

Regenerates the paper's final experiment: joins over range queries (which
involve floors and products of historically dependent pdfs) and projections
of the resulting correlated data (collapsing the 2-D pdfs), with and without
the history machinery.  The paper reports a 5-20% end-to-end overhead and
notes that ignoring histories yields incorrect answers (Figure 3).

Run: ``pytest benchmarks/bench_fig6_history_overhead.py --benchmark-only -q``
"""

import pytest

from repro.bench.figures import _history_workload, fig6_history_overhead
from repro.bench.reporting import print_figure
from repro.core import operations

TUPLES = 300


def _shared_ancestor_products(use_history, monkeypatch):
    """How many ``product`` calls of the Figure 6 workload (100 tuples)
    found an ancestor shared by two of their inputs, and read it."""
    count = 0
    group = operations._group_shared_ancestors

    def counting(lineages):
        nonlocal count
        shared = group(lineages)
        count += bool(shared)
        return shared

    with monkeypatch.context() as patch:
        patch.setattr(operations, "_group_shared_ancestors", counting)
        _history_workload(100, use_history=use_history, seed=23)
    return count


def bench_fig6_series(benchmark, capsys, monkeypatch):
    """Regenerate and print the full Figure 6 data series."""
    headers, rows = benchmark.pedantic(
        lambda: fig6_history_overhead(tuple_counts=(100, 200, 300, 400, 500)),
        rounds=1,
        iterations=1,
    )
    with capsys.disabled():
        print()
        print_figure("Figure 6: Overhead of Histories", headers, rows)
    idx = {h: i for i, h in enumerate(headers)}
    for row in rows:
        # Correctness overhead stays bounded (paper: 5-20%).
        assert row[idx["overhead_pct"]] < 150.0
    # With histories the join phase does strictly more work: products that
    # repair a shared ancestor, which the run without histories never does.
    assert _shared_ancestor_products(True, monkeypatch) > 0
    assert _shared_ancestor_products(False, monkeypatch) == 0


def bench_fig6_join_with_histories(benchmark):
    benchmark.pedantic(
        lambda: _history_workload(TUPLES, use_history=True, seed=23),
        rounds=3,
        iterations=1,
    )


def bench_fig6_join_without_histories(benchmark):
    benchmark.pedantic(
        lambda: _history_workload(TUPLES, use_history=False, seed=23),
        rounds=3,
        iterations=1,
    )
