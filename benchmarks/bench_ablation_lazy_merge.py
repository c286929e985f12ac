"""Ablation A2 — lazy vs eager merging of history-implied dependencies.

Section III-D leaves a strategy choice to the implementation: after a join,
the dependencies implied by Λ can be collapsed into Δ *eagerly* (paying the
product up front, making later reads cheap) or *lazily* (cheap join, later
operations repair from ancestors on demand).  This ablation measures both
strategies on a Figure-3-style workload followed by a probability probe of
every result tuple.

Run: ``pytest benchmarks/bench_ablation_lazy_merge.py --benchmark-only -q``
"""

import pytest

from repro.bench.reporting import print_figure
from repro.core import (
    ModelConfig,
    collapse_history,
    cross_product,
    existence_probability,
    project,
)
from repro.workloads import generate_readings, load_readings_relation

N = 80


def _build_crossed(n):
    readings = generate_readings(n, seed=41)
    base = load_readings_relation(readings, representation="discrete", size=3)
    ta = project(base, ["value"])
    from repro.core import prefix_attrs

    return cross_product(
        prefix_attrs(ta, "l"), prefix_attrs(project(base, ["rid"]), "r")
    )


def _probe_all(rel, config):
    return sum(existence_probability(rel, t, config) for t in rel.tuples)


def bench_lazy_join_then_probe(benchmark):
    config = ModelConfig()

    def run():
        crossed = _build_crossed(N)
        return _probe_all(crossed, config)

    benchmark.pedantic(run, rounds=2, iterations=1)


def bench_eager_join_then_probe(benchmark):
    config = ModelConfig()

    def run():
        crossed = _build_crossed(N)
        collapsed = collapse_history(crossed, config)
        return _probe_all(collapsed, config)

    benchmark.pedantic(run, rounds=2, iterations=1)


def bench_ablation_a2_report(benchmark, capsys):
    """Both strategies agree on every probability; costs differ."""
    import time

    config = ModelConfig()

    def run():
        crossed = _build_crossed(N)
        t0 = time.perf_counter()
        lazy_total = _probe_all(crossed, config)
        t1 = time.perf_counter()
        collapsed = collapse_history(crossed, config)
        mid = time.perf_counter()
        eager_total = _probe_all(collapsed, config)
        t2 = time.perf_counter()
        return (t1 - t0, lazy_total, (t2 - t1), mid - t1, eager_total)

    lazy_s, lazy_total, eager_s, collapse_s, eager_total = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    with capsys.disabled():
        print()
        print_figure(
            "Ablation A2: lazy vs eager dependency merging",
            ["variant", "probe_seconds", "total_probability"],
            [
                ["lazy", lazy_s, lazy_total],
                [f"eager (collapse {collapse_s:.3f}s)", eager_s, eager_total],
            ],
        )
    assert lazy_total == pytest.approx(eager_total, rel=1e-6)
