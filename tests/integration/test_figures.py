"""Shape tests for the paper's figures (tiny parameters, assertions on trends)."""

import pytest

from repro.bench.figures import _history_workload, fig4_accuracy, fig5_discretized_performance
from repro.core import operations


class TestFigure4:
    @pytest.fixture(scope="class")
    def data(self):
        headers, rows = fig4_accuracy(
            sample_sizes=(2, 5, 10, 25), n_pdfs=30, n_queries=30, seed=7
        )
        return headers, {int(r[0]): r[1:] for r in rows}

    def test_histogram_beats_discrete_at_every_size(self, data):
        headers, by_size = data
        for size, (hist_err, _, disc_err, _) in by_size.items():
            if size >= 5:
                assert hist_err < disc_err, size

    def test_errors_shrink_with_size(self, data):
        headers, by_size = data
        sizes = sorted(by_size)
        hist_errors = [by_size[s][0] for s in sizes]
        disc_errors = [by_size[s][2] for s in sizes]
        assert hist_errors[0] > hist_errors[-1]
        assert disc_errors[0] > disc_errors[-1]

    def test_paper_hist5_accuracy_band(self, data):
        """The paper: ~5 buckets give accuracy around ±0.01 probability mass."""
        headers, by_size = data
        assert by_size[5][0] < 0.02

    def test_paper_disc25_comparable_to_hist5(self, data):
        """The paper: discrete needs >25 points to reach hist-5 accuracy."""
        headers, by_size = data
        assert by_size[25][2] < 2 * by_size[5][0]

    def test_discrete_error_variance_higher(self, data):
        headers, by_size = data
        for size in (5, 10, 25):
            hist_std = by_size[size][1]
            disc_std = by_size[size][3]
            assert disc_std > hist_std, size


class TestFigure5:
    @pytest.fixture(scope="class")
    def data(self):
        headers, rows = fig5_discretized_performance(
            tuple_counts=(200, 800), n_queries=4, buffer_pages=64, seed=11
        )
        return headers, rows

    def test_discrete_has_most_io(self, data):
        headers, rows = data
        idx = {h: i for i, h in enumerate(headers)}
        for row in rows:
            assert row[idx["disc25_io"]] > row[idx["hist5_io"]]
            assert row[idx["hist5_io"]] > row[idx["symbolic_io"]]

    def test_discrete_cost_rises_steepest(self, data):
        headers, rows = data
        idx = {h: i for i, h in enumerate(headers)}
        small, large = rows[0], rows[-1]
        disc_growth = large[idx["disc25_cost"]] / small[idx["disc25_cost"]]
        hist_growth = large[idx["hist5_cost"]] / small[idx["hist5_cost"]]
        assert disc_growth > hist_growth

    def test_symbolic_cheapest_at_scale(self, data):
        headers, rows = data
        idx = {h: i for i, h in enumerate(headers)}
        large = rows[-1]
        assert large[idx["symbolic_cost"]] < large[idx["disc25_cost"]]


class TestFigure6:
    """History work, counted rather than timed: two sub-0.05 s wall-clock
    timings of one box say nothing stable (``repro.bench fig6`` still prints
    the timing series)."""

    SIZES = (100, 200)

    @pytest.fixture(scope="class")
    def repairs(self):
        """``{(tuples, use_history): product calls that found an ancestor
        shared by two of their inputs}`` over the Figure 6 workload."""
        group = operations._group_shared_ancestors
        counts = {}
        for n in self.SIZES:
            for use_history in (True, False):
                found = 0

                def counting(lineages):
                    nonlocal found
                    shared = group(lineages)
                    found += bool(shared)
                    return shared

                operations._group_shared_ancestors = counting
                try:
                    _history_workload(n, use_history=use_history, seed=23)
                finally:
                    operations._group_shared_ancestors = group
                counts[n, use_history] = found
        return counts

    def test_history_join_is_slower(self, repairs):
        """With histories the join repairs shared ancestors; without, never."""
        for n in self.SIZES:
            assert repairs[n, True] > 0, n
            assert repairs[n, False] == 0, n

    def test_overhead_is_bounded(self, repairs):
        """Correctness costs at most one repaired product per base tuple:
        rids are unique, so each tuple joins its own rid at most once."""
        for n in self.SIZES:
            assert repairs[n, True] <= n, (n, repairs[n, True])
