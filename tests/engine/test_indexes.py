"""Index tests: B+tree correctness and PROB-index (ladder) pruning soundness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.index.btree import BPlusTree
from repro.engine.index.pti import LADDER, ladder, quantile_of
from repro.engine.storage.heapfile import RID
from repro.engine.storage.serialize import dep_summary
from repro.engine.storage.synopsis import PageSynopsis, ScanPruner
from repro.errors import IndexError_
from repro.pdf import (
    BoxRegion,
    DiscretePdf,
    GaussianPdf,
    HistogramPdf,
    IntervalSet,
    UniformPdf,
)


def _rid(i):
    return RID(i, 0)


def _slot(i):
    return RID(0, i)


class TestBPlusTree:
    def test_insert_search(self):
        tree = BPlusTree(order=4)
        for i in range(20):
            tree.insert(i, _rid(i))
        assert tree.search(7) == [_rid(7)]
        assert tree.search(99) == []
        assert len(tree) == 20

    def test_duplicates(self):
        tree = BPlusTree(order=4)
        tree.insert(5, _rid(1))
        tree.insert(5, _rid(2))
        assert sorted(tree.search(5)) == [_rid(1), _rid(2)]

    def test_range_scan_sorted(self):
        tree = BPlusTree(order=4)
        import random

        values = list(range(100))
        random.Random(7).shuffle(values)
        for v in values:
            tree.insert(v, _rid(v))
        got = [k for k, _ in tree.range_scan(10, 20)]
        assert got == list(range(10, 21))

    def test_range_scan_exclusive_bounds(self):
        tree = BPlusTree(order=4)
        for v in range(10):
            tree.insert(v, _rid(v))
        got = [k for k, _ in tree.range_scan(3, 7, include_lo=False, include_hi=False)]
        assert got == [4, 5, 6]

    def test_range_scan_unbounded(self):
        tree = BPlusTree(order=4)
        for v in (5, 1, 9):
            tree.insert(v, _rid(v))
        assert [k for k, _ in tree.range_scan()] == [1, 5, 9]
        assert [k for k, _ in tree.range_scan(hi=5)] == [1, 5]
        assert [k for k, _ in tree.range_scan(lo=5)] == [5, 9]

    def test_string_keys(self):
        tree = BPlusTree(order=4)
        for word in ["pear", "apple", "mango"]:
            tree.insert(word, _rid(hash(word) % 100))
        assert [k for k, _ in tree.range_scan()] == ["apple", "mango", "pear"]

    def test_delete(self):
        tree = BPlusTree(order=4)
        tree.insert(5, _rid(1))
        tree.insert(5, _rid(2))
        assert tree.delete(5, _rid(1))
        assert tree.search(5) == [_rid(2)]
        assert not tree.delete(5, _rid(1))
        assert tree.delete(5, _rid(2))
        assert tree.search(5) == []

    def test_depth_grows(self):
        tree = BPlusTree(order=4)
        for i in range(200):
            tree.insert(i, _rid(i))
        assert tree.depth() >= 3
        tree.check_invariants()

    def test_order_validation(self):
        with pytest.raises(IndexError_):
            BPlusTree(order=2)


@settings(max_examples=30, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=-1000, max_value=1000), min_size=1, max_size=300),
    lo=st.integers(min_value=-1000, max_value=1000),
    hi=st.integers(min_value=-1000, max_value=1000),
)
def test_btree_matches_sorted_list(keys, lo, hi):
    tree = BPlusTree(order=6)
    for i, k in enumerate(keys):
        tree.insert(k, _rid(i))
    tree.check_invariants()
    lo, hi = min(lo, hi), max(lo, hi)
    got = sorted(k for k, _ in tree.range_scan(lo, hi))
    expected = sorted(k for k in keys if lo <= k <= hi)
    assert got == expected


class TestQuantileOf:
    def test_gaussian_uses_closed_form(self):
        g = GaussianPdf(10, 4)
        assert quantile_of(g, 0.5) == (pytest.approx(10.0), pytest.approx(10.0))

    def test_histogram_bisection(self):
        h = HistogramPdf([0, 10], [1.0])
        below, above = quantile_of(h, 0.25)
        assert below <= 2.5 <= above and above - below < 1e-12

    def test_floored_partial(self):
        g = GaussianPdf(0, 1).restrict(BoxRegion({"x": IntervalSet.less_than(0)}))
        below, above = quantile_of(g, 0.25)
        assert float(g.cdf(below)) < 0.25 <= float(g.cdf(above))
        assert float(g.cdf(above)) == pytest.approx(0.25, abs=1e-12)

    def test_atoms_and_flat_stretches(self):
        """The bracket's ends straddle a cdf jump and sit at the left end of
        a flat stretch, whatever ``q`` the jump or stretch covers."""
        d = DiscretePdf({1.0: 0.5, 2.0: 0.5})
        assert quantile_of(d, [0.25, 0.5])[1].tolist() == [1.0, 1.0]  # the least atom
        for q in (0.5 + 1e-9, 0.75, 1.0):
            below, above = quantile_of(d, q)
            assert below < 2.0 and float(above) == pytest.approx(2.0, abs=1e-12)
        h = HistogramPdf([0, 1, 2, 3], [0.5, 0.0, 0.5])
        below, above = quantile_of(h, 0.5)
        assert below <= 1.0 <= above and above - below < 1e-12


def _page_with(pdfs, slots=None):
    """A page synopsis holding ``pdfs`` (on ``x``) at ``slots``, with the
    PROB index's ladder column on ``x``."""
    syn = PageSynopsis({"x"})
    for slot, pdf in zip(range(len(pdfs)) if slots is None else slots, pdfs):
        syn.add(slot, {}, [dep_summary(frozenset({"x"}), pdf)], {"x": ladder(pdf, "x")})
    return syn


def _page_admits(syn, lo, hi, threshold=0.0):
    """The slots whose ladder admits ``P(x in [lo, hi]) >= threshold``."""
    keep = ScanPruner(index=("x", lo, hi, threshold)).admitted(syn.rows)
    return [slot for slot, ok in zip(syn.rows.slots, keep) if ok]


class TestPti:
    """The PROB index's ladder test on one page's ladder column."""

    def _index_with(self, pdfs):
        return _page_with(pdfs)

    def _admitted(self, syn, lo, hi, threshold=0.0):
        """The RIDs the ladder admits on page 0."""
        return [RID(0, slot) for slot in _page_admits(syn, lo, hi, threshold)]

    def test_support_pruning(self):
        index = self._index_with([GaussianPdf(10, 1), GaussianPdf(50, 1)])
        assert self._admitted(index, 45, 55) == [_slot(1)]

    def test_threshold_pruning(self):
        # Gaussian(10,1): P(in [14, 20]) is tiny; prune at threshold 0.5.
        index = self._index_with([GaussianPdf(10, 1), GaussianPdf(15, 1)])
        assert self._admitted(index, 14, 20, threshold=0.5) == [_slot(1)]

    def test_pages_are_separate(self):
        pages = [
            _page_with([GaussianPdf(10, 1)], [3]),
            _page_with([GaussianPdf(52, 1), GaussianPdf(50, 1)], [0, 3]),
            _page_with([]),
        ]
        assert [_page_admits(syn, 45, 55) for syn in pages] == [[], [0, 3], []]

    def test_soundness_never_prunes_qualifying(self):
        """The index invariant: every qualifying record survives pruning."""
        rng = np.random.default_rng(5)
        pdfs = [
            GaussianPdf(float(rng.uniform(0, 100)), float(rng.uniform(0.5, 9)))
            for _ in range(60)
        ]
        index = self._index_with(pdfs)
        for _ in range(40):
            lo = float(rng.uniform(0, 100))
            hi = lo + float(rng.uniform(0.5, 20))
            threshold = float(rng.uniform(0, 0.9))
            window = IntervalSet.between(lo, hi)
            cands = set(self._admitted(index, lo, hi, threshold))
            for i, pdf in enumerate(pdfs):
                exact = pdf.prob_interval(window)
                if exact >= threshold and exact > 0:
                    assert _slot(i) in cands, (lo, hi, threshold, i)

    def test_pruning_actually_prunes(self):
        pdfs = [GaussianPdf(float(m), 1.0) for m in range(0, 100, 5)]
        index = self._index_with(pdfs)
        assert len(self._admitted(index, 40, 45, threshold=0.5)) < 0.5 * len(pdfs)

    def test_delete(self):
        index = self._index_with([UniformPdf(0, 1)])
        assert self._admitted(index, 0, 1) == [_slot(0)]
        index.remove(0)
        assert self._admitted(index, 0, 1) == [] and index.rows.columns["x"].shape == (3 + 2 * len(LADDER), 0)

    def test_empty_range(self):
        index = self._index_with([UniformPdf(0, 1)])
        assert self._admitted(index, 5, 4) == []

    def test_ladder_validation(self):
        """The ladder is a constant: level 0 is the support hull, the rest
        are ascending thresholds in (0, 1)."""
        assert LADDER[0] == 0.0
        assert list(LADDER) == sorted(set(LADDER)) and LADDER[-1] < 1.0

    def test_partial_pdfs_indexed(self):
        partial = GaussianPdf(10, 1).restrict(
            BoxRegion({"x": IntervalSet.less_than(10)})
        )
        index = self._index_with([partial])
        assert self._admitted(index, 5, 9, threshold=0.2) == [_slot(0)]
        # Mass above 10 is floored away entirely.
        assert self._admitted(index, 11, 20, threshold=0.2) == []
