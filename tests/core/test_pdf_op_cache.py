"""Pdf fingerprints and the LRU pdf-op cache."""

import pytest

from repro.core import Column, DataType, ProbabilisticRelation, ProbabilisticSchema
from repro.core.operations import (
    PDF_OP_CACHE,
    PdfOpCache,
    cached_marginalize,
    cached_mass,
)
from repro.core.predicates import And, Comparison
from repro.core.select import SelectionPlan
from repro.core.threshold import probability_of
from repro.pdf.kernels import FAMILY_PARAMS, interval_probs_params
from repro.pdf import (
    DiscretePdf,
    FlooredPdf,
    GaussianPdf,
    HistogramPdf,
    Interval,
    IntervalSet,
    UniformPdf,
)


@pytest.fixture(autouse=True)
def _clean_cache():
    PDF_OP_CACHE.reset()
    yield
    PDF_OP_CACHE.reset()


class TestFingerprint:
    def test_equal_pdfs_share_fingerprint(self):
        assert GaussianPdf(3, 2).fingerprint() == GaussianPdf(3, 2).fingerprint()
        assert (
            DiscretePdf({0.0: 0.5, 1.0: 0.5}).fingerprint()
            == DiscretePdf({0.0: 0.5, 1.0: 0.5}).fingerprint()
        )
        assert (
            HistogramPdf([0, 1, 2], [0.4, 0.6]).fingerprint()
            == HistogramPdf([0, 1, 2], [0.4, 0.6]).fingerprint()
        )

    def test_different_params_differ(self):
        assert GaussianPdf(3, 2).fingerprint() != GaussianPdf(3, 2.5).fingerprint()
        assert GaussianPdf(3, 2).fingerprint() != UniformPdf(1, 5).fingerprint()
        assert (
            GaussianPdf(3, 2, attr="x").fingerprint()
            != GaussianPdf(3, 2, attr="y").fingerprint()
        )

    def test_floored_fingerprint_composes_base_and_allowed(self):
        g = GaussianPdf(0, 1)
        a1 = IntervalSet([Interval(0, 1)])
        a2 = IntervalSet([Interval(0, 2)])
        assert FlooredPdf(g, a1).fingerprint() == FlooredPdf(GaussianPdf(0, 1), a1).fingerprint()
        assert FlooredPdf(g, a1).fingerprint() != FlooredPdf(g, a2).fingerprint()

    def test_fingerprint_memoised_on_instance(self):
        g = GaussianPdf(1, 1)
        assert g.fingerprint() is g.fingerprint()


class TestPdfOpCache:
    def test_hit_miss_counting(self):
        g = GaussianPdf(0, 1)
        f = FlooredPdf(g, IntervalSet([Interval(0, 1)]))
        m1 = cached_mass(f)
        assert PDF_OP_CACHE.misses == 1 and PDF_OP_CACHE.hits == 0
        m2 = cached_mass(FlooredPdf(GaussianPdf(0, 1), IntervalSet([Interval(0, 1)])))
        assert PDF_OP_CACHE.hits == 1
        assert m1 == m2 == f.mass()

    def test_interval_masses_share_keys_with_floored_mass(self):
        """What ``apply`` stores is what a ``PROB`` over its survivor asks for
        (a ``PROB`` term of ``Filter`` selects, then measures): the second ask is a hit, and
        the value is the one the kernel computes for the same row."""
        g = GaussianPdf(0, 1)
        allowed = IntervalSet([Interval(-1, 1, closed_lo=False, closed_hi=False)])
        schema = ProbabilisticSchema([Column("x", DataType.REAL)], [{"x"}])
        rel = ProbabilisticRelation(schema)
        t = rel.insert(certain={}, uncertain={"x": g})
        plan = SelectionPlan(schema, And([Comparison("x", ">", -1), Comparison("x", "<", 1)]))
        survivor = plan.apply(t, rel.store)
        assert (PDF_OP_CACHE.misses, PDF_OP_CACHE.hits) == (1, 0)
        m = probability_of(survivor, rel.store)
        assert (PDF_OP_CACHE.misses, PDF_OP_CACHE.hits) == (1, 1)  # same key, no recompute
        assert m == cached_mass(FlooredPdf(g, allowed))
        assert m == interval_probs_params(GaussianPdf, FAMILY_PARAMS[GaussianPdf]([g]), allowed)[0]

    def test_cached_masses_batch(self):
        pdfs = [FlooredPdf(GaussianPdf(i, 1), IntervalSet([Interval(0, 1)])) for i in range(5)]
        first = [cached_mass(p) for p in pdfs]
        assert PDF_OP_CACHE.misses == 5
        second = [cached_mass(p) for p in pdfs]
        assert PDF_OP_CACHE.hits == 5
        assert first == second == [p.mass() for p in pdfs]

    def test_cached_marginalize_returns_same_object_on_hit(self):
        g = GaussianPdf(0, 1, attr="x")
        a = cached_marginalize(g, ["x"])
        b = cached_marginalize(GaussianPdf(0, 1, attr="x"), ["x"])
        assert a is b

    def test_lru_eviction(self):
        cache = PdfOpCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b becomes LRU
        cache.put("c", 3)
        assert len(cache) == 2
        before = cache.misses
        cache.get("b")
        assert cache.misses == before + 1  # b was the LRU entry and got evicted
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_reset_zeroes_counters_and_entries(self):
        cached_mass(FlooredPdf(GaussianPdf(0, 1), IntervalSet([Interval(0, 1)])))
        PDF_OP_CACHE.reset()
        assert PDF_OP_CACHE.hits == 0
        assert PDF_OP_CACHE.misses == 0
        assert len(PDF_OP_CACHE) == 0

    def test_configure_shrinks(self):
        cache = PdfOpCache(maxsize=10)
        for i in range(10):
            cache.put(i, i)
        cache.configure(3)
        assert len(cache) == 3
        assert cache.maxsize == 3

    def test_stats_hit_rate(self):
        cache = PdfOpCache()
        assert cache.stats()["hit_rate"] == 0.0
        cache.put("k", 1)
        cache.get("k")
        cache.get("missing")
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5


class TestThreadSafety:
    def test_concurrent_put_get_respects_bound(self):
        """Hammering one small cache from many threads must neither corrupt
        the LRU order dict nor let it grow past maxsize (PDF_OP_CACHE is
        process-wide, shared by every thread that queries)."""
        import threading

        cache = PdfOpCache(maxsize=32)
        errors = []

        def worker(seed):
            try:
                for i in range(2000):
                    key = ("k", (seed * 7 + i) % 100)
                    cache.get(key)
                    cache.put(key, i)
                    assert len(cache) <= 32
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 32
        stats = cache.stats()
        assert stats["hits"] + stats["misses"] == 8 * 2000

    def test_concurrent_eviction_keeps_counters_consistent(self):
        import threading

        cache = PdfOpCache(maxsize=4)
        barrier = threading.Barrier(4)

        def worker(seed):
            barrier.wait()
            for i in range(500):
                cache.put((seed, i), i)
                cache.get((seed, i))
                cache.get((seed, i - 1))

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(cache) <= 4
        # Every get incremented exactly one counter.
        assert cache.hits + cache.misses == 4 * 500 * 2
