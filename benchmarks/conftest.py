"""Shared benchmark fixtures, result reporting, and the cold/warm protocol.

Each ``bench_fig*.py`` regenerates one of the paper's figures: the
pytest-benchmark entries time the figure's workload kernels, and a summary
hook prints the full figure series (the same rows ``python -m repro.bench``
emits) so benchmark runs double as reproduction runs.

Cold measurement protocol
-------------------------

Benchmarks that touch a :class:`~repro.engine.database.Database` measure
the cold regime and reset through :mod:`repro.bench.protocol` — never by
poking pool internals directly: ``cold_start(db)`` flushes and drops every
buffer-pool frame (``BufferPool.clear()``), zeroes the pool and disk
counters (``BufferPool.reset_stats()``), empties the pdf-op memo cache
(``PDF_OP_CACHE.reset()``) and collects the heap (``gc.collect()``).  Every
page read and every pdf operation in the measured region is then paid for,
matching the paper's disk-bound setup, and no collection the set-up's
garbage triggers lands in it.  Used by the figure workloads and the access-path ablations.

The ``cold_db`` fixture below applies the cold protocol to a database the
benchmark built beforehand.
"""

import pytest

from repro.bench.protocol import cold_start


def pytest_collection_modifyitems(items):
    # Benchmarks run in definition order; keep figure order stable.
    items.sort(key=lambda item: item.fspath.basename)


@pytest.fixture
def cold_db():
    """Callable fixture: ``cold_db(db)`` resets ``db`` per the cold protocol
    and returns it, for use inside timed benchmark closures."""

    def _cold(db):
        cold_start(db)
        return db

    return _cold
