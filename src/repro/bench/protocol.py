"""Cold measurement protocol shared by every benchmark.

A *cold* run measures the steady disk-bound regime the paper reports:
nothing survives from previous queries, so every page is fetched through
the buffer pool and every pdf operation is recomputed.

All benchmarks (``benchmarks/bench_*.py``) and the figure experiments in
:mod:`repro.bench.figures` go through :func:`cold_start` so the reset
sequence — ``BufferPool.clear()`` + ``BufferPool.reset_stats()`` +
``PDF_OP_CACHE.reset()`` + ``gc.collect()`` — stays uniform.  Table
metadata stays, as indexes do: page synopses, and the row columns earlier
scans filled in them.
"""

from __future__ import annotations

import gc
from typing import Dict

from ..core.operations import PDF_OP_CACHE

__all__ = ["cold_start", "pdf_cache_stats"]


def cold_start(db) -> None:
    """Reset ``db`` to a cold state: empty buffer pool, zeroed counters,
    empty pdf-op cache.  Dirty pages are flushed first, never lost.  The
    heap is collected last, so a collection the set-up's garbage would
    trigger does not land in the measured region."""
    db.catalog.pool.clear()
    db.catalog.pool.reset_stats()
    PDF_OP_CACHE.reset()
    gc.collect()


def pdf_cache_stats() -> Dict[str, float]:
    """Snapshot of the process-wide pdf-op cache counters."""
    return PDF_OP_CACHE.stats()
