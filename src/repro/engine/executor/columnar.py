"""ColumnarBatch: a TupleBatch that carries a struct-of-arrays view.

Every scan emits these.  The batch still owns its tuple list — an operator
that only reads ``.tuples`` works unchanged — but it additionally references a
:class:`~repro.core.columnar.ColumnarSegment` (usually cached on the source
relation or built per page chunk) plus its row offset into that segment, so
columnar-aware operators (Filter, ProbFilter, ThresholdFilter) can fetch
per-family parameter arrays for their dependency set without touching the
tuples at all.

Operators that rebuild plain :class:`TupleBatch` es (joins, filters) drop the
view; a columnar-aware consumer above them re-wraps the tuples with
:meth:`ColumnarBatch.of`, so every batch a kernel sees has columns.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Sequence, Tuple

import numpy as np

from ...core.columnar import AttrColumn, ColumnarSegment
from .batch import TupleBatch

__all__ = ["ColumnarBatch"]


class ColumnarBatch(TupleBatch):
    """A batch of tuples plus a (possibly shared) columnar segment view.

    ``segment`` may cover a larger span than this batch; ``offset`` locates
    the batch's rows inside it.  ``segment=None`` means "build one lazily
    from my own tuples on first column access" — scans over ad-hoc tuple
    lists use this so the gather cost is only paid if a columnar operator
    actually asks for columns.
    """

    __slots__ = ("segment", "offset")

    def __init__(
        self,
        tuples: Sequence,
        segment: Optional[ColumnarSegment] = None,
        offset: int = 0,
    ):
        self.tuples = tuples if type(tuples) is list else list(tuples)
        self.segment = segment
        self.offset = offset

    @classmethod
    def of(cls, batch: TupleBatch) -> "ColumnarBatch":
        """``batch`` itself when a scan gave it columns, else a lazy view of its tuples."""
        return batch if type(batch) is cls else cls(batch.tuples)

    def attr_column(self, dep: FrozenSet[str]) -> Optional[AttrColumn]:
        """The per-family parameter view of ``dep`` for this batch's rows.

        ``None`` signals "columns unavailable" (the shared segment is a
        stale snapshot that no longer covers these rows); callers must then
        fall back to the tuple path.
        """
        seg = self.segment
        if seg is None:
            seg = self.segment = ColumnarSegment(self.tuples)
            self.offset = 0
        stop = self.offset + len(self.tuples)
        if stop > seg.n:
            return None
        col = seg.column(dep)
        if self.offset == 0 and stop == seg.n:
            return col
        return col.slice(self.offset, stop)

    def certain_column(self, attr: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(values, null_mask)`` for a numeric certain column of this batch."""
        seg = self.segment
        if seg is None:
            seg = self.segment = ColumnarSegment(self.tuples)
            self.offset = 0
        out = seg.certain_column(attr)
        if out is None:
            return None
        lo, hi = self.offset, self.offset + len(self.tuples)
        return out[0][lo:hi], out[1][lo:hi]

    def __repr__(self) -> str:
        return f"ColumnarBatch({len(self.tuples)} tuples)"
