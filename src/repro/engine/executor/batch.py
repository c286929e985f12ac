"""Batched execution: TupleBatch and the chunking helpers.

The pipeline moves vectors of tuples between operators instead of one tuple
per ``next()`` call: each operator implements
``batches(size) -> Iterator[TupleBatch]`` (scans decode a pinned page at a
time, filters hand whole batches to the vectorized selection kernels), and
iterating an operator flattens its batches.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, List, Optional, Sequence

from ...core.columnar import AttrColumn, ColumnarSegment
from ...core.model import ProbabilisticTuple

__all__ = ["DEFAULT_BATCH_SIZE", "TupleBatch", "batched", "flatten"]

#: Tuples per batch: how many share one page-decode chunk and one kernel
#: sweep.  ``Database`` always runs at this size; ``batches(size)`` takes any
#: size >= 1, and every size returns the same rows.
DEFAULT_BATCH_SIZE = 256


class TupleBatch:
    """An ordered vector of probabilistic tuples flowing through the pipeline.

    Deliberately thin — a named wrapper over a list — so that operators can
    slice, extend and rebuild batches without copying overhead.  Batches are
    never empty except transiently inside operators; the chunking helpers
    only emit non-empty batches.

    ``segment`` is the struct-of-arrays view of exactly these tuples
    (:class:`~repro.core.columnar.ColumnarSegment`): a stored-table scan
    hands over the one its page decode built, every other batch builds its
    own the first time a kernel asks for a column — a batch nobody sweeps
    never pays the gather.
    """

    __slots__ = ("tuples", "segment")

    def __init__(
        self,
        tuples: Sequence[ProbabilisticTuple],
        segment: Optional[ColumnarSegment] = None,
    ):
        # No-copy fast path: every constructor call site hands over a list
        # it will not mutate afterwards (fresh slices, comprehensions, or
        # buffers it immediately rebinds), so copying again is pure waste
        # on the hot batch path.  Non-list sequences still get materialized.
        self.tuples = tuples if type(tuples) is list else list(tuples)
        self.segment = segment

    def attr_column(self, dep: FrozenSet[str]) -> AttrColumn:
        """The per-family parameter view of ``dep`` for this batch's rows."""
        seg = self.segment
        if seg is None:
            seg = self.segment = ColumnarSegment(self.tuples)
        return seg.column(dep)

    def __len__(self) -> int:
        return len(self.tuples)


def batched(
    source: Iterable[ProbabilisticTuple], size: int = DEFAULT_BATCH_SIZE
) -> Iterator[TupleBatch]:
    """Chunk a tuple iterable into :class:`TupleBatch` es of at most ``size``."""
    if size < 1:
        raise ValueError(f"batch size must be >= 1, got {size}")
    buf: List[ProbabilisticTuple] = []
    for t in source:
        buf.append(t)
        if len(buf) >= size:
            yield TupleBatch(buf)
            buf = []
    if buf:
        yield TupleBatch(buf)


def flatten(batches: Iterable[TupleBatch]) -> Iterator[ProbabilisticTuple]:
    """The inverse of :func:`batched`: stream the tuples of a batch iterable."""
    for batch in batches:
        yield from batch.tuples
