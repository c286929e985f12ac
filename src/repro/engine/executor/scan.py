"""Scan operators: sequential, B+tree, and probability-threshold index scans."""

from __future__ import annotations

from typing import Iterator, List, Optional

from ...core.model import ProbabilisticRelation, ProbabilisticTuple
from ...errors import QueryError
from ..storage.synopsis import ScanPruner
from ..table import Table
from .base import Operator
from .batch import DEFAULT_BATCH_SIZE, TupleBatch
from .columnar import ColumnarBatch

__all__ = ["SeqScan", "BTreeScan", "PtiScan", "SpatialScan", "RelationScan"]


def _rid_batches(
    table: Table, rids: Iterator, size: int, columnar: bool = True
) -> Iterator[TupleBatch]:
    """Chunk an RID stream into decoded TupleBatches via grouped page reads."""
    buf = []
    for t in table.read_grouped(rids):
        buf.append(t)
        if len(buf) >= size:
            yield ColumnarBatch(buf) if columnar else TupleBatch(buf)
            buf = []
    if buf:
        yield ColumnarBatch(buf) if columnar else TupleBatch(buf)


class _ColumnarScanMixin:
    """Shared EXPLAIN counters: batches emitted columnar vs. tuple-path."""

    columnar_batches: int = 0
    fallback_batches: int = 0

    def _columnar_extras(self) -> List[str]:
        total = self.columnar_batches + self.fallback_batches
        if not total:
            return []
        return [f"columnar_batches={self.columnar_batches}/{total}"]


class RelationScan(_ColumnarScanMixin, Operator):
    """Scan an in-memory probabilistic relation (no storage involved).

    Lets the executor operators run over :class:`ProbabilisticRelation`
    values produced by the model API — used by benchmarks and by users who
    want operator trees without a stored table.  With ``columnar`` on (the
    default) batches share the relation's cached
    :class:`~repro.core.columnar.ColumnarSegment`, so the per-family
    parameter gather is paid once per relation version, not once per scan.
    """

    def __init__(self, relation: ProbabilisticRelation, columnar: bool = True):
        self.relation = relation
        self.columnar = columnar
        self.output_schema = relation.schema
        self.columnar_batches = 0
        self.fallback_batches = 0

    def __iter__(self) -> Iterator[ProbabilisticTuple]:
        return self._count_tuples(iter(self.relation.tuples))

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        def run():
            if self.columnar:
                # Slice the segment's snapshot, not the live tuple list, so
                # the row ↔ column alignment holds even if the relation
                # mutates mid-scan.
                seg = self.relation.columnar_segment()
                tuples = seg.tuples
                for start in range(0, len(tuples), size):
                    self.columnar_batches += 1
                    yield ColumnarBatch(tuples[start : start + size], seg, start)
                return
            tuples = self.relation.tuples
            for start in range(0, len(tuples), size):
                self.fallback_batches += 1
                yield TupleBatch(tuples[start : start + size])

        return self._count_batches(run())

    def explain_extras(self) -> List[str]:
        return self._columnar_extras()

    def label(self) -> str:
        name = self.relation.name or "<anonymous>"
        return f"RelationScan({name})"


class SeqScan(_ColumnarScanMixin, Operator):
    """Sequential scan of a table, in page order.

    An optional :class:`ScanPruner` turns the full scan into a *pruned*
    scan: pages whose synopsis proves zero qualifying mass are skipped
    entirely, and with lazy decoding the pdf payloads of rejected tuples
    are never deserialized.  The pruner only drops tuples the plan's own
    filters would drop, so the query answer is unchanged.

    With ``columnar`` on, each decoded page chunk is wrapped in a
    :class:`ColumnarBatch` whose struct-of-arrays view is built lazily the
    first time a columnar operator asks for it — record format v5's lazy
    pdf payloads still decode per record, then gather into parameter arrays
    once per batch.
    """

    def __init__(
        self,
        table: Table,
        pruner: Optional[ScanPruner] = None,
        columnar: bool = True,
    ):
        self.table = table
        self.pruner = pruner
        self.columnar = columnar
        self.output_schema = table.schema
        #: (pages visited, total pages) of the last candidate computation
        self.page_stats: Optional[tuple] = None
        self.columnar_batches = 0
        self.fallback_batches = 0
        #: rows whose segment arrays were filled during the page decode walk
        #: (always 0 when ``columnar`` is off)
        self.direct_decode_rows = 0

    def candidate_page_ids(self) -> List[int]:
        """The pages this scan will visit (after synopsis pruning)."""
        pages = self.table.candidate_pages(self.pruner)
        self.page_stats = (len(pages), self.table.heap.num_pages)
        return pages

    def _pruned(self) -> bool:
        return self.pruner is not None and (
            self.pruner.prune_pages or self.pruner.lazy
        )

    def __iter__(self) -> Iterator[ProbabilisticTuple]:
        def run():
            if not self._pruned():
                for _rid, t in self.table.scan():
                    yield t
                return
            for chunk in self.table.scan_batches(
                DEFAULT_BATCH_SIZE, page_ids=self.candidate_page_ids(), pruner=self.pruner
            ):
                yield from chunk

        return self._count_tuples(run())

    def _wrap(self, chunk) -> TupleBatch:
        if self.columnar:
            self.columnar_batches += 1
            return ColumnarBatch(chunk)
        self.fallback_batches += 1
        return TupleBatch(chunk)

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        def run():
            page_ids = self.candidate_page_ids() if self._pruned() else None
            pruner = self.pruner if self._pruned() else None
            if self.columnar:
                # Direct decode: pages fill the segment's id/certain arrays
                # while the record prefixes deserialize.
                for chunk, seg in self.table.scan_segments(
                    size, page_ids=page_ids, pruner=pruner
                ):
                    self.columnar_batches += 1
                    self.direct_decode_rows += len(chunk)
                    yield ColumnarBatch(chunk, seg, 0)
                return
            for chunk in self.table.scan_batches(
                size, page_ids=page_ids, pruner=pruner
            ):
                yield self._wrap(chunk)

        return self._count_batches(run())

    def label(self) -> str:
        return f"SeqScan({self.table.name})"

    def explain_extras(self) -> List[str]:
        extras = []
        if self.pruner is not None and self.pruner.prune_pages:
            if self.page_stats is not None:
                visited, total = self.page_stats
                extras.append(f"pages={visited}/{total}")
            else:
                extras.append("pruned")
        if self.pruner is not None and self.pruner.lazy:
            extras.append("lazy")
        if self.direct_decode_rows:
            extras.append(f"direct_decode_rows={self.direct_decode_rows}")
        extras.extend(self._columnar_extras())
        return extras


class BTreeScan(_ColumnarScanMixin, Operator):
    """Range scan via a B+tree on a certain column.

    ``lo``/``hi`` of ``None`` leave that side unbounded.  Emits tuples in
    key order.
    """

    def __init__(
        self,
        table: Table,
        attr: str,
        lo=None,
        hi=None,
        include_lo: bool = True,
        include_hi: bool = True,
        columnar: bool = True,
    ):
        if attr not in table.btrees:
            raise QueryError(f"no B+tree index on {table.name}.{attr}")
        self.table = table
        self.attr = attr
        self.lo, self.hi = lo, hi
        self.include_lo, self.include_hi = include_lo, include_hi
        self.columnar = columnar
        self.output_schema = table.schema
        self.columnar_batches = 0
        self.fallback_batches = 0

    def _rids(self) -> Iterator:
        tree = self.table.btrees[self.attr]
        for _key, rid in tree.range_scan(self.lo, self.hi, self.include_lo, self.include_hi):
            yield rid

    def __iter__(self) -> Iterator[ProbabilisticTuple]:
        # Grouped reads pin a page once per run of same-page RIDs.
        return self._count_tuples(self.table.read_grouped(self._rids()))

    def _counted_rid_batches(self, size: int) -> Iterator[TupleBatch]:
        for batch in _rid_batches(self.table, self._rids(), size, self.columnar):
            if self.columnar:
                self.columnar_batches += 1
            else:
                self.fallback_batches += 1
            yield batch

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        return self._count_batches(self._counted_rid_batches(size))

    def explain_extras(self) -> List[str]:
        return self._columnar_extras()

    def label(self) -> str:
        return f"BTreeScan({self.table.name}.{self.attr} in [{self.lo}, {self.hi}])"


class SpatialScan(_ColumnarScanMixin, Operator):
    """Candidate scan via a spatial grid index over a joint dependency set.

    Yields records whose support bounding box intersects the query window;
    the caller verifies exactly (the planner stacks the real Filter above).
    """

    def __init__(self, table: Table, attrs, window, columnar: bool = True):
        attrs = tuple(attrs)
        if attrs not in table.spatials:
            raise QueryError(f"no spatial index on {table.name}{list(attrs)}")
        self.table = table
        self.attrs = attrs
        self.window = [(float(lo), float(hi)) for lo, hi in window]
        self.columnar = columnar
        self.output_schema = table.schema
        self.columnar_batches = 0
        self.fallback_batches = 0

    def _rids(self) -> Iterator:
        index = self.table.spatials[self.attrs]
        return iter(index.candidates(self.window))

    def __iter__(self) -> Iterator[ProbabilisticTuple]:
        return self._count_tuples(self.table.read_grouped(self._rids()))

    def _counted_rid_batches(self, size: int) -> Iterator[TupleBatch]:
        for batch in _rid_batches(self.table, self._rids(), size, self.columnar):
            if self.columnar:
                self.columnar_batches += 1
            else:
                self.fallback_batches += 1
            yield batch

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        return self._count_batches(self._counted_rid_batches(size))

    def explain_extras(self) -> List[str]:
        return self._columnar_extras()

    def label(self) -> str:
        parts = ", ".join(
            f"{a} in [{lo:g}, {hi:g}]" for a, (lo, hi) in zip(self.attrs, self.window)
        )
        return f"SpatialScan({self.table.name}: {parts})"


class PtiScan(_ColumnarScanMixin, Operator):
    """Candidate scan via a probability-threshold index on an uncertain column.

    Yields only records whose x-bounds say they *might* satisfy
    ``P(attr in [lo, hi]) >= threshold``; the caller must verify exactly
    (the planner stacks the real Filter / ThresholdFilter on top).
    """

    def __init__(
        self,
        table: Table,
        attr: str,
        lo: float,
        hi: float,
        threshold: float = 0.0,
        columnar: bool = True,
    ):
        if attr not in table.ptis:
            raise QueryError(f"no probability-threshold index on {table.name}.{attr}")
        self.table = table
        self.attr = attr
        self.lo, self.hi = float(lo), float(hi)
        self.threshold = float(threshold)
        self.columnar = columnar
        self.output_schema = table.schema
        self.columnar_batches = 0
        self.fallback_batches = 0

    def _rids(self) -> Iterator:
        index = self.table.ptis[self.attr]
        return iter(sorted(index.candidates(self.lo, self.hi, self.threshold)))

    def __iter__(self) -> Iterator[ProbabilisticTuple]:
        return self._count_tuples(self.table.read_grouped(self._rids()))

    def _counted_rid_batches(self, size: int) -> Iterator[TupleBatch]:
        for batch in _rid_batches(self.table, self._rids(), size, self.columnar):
            if self.columnar:
                self.columnar_batches += 1
            else:
                self.fallback_batches += 1
            yield batch

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        return self._count_batches(self._counted_rid_batches(size))

    def explain_extras(self) -> List[str]:
        return self._columnar_extras()

    def label(self) -> str:
        return (
            f"PtiScan({self.table.name}.{self.attr} in [{self.lo:g}, {self.hi:g}]"
            f" @ p>={self.threshold:g})"
        )
