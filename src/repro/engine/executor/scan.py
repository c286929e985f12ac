"""Scan operators: the pruned sequential scan and the B+tree scan."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ...core.model import ProbabilisticRelation, ProbabilisticSchema
from ...errors import QueryError
from ..storage.serialize import Renaming
from ..storage.synopsis import ScanPruner
from ..table import ScanCounts, Table
from .base import Operator
from .batch import DEFAULT_BATCH_SIZE, TupleBatch, batched

__all__ = ["SeqScan", "BTreeScan", "RelationScan"]


class RelationScan(Operator):
    """Scan an in-memory probabilistic relation (no storage involved).

    Lets the executor operators run over :class:`ProbabilisticRelation`
    values produced by the model API — used by tests and by users who want
    operator trees without a stored table.
    """

    def __init__(self, relation: ProbabilisticRelation):
        self.relation = relation
        self.output_schema = relation.schema

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        # Slice a snapshot, not the live tuple list: the scan sees the
        # relation as of its first batch even if it mutates mid-scan.
        tuples = list(self.relation.tuples)
        for start in range(0, len(tuples), size):
            yield TupleBatch(tuples[start : start + size])

    def label(self) -> str:
        name = self.relation.name or "<anonymous>"
        return f"RelationScan({name})"


class _TableScan(Operator):
    """A scan of a stored table that decodes only its *read set*.

    ``read_sets`` holds the dependency sets the statement can observe
    (the planner's ``_read_sets``); ``None`` reads every set.  Records
    decode only those payloads, and ``output_schema`` drops the other sets
    with their uncertain columns, whichever access path the scan takes.
    """

    def __init__(self, table: Table, read_sets: Optional[frozenset]):
        self.table = table
        self.output_schema = schema = table.schema
        if read_sets is not None and read_sets.issuperset(schema.dependency):
            read_sets = None
        self.read_sets = read_sets
        if read_sets is not None:
            dropped = {a for dep in schema.dependency if dep not in read_sets for a in dep}
            self.output_schema = ProbabilisticSchema(
                [c for c in schema.columns if c.name not in dropped],
                [dep for dep in schema.dependency if dep in read_sets],
            )

    def explain_extras(self) -> List[str]:
        if self.read_sets is None:
            return []
        kept, total = len(self.output_schema.dependency), len(self.table.schema.dependency)
        return [f"sets={kept}/{total}"]


class SeqScan(_TableScan):
    """Sequential scan of a table, in page order.

    The :class:`ScanPruner` (the planner's; empty when none is given) makes
    it a *pruned* scan: pages whose synopsis proves zero qualifying mass are
    skipped entirely, and when the pruner has a row test each page's rows
    are tested on the synopsis's row columns before any is fetched, so the
    records of rejected rows are neither read nor decoded; a pruner with a
    probability-threshold index reads only the slots the index admits.  The
    pruner only drops tuples the plan's own filters would drop, so the
    query answer is unchanged.

    A whole pinned page decodes per buffer-pool fetch
    (:meth:`Table.scan_segments`); per-family pdf parameter arrays are
    gathered the first time a kernel asks the batch for them.

    ``binding`` is a FROM binding's ``(name, mapping)``: the scan then
    decodes each row straight into the statement's names (``mapping``
    takes every stored attribute, phantoms included, to its qualified
    name) instead of renaming rows it has built.
    """

    def __init__(
        self,
        table: Table,
        pruner: Optional[ScanPruner] = None,
        read_sets: Optional[frozenset] = None,
        binding: Optional[Tuple[str, Dict[str, str]]] = None,
    ):
        super().__init__(table, read_sets)
        self.pruner = pruner if pruner is not None else ScanPruner()
        self.binding = binding
        self.renaming = None
        if binding is not None:
            self.renaming = Renaming(binding[1])
            self.output_schema = self.output_schema.renamed(binding[1])
        #: what the last run read (None before the first)
        self.counts: Optional[ScanCounts] = None

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        self.counts = counts = ScanCounts()
        pages = self.table.candidate_pages(self.pruner)
        for chunk, seg in self.table.scan_segments(
            size, pages, self.pruner, self.read_sets, self.renaming, counts
        ):
            yield TupleBatch(chunk, seg)

    def label(self) -> str:
        if self.binding is not None:
            return f"SeqScan({self.table.name} AS {self.binding[0]})"
        return f"SeqScan({self.table.name})"

    def explain_extras(self) -> List[str]:
        extras = []
        counts = self.counts
        if counts is not None:
            extras.append(f"pages={counts.pages}/{self.table.heap.num_pages}")
            if self.actual_rows is not None:  # EXPLAIN ANALYZE
                extras.append(f"rows={counts.decoded}/{counts.live}")
        elif self.pruner.lazy:  # a plain EXPLAIN: the scan has a test to prune by
            extras.append("pruned")
        if self.pruner.lazy:
            extras.append("lazy")
        if self.pruner.index is not None:
            attr, _lo, _hi, threshold = self.pruner.index
            extras.append(f"index={attr}@{threshold:g}")
        return extras + super().explain_extras()


class BTreeScan(_TableScan):
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
        read_sets: Optional[frozenset] = None,
    ):
        if attr not in table.btrees:
            raise QueryError(f"no B+tree index on {table.name}.{attr}")
        super().__init__(table, read_sets)
        self.attr = attr
        self.lo, self.hi = lo, hi
        self.include_lo, self.include_hi = include_lo, include_hi

    def rids(self) -> Iterator:
        tree = self.table.btrees[self.attr]
        for _key, rid in tree.range_scan(self.lo, self.hi, self.include_lo, self.include_hi):
            yield rid

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        # Grouped reads pin a page once per run of same-page RIDs.
        return batched(self.table.read_grouped(self.rids(), self.read_sets), size)

    def label(self) -> str:
        return f"BTreeScan({self.table.name}.{self.attr} in [{self.lo}, {self.hi}])"
