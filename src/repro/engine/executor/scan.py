"""Scan operators: the scan of a stored table and of an in-memory relation."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from ...core.model import ProbabilisticRelation, ProbabilisticSchema
from ...errors import QueryError
from ..storage.serialize import Renaming
from ..storage.synopsis import ScanPruner
from ..table import ScanCounts, Table
from .base import Operator
from .batch import DEFAULT_BATCH_SIZE, TupleBatch

__all__ = ["SeqScan", "RelationScan"]


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


class SeqScan(Operator):
    """The scan of a stored table: the one operator every read of one takes.

    The :class:`ScanPruner` (the planner's; empty when none is given) makes
    it a *pruned* scan (:meth:`Table.scan_segments`): pages whose synopsis
    proves zero qualifying mass are skipped entirely, and when the pruner
    has a row test each page's rows are tested on the synopsis's row
    columns before any is fetched, so the records of rejected rows are
    neither read nor decoded; a pruner with a probability-threshold index
    reads only the slots the index admits.  A pruner naming a B+tree
    (``ScanPruner.btree``) reads that key range's records instead, in key
    order.  On every path the pruner's exact ``certain_predicate`` runs on
    the record prefix, so no Filter re-tests it; the other tests only drop
    tuples the plan's own filters would drop, so the query answer is
    unchanged.

    ``read_sets`` holds the dependency sets the statement can observe
    (the planner's ``_read_sets``); ``None`` reads every set.  Records
    decode only those payloads, and ``output_schema`` drops the other sets
    with their uncertain columns.  ``binding`` is a FROM binding's ``(name,
    mapping)``: the scan then decodes each row straight into the
    statement's names (``mapping`` takes every stored attribute, phantoms
    included, to its qualified name) instead of renaming rows it has built.
    """

    def __init__(
        self,
        table: Table,
        pruner: Optional[ScanPruner] = None,
        read_sets: Optional[frozenset] = None,
        binding: Optional[Tuple[str, Dict[str, str]]] = None,
    ):
        self.table = table
        self.pruner = pruner if pruner is not None else ScanPruner()
        if self.pruner.btree is not None and self.pruner.btree[0] not in table.btrees:
            raise QueryError(f"no B+tree index on {table.name}.{self.pruner.btree[0]}")
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
        self.binding = binding
        self.renaming = None
        if binding is not None:
            self.renaming = Renaming(binding[1])
            self.output_schema = self.output_schema.renamed(binding[1])
        #: what the last run read (None before the first)
        self.counts: Optional[ScanCounts] = None

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        self.counts = counts = ScanCounts()
        for chunk, seg in self.table.scan_segments(
            size, self.pruner, self.read_sets, self.renaming, counts
        ):
            yield TupleBatch(chunk, seg)

    def label(self) -> str:
        if self.binding is not None:
            return f"SeqScan({self.table.name} AS {self.binding[0]})"
        return f"SeqScan({self.table.name})"

    def explain_extras(self) -> List[str]:
        extras = []
        pruner, counts = self.pruner, self.counts
        if counts is not None:
            extras.append(f"pages={counts.pages}/{self.table.heap.num_pages}")
            if self.actual_rows is not None:  # EXPLAIN ANALYZE
                extras.append(f"rows={counts.decoded}/{counts.live}")
        elif pruner.lazy:  # a plain EXPLAIN: the scan has a test to prune by
            extras.append("pruned")
        if pruner.lazy:
            extras.append("lazy")
        if pruner.index is not None:
            attr, _lo, _hi, threshold = pruner.index
            extras.append(f"index={attr}@{threshold:g}")
        if pruner.btree is not None:
            attr, lo, hi = pruner.btree
            extras.append(f"btree={attr}[{lo:g},{hi:g}]")
        if self.read_sets is not None:
            kept, total = len(self.output_schema.dependency), len(self.table.schema.dependency)
            extras.append(f"sets={kept}/{total}")
        if pruner.certain_predicate is not None:
            extras.append(f"where={pruner.certain_predicate!r}")
        return extras
