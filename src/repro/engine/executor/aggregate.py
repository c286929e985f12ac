"""Aggregate and DISTINCT: the blocking operators over whole groups.

Aggregates over uncertain attributes return *distributions*: COUNT(*) is a
Poisson-binomial over existence events, SUM(attr) is a convolution (exact
or continuous-approximated per Section I's discussion), MIN/MAX come from
cdf products.  EXPECTED(attr) returns a certain scalar.

:class:`Aggregate` materialises each group (aggregation is inherently
blocking) into a transient :class:`ProbabilisticRelation` and delegates the
math to :mod:`repro.core.aggregates`; :class:`Distinct` sorts under
``work_mem`` and folds each run of duplicates with
:func:`repro.core.distinct.distinct_row`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator, List, Optional, Sequence, Tuple

from ...core import aggregates as agg
from ...core.distinct import EXISTS_ATTR, distinct_row
from ...core.history import HistoryStore
from ...core.model import (
    DEFAULT_CONFIG,
    Column,
    DataType,
    ModelConfig,
    ProbabilisticRelation,
    ProbabilisticSchema,
    ProbabilisticTuple,
)
from ...errors import QueryError
from .base import Operator
from .batch import DEFAULT_BATCH_SIZE, TupleBatch, batched, flatten
from .spill import ExternalSorter, SpillManager

__all__ = ["AggSpec", "Aggregate", "Distinct"]

_FUNCTIONS = ("count", "sum", "expected", "min", "max")


def _total_order_key(values, seq: int) -> tuple:
    """A totally ordered, picklable encoding of row ``seq``'s values.

    Two encodings compare equal exactly when the values are equal as Python
    dict keys (``1 == 1.0 == True``; Python compares ints with floats
    exactly), NULL ranking first and strings after numbers — except that a
    NaN equals nothing, itself included: it encodes as the row's own
    sequence number, which no other row shares.
    """
    out = []
    for v in values:
        if v is None:
            out.append((0, 0))
        elif isinstance(v, str):
            out.append((2, v))
        elif v != v:
            out.append((3, seq))
        else:
            out.append((1, v))
    return tuple(out)


@dataclass(frozen=True)
class AggSpec:
    """One aggregate item: function, argument column, output name."""

    func: str
    attr: Optional[str] = None
    alias: Optional[str] = None
    method: str = "auto"  # SUM only: exact | gaussian | histogram | auto

    def __post_init__(self) -> None:
        if self.func not in _FUNCTIONS:
            raise QueryError(f"unknown aggregate {self.func!r}; use one of {_FUNCTIONS}")
        if self.func != "count" and self.attr is None:
            raise QueryError(f"{self.func.upper()} needs a column argument")

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        return self.func if self.attr is None else f"{self.func}_{self.attr}"


def _aggregate_tuple(specs, rel, store, config, certain) -> ProbabilisticTuple:
    """One output row: the group's ``certain`` key values plus one cell per
    aggregate item over the rows in ``rel``."""
    pdfs = {}
    lineage = {}
    for spec in specs:
        name = spec.output_name
        if spec.func == "expected":
            certain[name] = agg.expected_value(rel, spec.attr, config)
            continue
        if spec.func == "count":
            result = agg.count_distribution(rel, config)
        elif spec.func == "sum":
            result = agg.sum_distribution(
                rel, spec.attr, method=spec.method, config=config
            )
        elif spec.func == "min":
            result = agg.min_distribution(rel, spec.attr, config=config)
        else:  # max
            result = agg.max_distribution(rel, spec.attr, config=config)
        pdfs[frozenset({name})] = result.with_attrs([name])
        lineage[frozenset({name})] = frozenset()
    return ProbabilisticTuple(store.new_tuple_id(), certain, pdfs, lineage)


class Aggregate(Operator):
    """Blocking aggregation: one output row per group of ``group_attrs``.

    ``group_attrs`` (GROUP BY) are certain columns whose values group as
    dict keys do — NULLs together, as in SQL; groups come out in order of
    first appearance, each row carrying the group's key values and one
    (possibly distribution-valued) column per aggregate item.  With no keys
    the whole input is one group, whose row is emitted even for an empty
    input.
    """

    def __init__(
        self,
        child: Operator,
        specs: Sequence[AggSpec],
        store: HistoryStore,
        config: ModelConfig = DEFAULT_CONFIG,
        group_attrs: Sequence[str] = (),
    ):
        if not specs:
            raise QueryError("aggregate needs at least one item")
        for attr in group_attrs:
            if not child.output_schema.has_column(attr):
                raise QueryError(f"GROUP BY column {attr!r} is unknown")
            if child.output_schema.is_uncertain(attr):
                raise QueryError(
                    f"GROUP BY needs certain columns; {attr!r} is uncertain "
                    "(grouping by uncertain values requires possible-worlds "
                    "semantics over group membership)"
                )
        self.child = child
        self.specs = list(specs)
        self.store = store
        self.config = config
        self.group_attrs = list(group_attrs)
        columns = [child.output_schema.column(a) for a in self.group_attrs]
        dependency = []
        for spec in self.specs:
            columns.append(Column(spec.output_name, DataType.REAL))
            if spec.func != "expected":
                dependency.append({spec.output_name})
        self.output_schema = ProbabilisticSchema(columns, dependency)

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        return batched(self._groups(flatten(self.child.batches(size))), size)

    def _groups(self, tuples) -> Iterator[ProbabilisticTuple]:
        """Dict grouping: keys are the Python values in ``t.certain``, groups
        come out in first-appearance order with their rows in input order."""
        schema, store = self.child.output_schema, self.store
        groups: dict = {}
        if not self.group_attrs:  # the one group exists before any row
            groups[()] = ProbabilisticRelation(schema, store=store)
        for t in tuples:
            key = tuple(t.certain.get(a) for a in self.group_attrs)
            rel = groups.get(key)
            if rel is None:
                rel = groups[key] = ProbabilisticRelation(schema, store=store)
            rel.add_tuple(t, acquire=False)
        for key, rel in groups.items():
            yield _aggregate_tuple(
                self.specs, rel, store, self.config, dict(zip(self.group_attrs, key))
            )

    def children(self) -> List[Operator]:
        return [self.child]

    def label(self) -> str:
        if not self.group_attrs:
            items = ", ".join(
                f"{s.func.upper()}({s.attr or '*'}) AS {s.output_name}"
                for s in self.specs
            )
            return f"Aggregate({items})"
        items = ", ".join(f"{s.func.upper()}({s.attr or '*'})" for s in self.specs)
        return f"Aggregate(by {', '.join(self.group_attrs)}; {items})"


class Distinct(Operator):
    """SELECT DISTINCT over certain-valued rows (paper future work).

    A sort-group under ``work_mem``: rows are sorted (in spilled runs past
    the budget) by a total-order encoding of their values, so duplicates
    arrive adjacent with members in input order, and each run of them
    folds into one row by :func:`repro.core.distinct.distinct_row` —
    existence probabilities combine under verified historical independence,
    carried in a phantom dependency set.  Only the result rows, one per
    group, are held; they come out in order of first appearance with ids
    drawn at emission, exactly as :func:`repro.core.distinct.distinct`
    returns them.
    """

    def __init__(
        self,
        child: Operator,
        store: HistoryStore,
        config: ModelConfig = DEFAULT_CONFIG,
    ):
        self.child = child
        self.store = store
        self.config = config
        self.output_schema = ProbabilisticSchema(
            child.output_schema.columns, [{EXISTS_ATTR}]
        )
        #: EXPLAIN ANALYZE: spilled runs merged by the sort
        self.sort_runs = 0
        if child.output_schema.uncertain_attrs:
            raise QueryError(
                "SELECT DISTINCT needs certain output columns; project or "
                "aggregate the uncertain ones first (paper Section III-B "
                "leaves general duplicate elimination to future work)"
            )

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        return batched(self._rows(size), size)

    def _rows(self, size: int) -> Iterator[ProbabilisticTuple]:
        columns = self.child.output_schema.visible_attrs
        store = self.store
        # (first member's seq, the group's row) per distinct row
        rows: List[Tuple[int, ProbabilisticTuple]] = []
        with SpillManager(self.config.spill_dir, label="distinct") as mgr:
            sorter = ExternalSorter(mgr, self.config.work_mem)
            for seq, t in enumerate(flatten(self.child.batches(size))):
                sorter.add(_total_order_key([t.certain.get(c) for c in columns], seq), t)
            for _key, group in itertools.groupby(sorter.sorted(), key=itemgetter(0)):
                items = list(group)
                members = [t for _k, _seq, t in items]
                rows.append(
                    (items[0][1], distinct_row(0, members, columns, store, self.config))
                )
            self.sort_runs += sorter.run_count
        rows.sort(key=itemgetter(0))
        for _seq, row in rows:
            yield ProbabilisticTuple._adopt(
                store.new_tuple_id(), row.certain, row.pdfs, row.lineage
            )

    def explain_extras(self) -> List[str]:
        if not self.sort_runs:
            return []
        return [f"sort_runs={self.sort_runs}"]

    def children(self) -> List[Operator]:
        return [self.child]

    def label(self) -> str:
        return "Distinct"
