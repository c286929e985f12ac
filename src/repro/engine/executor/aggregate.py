"""Aggregate and DISTINCT: the grouping operators over whole groups.

Aggregates over uncertain attributes return *distributions*: COUNT(*) is a
Poisson-binomial over existence events, SUM(attr) is a convolution (exact
or continuous-approximated per Section I's discussion), MIN/MAX come from
cdf products.  EXPECTED(attr) returns a certain scalar.

Both operators are one grouping body on the budgeted sort
(:class:`~.relational._BudgetedSort`): rows sort under ``work_mem`` by a
total-order encoding of their key columns, so each group arrives as one
run with its members in input order, and each run folds as soon as it
closes — :class:`Aggregate` into a transient :class:`ProbabilisticRelation`
whose math :mod:`repro.core.aggregates` does, :class:`Distinct` by
:func:`repro.core.distinct.distinct_row`.  Keys group as equal Python
values (``1 == 1.0 == True``, ``0.0 == -0.0``, NULLs together) and a NaN
equals nothing, whatever the budget.
"""

from __future__ import annotations

import itertools
from contextlib import closing
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
from .batch import TupleBatch, flatten
from .relational import _BudgetedSort

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


class _Grouping(_BudgetedSort):
    """The one grouping body: the budgeted sort keyed on
    :func:`_total_order_key` over ``key_attrs``, each run of equal keys
    folded by ``_fold(members)`` as soon as it closes.

    Rows come out in order of first appearance, with ids drawn at emission.
    Memory is ``work_mem``, plus the largest group's rows, plus one result
    row per group.
    """

    store: HistoryStore
    key_attrs: Sequence[str]

    def _keys(self, batch: TupleBatch, seq: int) -> List[tuple]:
        attrs = self.key_attrs
        return [
            _total_order_key([t.certain.get(a) for a in attrs], seq + i)
            for i, t in enumerate(batch.tuples)
        ]

    def _runs(self, size: int) -> Iterator[Tuple[int, List[ProbabilisticTuple]]]:
        """``(first member's seq, members)`` per group, in key order."""
        with closing(self._sorted(size)) as rows:
            for _key, run in itertools.groupby(rows, key=itemgetter(0)):
                items = list(run)
                yield items[0][1], [t for _key, _seq, t in items]

    def _rows(self, size: int) -> Iterator[ProbabilisticTuple]:
        with closing(self._runs(size)) as runs:  # a fold that raises ends the sort's spill
            rows = sorted(((seq, self._fold(members)) for seq, members in runs), key=itemgetter(0))
        new_id = self.store.new_tuple_id
        for _seq, row in rows:
            yield ProbabilisticTuple._adopt(new_id(), row.certain, row.pdfs, row.lineage)


class Aggregate(_Grouping):
    """Blocking aggregation: one output row per group of ``group_attrs``.

    ``group_attrs`` (GROUP BY) are certain columns; groups come out in order
    of first appearance, each row carrying the group's first-seen key values
    and one (possibly distribution-valued) column per aggregate item.  With
    no keys the whole input is one group, folded without the sort (which
    would only spill and re-read every row), whose row is emitted even for
    an empty input.
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
        self.group_attrs = self.key_attrs = list(group_attrs)
        columns = [child.output_schema.column(a) for a in self.group_attrs]
        dependency = []
        for spec in self.specs:
            columns.append(Column(spec.output_name, DataType.REAL))
            if spec.func != "expected":
                dependency.append({spec.output_name})
        self.output_schema = ProbabilisticSchema(columns, dependency)

    def _runs(self, size: int) -> Iterator[Tuple[int, List[ProbabilisticTuple]]]:
        if self.group_attrs:
            yield from super()._runs(size)
        else:  # one group, maybe empty
            yield 0, list(flatten(self.child.batches(size)))

    def _fold(self, members: List[ProbabilisticTuple]) -> ProbabilisticTuple:
        """The group's first-seen key values plus one cell per aggregate item."""
        rel = ProbabilisticRelation(self.child.output_schema, store=self.store)
        for t in members:
            rel.add_tuple(t, acquire=False)
        certain = {a: members[0].certain.get(a) for a in self.group_attrs}
        pdfs, lineage, config = {}, {}, self.config
        for spec in self.specs:
            name = spec.output_name
            if spec.func == "expected":
                certain[name] = agg.expected_value(rel, spec.attr, config)
                continue
            if spec.func == "count":
                result = agg.count_distribution(rel, config)
            elif spec.func == "sum":
                result = agg.sum_distribution(rel, spec.attr, method=spec.method, config=config)
            elif spec.func == "min":
                result = agg.min_distribution(rel, spec.attr, config=config)
            else:  # max
                result = agg.max_distribution(rel, spec.attr, config=config)
            pdfs[frozenset({name})] = result.with_attrs([name])
            lineage[frozenset({name})] = frozenset()
        return ProbabilisticTuple(0, certain, pdfs, lineage)

    def label(self) -> str:
        if not self.group_attrs:
            items = ", ".join(
                f"{s.func.upper()}({s.attr or '*'}) AS {s.output_name}"
                for s in self.specs
            )
            return f"Aggregate({items})"
        items = ", ".join(f"{s.func.upper()}({s.attr or '*'})" for s in self.specs)
        return f"Aggregate(by {', '.join(self.group_attrs)}; {items})"


class Distinct(_Grouping):
    """SELECT DISTINCT over certain-valued rows (paper future work).

    Groups on every visible column; each run of duplicates folds into one
    row by :func:`repro.core.distinct.distinct_row` — existence
    probabilities combine under verified historical independence, carried
    in a phantom dependency set — exactly as
    :func:`repro.core.distinct.distinct` returns them.
    """

    def __init__(self, child: Operator, store: HistoryStore, config: ModelConfig = DEFAULT_CONFIG):
        self.child = child
        self.store = store
        self.config = config
        self.key_attrs = child.output_schema.visible_attrs
        self.output_schema = ProbabilisticSchema(child.output_schema.columns, [{EXISTS_ATTR}])
        if child.output_schema.uncertain_attrs:
            raise QueryError(
                "SELECT DISTINCT needs certain output columns; project or "
                "aggregate the uncertain ones first (paper Section III-B "
                "leaves general duplicate elimination to future work)"
            )

    def _fold(self, members: List[ProbabilisticTuple]) -> ProbabilisticTuple:
        return distinct_row(0, members, self.key_attrs, self.store, self.config)

    def label(self) -> str:
        return "Distinct"
