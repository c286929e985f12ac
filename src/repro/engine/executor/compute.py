"""Compute operator: certain-column arithmetic as ufunc sweeps.

``Compute(child, [(expr, name), ...])`` appends one certain REAL column per
item, evaluated over the tuple's certain attributes.  It is per-tuple and
order-preserving (ids pass through untouched, like projection).

On a batch that can serve float64 column views, each expression evaluates
as one vectorized sweep over the whole batch — ``compute_kernels`` in
EXPLAIN ANALYZE counts those sweeps.  Rows a column view cannot express
fall back to the scalar evaluator; both compute in IEEE float64, so results
are bitwise identical.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

import numpy as np

from ...core.expr import Expr
from ...core.history import HistoryStore
from ...core.model import (
    DEFAULT_CONFIG,
    Column,
    DataType,
    ModelConfig,
    ProbabilisticSchema,
    ProbabilisticTuple,
)
from ...errors import QueryError
from .base import Operator
from .batch import DEFAULT_BATCH_SIZE, TupleBatch
from .columnar import ColumnarBatch

__all__ = ["Compute"]


class Compute(Operator):
    """Append computed certain columns: ``SELECT *, expr AS name``."""

    def __init__(
        self,
        child: Operator,
        items: Sequence[Tuple[Expr, str]],
        store: HistoryStore,
        config: ModelConfig = DEFAULT_CONFIG,
    ):
        if not items:
            raise QueryError("Compute needs at least one expression")
        schema = child.output_schema
        taken = set(schema.visible_attrs) | schema.phantom_attrs
        for expr, name in items:
            for attr in sorted(expr.attrs()):
                if not schema.has_column(attr):
                    raise QueryError(f"unknown column {attr!r} in expression")
                if schema.is_uncertain(attr):
                    raise QueryError(
                        f"arithmetic needs certain columns; {attr!r} is "
                        "uncertain (pdf arithmetic lives in repro.pdf)"
                    )
            if name in taken:
                raise QueryError(f"computed column {name!r} already exists")
            taken.add(name)
        self.child = child
        self.items = list(items)
        self.store = store
        self.config = config
        self.compute_kernels = 0
        new_columns = [Column(name, DataType.REAL) for _, name in self.items]
        self.output_schema = ProbabilisticSchema(
            list(schema.columns) + new_columns, list(schema.dependency)
        )

    # -- evaluation ---------------------------------------------------------

    def _apply_scalar(self, t: ProbabilisticTuple) -> ProbabilisticTuple:
        certain = dict(t.certain)
        for expr, name in self.items:
            certain[name] = expr.evaluate(certain)
        return ProbabilisticTuple(t.tuple_id, certain, t.pdfs, t.lineage)

    def _compute_batch(self, batch: TupleBatch) -> List[ProbabilisticTuple]:
        tuples = batch.tuples
        n = len(tuples)
        if not (isinstance(batch, ColumnarBatch) and n):
            return [self._apply_scalar(t) for t in tuples]

        def getcol(attr: str):
            col = batch.certain_column(attr)
            if col is None or len(col[0]) != n:  # stale segment snapshot
                return None
            return col

        columns = []
        for expr, name in self.items:
            out = expr.evaluate_vector(getcol)
            if out is None:
                return [self._apply_scalar(t) for t in tuples]
            vals = np.broadcast_to(np.asarray(out[0], dtype=float), (n,))
            mask = (
                np.zeros(n, dtype=bool)
                if out[1] is False
                else np.broadcast_to(np.asarray(out[1], dtype=bool), (n,))
            )
            columns.append((name, vals, mask))
            self.compute_kernels += 1

        results = []
        for i, t in enumerate(tuples):
            certain = dict(t.certain)
            for name, vals, mask in columns:
                certain[name] = None if mask[i] else float(vals[i])
            results.append(
                ProbabilisticTuple(t.tuple_id, certain, t.pdfs, t.lineage)
            )
        return results

    # -- operator protocol --------------------------------------------------

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        for batch in self.child.batches(size):
            yield TupleBatch(self._compute_batch(batch))

    def children(self) -> List[Operator]:
        return [self.child]

    def explain_extras(self) -> List[str]:
        if not self.compute_kernels:
            return []
        return [f"compute_kernels={self.compute_kernels}"]

    def label(self) -> str:
        items = ", ".join(f"{expr!r} AS {name}" for expr, name in self.items)
        return f"Compute({items})"
