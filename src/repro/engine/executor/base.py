"""Batch-model executor: the operator interface.

Operators form a tree; each yields :class:`TupleBatch` es of
:class:`ProbabilisticTuple` instances and exposes its output
:class:`ProbabilisticSchema`.  All probabilistic math is delegated to the
plans in :mod:`repro.core` — operators only orchestrate streaming, storage
access and index usage.
"""

from __future__ import annotations

from typing import Iterator, List, Optional

from ...core.model import ProbabilisticSchema, ProbabilisticTuple
from .batch import DEFAULT_BATCH_SIZE, TupleBatch, flatten

__all__ = ["Operator"]


class Operator:
    """Base class of executor operators (Volcano-style, pull-based).

    Every operator implements :meth:`batches`, a :class:`TupleBatch` per
    step; iterating an operator streams the tuples of those batches.

    ``actual_rows`` is tallied for every node of a plan by EXPLAIN ANALYZE
    (``Database`` wraps each node's ``batches``) and renders as an
    ``[actual=...]`` suffix in :meth:`explain`.
    """

    output_schema: ProbabilisticSchema

    #: rows actually produced (None outside EXPLAIN ANALYZE)
    actual_rows: Optional[int] = None

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        """Yield the operator's output as :class:`TupleBatch` es of ``size``."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[ProbabilisticTuple]:
        return flatten(self.batches())

    def children(self) -> List["Operator"]:
        return []

    def label(self) -> str:
        """One-line description used by EXPLAIN."""
        return type(self).__name__

    def explain_extras(self) -> List[str]:
        """Extra ``[...]`` annotations an operator wants in EXPLAIN output."""
        return []

    def explain(self, indent: int = 0) -> str:
        """Render the plan subtree."""
        line = "  " * indent + "-> " + self.label()
        notes = []
        if self.actual_rows is not None:
            notes.append(f"actual={self.actual_rows}")
        notes.extend(self.explain_extras())
        if notes:
            line += "  [" + " ".join(notes) + "]"
        lines = [line]
        for child in self.children():
            lines.append(child.explain(indent + 1))
        return "\n".join(lines)
