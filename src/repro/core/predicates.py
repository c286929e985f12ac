"""Boolean selection predicates over relation attributes.

A predicate is a small AST (comparisons combined with AND / OR / NOT) that
can be evaluated two ways:

* over **certain** values (:meth:`Predicate.evaluate`) — SQL-style
  three-valued logic where any comparison against NULL yields *unknown*,
* over **uncertain** values, by denotation as a
  :class:`~repro.pdf.regions.Region` (:meth:`Predicate.to_region`) which the
  selection operator uses to floor pdfs (Section III-C).

Attribute-vs-constant comparisons denote axis-aligned :class:`BoxRegion`
constraints — the case where symbolic floors stay symbolic.  The region
builder keeps conjunctions of boxes as a single box, so ``18 < x AND x < 22``
floors a Gaussian without leaving closed form.
"""

from __future__ import annotations

import operator
from typing import Callable, FrozenSet, Mapping, Optional, Sequence, Union

import numpy as np

from ..errors import QueryError
from ..pdf.regions import (
    BoxRegion,
    IntersectionRegion,
    IntervalSet,
    PredicateRegion,
    Region,
    UnionRegion,
)

__all__ = [
    "Predicate",
    "Comparison",
    "IsNull",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "col",
    "LabelResolver",
]

#: Maps a (attr, label) pair to its numeric code for categorical columns.
LabelResolver = Callable[[str, str], float]

_OPS = {
    "=": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

_FLIP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _interval_for(op: str, value: float) -> IntervalSet:
    """The set of x with ``x op value``."""
    if op == "=":
        return IntervalSet.point(value)
    if op == "!=":
        return IntervalSet.point(value).complement()
    if op == "<":
        return IntervalSet.less_than(value)
    if op == "<=":
        return IntervalSet.less_than(value, inclusive=True)
    if op == ">":
        return IntervalSet.greater_than(value)
    if op == ">=":
        return IntervalSet.greater_than(value, inclusive=True)
    raise QueryError(f"unknown comparison operator {op!r}")


class Predicate:
    """Base class for boolean predicates."""

    def attrs(self) -> FrozenSet[str]:
        """All attribute names the predicate mentions."""
        raise NotImplementedError

    def evaluate(self, row: Mapping[str, object]) -> Optional[bool]:
        """Three-valued evaluation over certain values (None = unknown)."""
        raise NotImplementedError

    def to_region(self, resolver: Optional[LabelResolver] = None) -> Region:
        """Denote the predicate as a region over its attributes."""
        raise NotImplementedError

    # -- combinators -----------------------------------------------------------

    def __and__(self, other: "Predicate") -> "Predicate":
        return And((self, other))

    def __or__(self, other: "Predicate") -> "Predicate":
        return Or((self, other))

    def __invert__(self) -> "Predicate":
        return Not(self)


class TruePredicate(Predicate):
    """The always-true predicate (selects everything)."""

    def attrs(self) -> FrozenSet[str]:
        return frozenset()

    def evaluate(self, row: Mapping[str, object]) -> Optional[bool]:
        return True

    def to_region(self, resolver: Optional[LabelResolver] = None) -> Region:
        return BoxRegion({})

    def __repr__(self) -> str:
        return "TRUE"


class Comparison(Predicate):
    """``left op right`` where operands are column references or constants.

    ``left`` must be a column name; ``right`` is either a constant (number or
    categorical label string) or another column name wrapped via
    :func:`col`.
    """

    def __init__(self, left: str, op: str, right: Union[float, str, "ColumnRef"]):
        if op not in _OPS:
            raise QueryError(f"unknown comparison operator {op!r}")
        self.left = str(left)
        self.op = op
        self.right = right

    @property
    def is_column_comparison(self) -> bool:
        return isinstance(self.right, ColumnRef)

    def attrs(self) -> FrozenSet[str]:
        names = {self.left}
        if isinstance(self.right, ColumnRef):
            names.add(self.right.name)
        return frozenset(names)

    def evaluate(self, row: Mapping[str, object]) -> Optional[bool]:
        lhs = row.get(self.left)
        rhs = row.get(self.right.name) if isinstance(self.right, ColumnRef) else self.right
        if lhs is None or rhs is None:
            return None
        return bool(_OPS[self.op](lhs, rhs))

    def _resolve_value(self, resolver: Optional[LabelResolver]) -> float:
        value = self.right
        if isinstance(value, str):
            if resolver is None:
                raise QueryError(
                    f"comparison against label {value!r} needs a categorical column"
                )
            if self.op not in ("=", "!="):
                raise QueryError(
                    f"categorical labels only support = and !=, not {self.op!r}"
                )
            return resolver(self.left, value)
        return float(value)  # type: ignore[arg-type]

    def to_region(self, resolver: Optional[LabelResolver] = None) -> Region:
        if isinstance(self.right, ColumnRef):
            op_fn = _OPS[self.op]
            left, right = self.left, self.right.name

            def pred(a: np.ndarray, b: np.ndarray) -> np.ndarray:
                return op_fn(a, b)

            return PredicateRegion((left, right), pred, f"{left} {self.op} {right}")
        value = self._resolve_value(resolver)
        return BoxRegion({self.left: _interval_for(self.op, value)})

    def __repr__(self) -> str:
        rhs = self.right.name if isinstance(self.right, ColumnRef) else repr(self.right)
        return f"({self.left} {self.op} {rhs})"


class IsNull(Predicate):
    """``attr IS [NOT] NULL`` — a two-valued test over certain values.

    Unlike comparisons, NULL-ness of a value is always known, so evaluation
    never returns *unknown*.  The predicate has no region denotation: it
    may only be used over certain attributes (an uncertain attribute is
    NULL when its whole pdf is NULL, which selection handles by dropping —
    query for it with ``IS NULL`` only on certain columns).
    """

    def __init__(self, attr: str, negated: bool = False):
        self.attr = str(attr)
        self.negated = negated

    def attrs(self) -> FrozenSet[str]:
        return frozenset({self.attr})

    def evaluate(self, row: Mapping[str, object]) -> Optional[bool]:
        is_null = row.get(self.attr) is None
        return (not is_null) if self.negated else is_null

    def to_region(self, resolver: Optional[LabelResolver] = None) -> Region:
        raise QueryError(
            f"IS NULL has no probabilistic denotation; {self.attr!r} must be "
            "a certain column"
        )

    def __repr__(self) -> str:
        return f"({self.attr} IS {'NOT ' if self.negated else ''}NULL)"


class ColumnRef:
    """Marks the right operand of a comparison as a column reference."""

    def __init__(self, name: str):
        self.name = str(name)

    def __repr__(self) -> str:
        return f"col({self.name})"


def col(name: str) -> ColumnRef:
    """Reference another column in a comparison: ``Comparison("a", "<", col("b"))``."""
    return ColumnRef(name)


def _merge_boxes(regions: Sequence[Region], union: bool) -> Optional[Region]:
    """Combine all-box inputs into a single box when exact; None otherwise."""
    if not all(isinstance(r, BoxRegion) for r in regions):
        return None
    boxes = [r for r in regions if isinstance(r, BoxRegion)]
    if not union:
        out = boxes[0]
        for box in boxes[1:]:
            out = out.intersect_box(box)
        return out
    # A union of boxes is itself a box only when all constrain one shared attr.
    attr_sets = {box.attrs for box in boxes}
    if len(attr_sets) == 1 and len(next(iter(attr_sets))) == 1:
        (attr,) = next(iter(attr_sets))
        merged = IntervalSet.empty()
        for box in boxes:
            merged = merged.union(box.interval_set(attr))
        return BoxRegion({attr: merged})
    return None


class And(Predicate):
    """Conjunction of sub-predicates."""

    def __init__(self, parts: Sequence[Predicate]):
        if not parts:
            raise QueryError("AND needs at least one operand")
        self.parts = tuple(parts)

    def attrs(self) -> FrozenSet[str]:
        return frozenset().union(*(p.attrs() for p in self.parts))

    def evaluate(self, row: Mapping[str, object]) -> Optional[bool]:
        saw_unknown = False
        for p in self.parts:
            v = p.evaluate(row)
            if v is False:
                return False
            if v is None:
                saw_unknown = True
        return None if saw_unknown else True

    def to_region(self, resolver: Optional[LabelResolver] = None) -> Region:
        regions = [p.to_region(resolver) for p in self.parts]
        merged = _merge_boxes(regions, union=False)
        return merged if merged is not None else IntersectionRegion(regions)

    def __repr__(self) -> str:
        return "(" + " AND ".join(map(repr, self.parts)) + ")"


class Or(Predicate):
    """Disjunction of sub-predicates."""

    def __init__(self, parts: Sequence[Predicate]):
        if not parts:
            raise QueryError("OR needs at least one operand")
        self.parts = tuple(parts)

    def attrs(self) -> FrozenSet[str]:
        return frozenset().union(*(p.attrs() for p in self.parts))

    def evaluate(self, row: Mapping[str, object]) -> Optional[bool]:
        saw_unknown = False
        for p in self.parts:
            v = p.evaluate(row)
            if v is True:
                return True
            if v is None:
                saw_unknown = True
        return None if saw_unknown else False

    def to_region(self, resolver: Optional[LabelResolver] = None) -> Region:
        regions = [p.to_region(resolver) for p in self.parts]
        merged = _merge_boxes(regions, union=True)
        return merged if merged is not None else UnionRegion(regions)

    def __repr__(self) -> str:
        return "(" + " OR ".join(map(repr, self.parts)) + ")"


class Not(Predicate):
    """Negation of a sub-predicate."""

    def __init__(self, inner: Predicate):
        self.inner = inner

    def attrs(self) -> FrozenSet[str]:
        return self.inner.attrs()

    def evaluate(self, row: Mapping[str, object]) -> Optional[bool]:
        v = self.inner.evaluate(row)
        return None if v is None else not v

    def to_region(self, resolver: Optional[LabelResolver] = None) -> Region:
        return self.inner.to_region(resolver).complement()

    def __repr__(self) -> str:
        return f"NOT {self.inner!r}"
