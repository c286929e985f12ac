"""Interval-set and region algebra.

Floors (Section III-A of the paper) zero out a pdf over a subset of its
domain.  For one-dimensional symbolic pdfs the paper stores floors
symbolically as sets of intervals (e.g. ``[Gaus(5,1), Floor{[5, inf]}]``);
for joint pdfs a floor may be an arbitrary region such as ``{(a, b) : a >= b}``
produced by a selection predicate.  This module provides both:

* :class:`Interval` / :class:`IntervalSet` — an exact one-dimensional set
  algebra (union, intersection, complement, measure) with open/closed
  endpoints, used for symbolic floors,
* :class:`Region` and its implementations (:class:`BoxRegion`,
  :class:`PredicateRegion`, and the boolean combinators) — multi-dimensional
  membership tests over named attributes, used when flooring joint pdfs.

All membership tests are vectorised over numpy arrays so that grid-based
pdf operations stay cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Tuple, Union

import numpy as np

from ..errors import DimensionMismatchError, PdfError

__all__ = [
    "Interval",
    "IntervalSet",
    "Region",
    "BoxRegion",
    "PredicateRegion",
    "UnionRegion",
    "IntersectionRegion",
    "ComplementRegion",
    "FULL_LINE",
    "EMPTY_SET",
]

_NEG_INF = float("-inf")
_POS_INF = float("inf")


@dataclass(frozen=True)
class Interval:
    """A single real interval with independently open or closed endpoints.

    ``Interval(2, 5)`` is the closed interval [2, 5]; open endpoints are
    requested with ``closed_lo=False`` / ``closed_hi=False``.  Infinite
    endpoints are always treated as open.
    """

    lo: float
    hi: float
    closed_lo: bool = True
    closed_hi: bool = True

    def __post_init__(self) -> None:
        lo = float(self.lo)
        hi = float(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if math.isnan(lo) or math.isnan(hi):
            raise PdfError("interval endpoints must not be NaN")
        if math.isinf(lo) and self.closed_lo:
            object.__setattr__(self, "closed_lo", False)
        if math.isinf(hi) and self.closed_hi:
            object.__setattr__(self, "closed_hi", False)

    # -- predicates ------------------------------------------------------

    def is_empty(self) -> bool:
        """True when no real number lies in the interval."""
        if self.lo > self.hi:
            return True
        if self.lo == self.hi:
            return not (self.closed_lo and self.closed_hi)
        return False

    def contains_array(self, xs: np.ndarray) -> np.ndarray:
        """Vectorised membership test over a numpy array."""
        xs = np.asarray(xs, dtype=float)
        lo_ok = xs >= self.lo if self.closed_lo else xs > self.lo
        hi_ok = xs <= self.hi if self.closed_hi else xs < self.hi
        return lo_ok & hi_ok

    @property
    def measure(self) -> float:
        """Lebesgue measure (length); possibly ``inf``."""
        if self.is_empty():
            return 0.0
        return self.hi - self.lo

    # -- relations with other intervals ----------------------------------

    def intersect(self, other: "Interval") -> "Interval":
        """Intersection of two intervals (possibly empty)."""
        if self.lo > other.lo or (self.lo == other.lo and not self.closed_lo):
            lo, closed_lo = self.lo, self.closed_lo
        else:
            lo, closed_lo = other.lo, other.closed_lo
        if self.hi < other.hi or (self.hi == other.hi and not self.closed_hi):
            hi, closed_hi = self.hi, self.closed_hi
        else:
            hi, closed_hi = other.hi, other.closed_hi
        return Interval(lo, hi, closed_lo, closed_hi)

    def _touches(self, other: "Interval") -> bool:
        """True when the union of the two intervals is a single interval."""
        if self.is_empty() or other.is_empty():
            return False
        a, b = (self, other) if self.lo <= other.lo else (other, self)
        if a.hi > b.lo:
            return True
        if a.hi == b.lo:
            return a.closed_hi or b.closed_lo
        return False

    def _merge(self, other: "Interval") -> "Interval":
        """Union of two touching intervals as a single interval."""
        if self.lo < other.lo or (self.lo == other.lo and self.closed_lo):
            lo, closed_lo = self.lo, self.closed_lo
        else:
            lo, closed_lo = other.lo, other.closed_lo
        if self.hi > other.hi or (self.hi == other.hi and self.closed_hi):
            hi, closed_hi = self.hi, self.closed_hi
        else:
            hi, closed_hi = other.hi, other.closed_hi
        return Interval(lo, hi, closed_lo, closed_hi)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lb = "[" if self.closed_lo else "("
        rb = "]" if self.closed_hi else ")"
        return f"{lb}{self.lo:g}, {self.hi:g}{rb}"


IntervalLike = Union[Interval, Tuple[float, float]]


def _coerce_interval(value: IntervalLike) -> Interval:
    if isinstance(value, Interval):
        return value
    lo, hi = value
    return Interval(float(lo), float(hi))


class IntervalSet:
    """A finite union of disjoint real intervals, kept in canonical form.

    The canonical form stores intervals sorted by lower endpoint with no two
    intervals touching, so structural equality coincides with set equality.
    The class supports the boolean algebra needed by symbolic floors:
    union, intersection, complement, and (vectorised) membership.
    """

    __slots__ = ("_intervals", "_hash_memo")

    def __init__(self, intervals: Iterable[IntervalLike] = ()):
        items = [_coerce_interval(iv) for iv in intervals]
        items = [iv for iv in items if not iv.is_empty()]
        items.sort(key=lambda iv: (iv.lo, not iv.closed_lo))
        merged: List[Interval] = []
        for iv in items:
            if merged and merged[-1]._touches(iv):
                merged[-1] = merged[-1]._merge(iv)
            else:
                merged.append(iv)
        self._intervals: Tuple[Interval, ...] = tuple(merged)

    # -- constructors -----------------------------------------------------

    @classmethod
    def empty(cls) -> "IntervalSet":
        return cls(())

    @classmethod
    def full(cls) -> "IntervalSet":
        return cls([Interval(_NEG_INF, _POS_INF, False, False)])

    @classmethod
    def point(cls, x: float) -> "IntervalSet":
        return cls([Interval(x, x)])

    @classmethod
    def less_than(cls, x: float, inclusive: bool = False) -> "IntervalSet":
        return cls([Interval(_NEG_INF, x, False, inclusive)])

    @classmethod
    def greater_than(cls, x: float, inclusive: bool = False) -> "IntervalSet":
        return cls([Interval(x, _POS_INF, inclusive, False)])

    @classmethod
    def between(
        cls, lo: float, hi: float, closed_lo: bool = True, closed_hi: bool = True
    ) -> "IntervalSet":
        return cls([Interval(lo, hi, closed_lo, closed_hi)])

    # -- inspection --------------------------------------------------------

    @property
    def intervals(self) -> Tuple[Interval, ...]:
        return self._intervals

    def is_empty(self) -> bool:
        return not self._intervals

    def is_full(self) -> bool:
        if len(self._intervals) != 1:
            return False
        iv = self._intervals[0]
        return iv.lo == _NEG_INF and iv.hi == _POS_INF

    @property
    def measure(self) -> float:
        return sum(iv.measure for iv in self._intervals)

    def bounds(self) -> Tuple[float, float]:
        """Tight (lo, hi) hull of the set; (inf, -inf) when empty."""
        if not self._intervals:
            return (_POS_INF, _NEG_INF)
        return (self._intervals[0].lo, self._intervals[-1].hi)

    def contains_array(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        result = np.zeros(xs.shape, dtype=bool)
        for iv in self._intervals:
            result |= iv.contains_array(xs)
        return result

    # -- algebra ------------------------------------------------------------

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(self._intervals + other._intervals)

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        pieces = [
            a.intersect(b)
            for a in self._intervals
            for b in other._intervals
        ]
        return IntervalSet(pieces)

    def complement(self) -> "IntervalSet":
        """Complement within the whole real line."""
        if not self._intervals:
            return IntervalSet.full()
        gaps: List[Interval] = []
        cursor = _NEG_INF
        cursor_closed = False
        for iv in self._intervals:
            gap = Interval(cursor, iv.lo, cursor_closed, not iv.closed_lo)
            if not gap.is_empty():
                gaps.append(gap)
            cursor = iv.hi
            cursor_closed = not iv.closed_hi
        tail = Interval(cursor, _POS_INF, cursor_closed, False)
        if not tail.is_empty():
            gaps.append(tail)
        return IntervalSet(gaps)

    # -- dunder -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntervalSet):
            return NotImplemented
        return self._intervals == other._intervals

    def __hash__(self) -> int:
        # Interval sets are immutable and serve as pdf-op cache key parts;
        # hashing the interval tuple dominates lookups without this memo.
        try:
            return self._hash_memo
        except AttributeError:
            h = hash(self._intervals)
            self._hash_memo = h
            return h

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not self._intervals:
            return "IntervalSet(∅)"
        return "IntervalSet(" + " ∪ ".join(map(repr, self._intervals)) + ")"


FULL_LINE = IntervalSet.full()
EMPTY_SET = IntervalSet.empty()


Assignment = Mapping[str, Union[float, np.ndarray]]


class Region:
    """A (possibly multi-dimensional) subset of attribute space.

    A region knows which attribute names it constrains (:attr:`attrs`) and
    answers vectorised membership queries via :meth:`contains`.  Regions are
    the arguments of the ``floor`` primitive and the denotation of selection
    predicates.
    """

    attrs: Tuple[str, ...] = ()

    def contains(self, assignment: Assignment) -> np.ndarray:
        """Vectorised membership: arrays in ``assignment`` must broadcast."""
        raise NotImplementedError

    # boolean combinators ---------------------------------------------------

    def intersect(self, other: "Region") -> "Region":
        return IntersectionRegion((self, other))

    def complement(self) -> "Region":
        return ComplementRegion(self)

    def _check(self, assignment: Assignment) -> None:
        missing = [a for a in self.attrs if a not in assignment]
        if missing:
            raise DimensionMismatchError(
                f"assignment is missing attributes {missing} required by region"
            )


class BoxRegion(Region):
    """An axis-aligned region: the product of one IntervalSet per attribute.

    Attributes not mentioned are unconstrained.  Box regions are the
    symbolically-floorable case: flooring a 1-D symbolic pdf with a box
    region keeps the pdf symbolic.
    """

    def __init__(self, constraints: Mapping[str, IntervalSet]):
        self._constraints: Dict[str, IntervalSet] = dict(constraints)
        self.attrs = tuple(sorted(self._constraints))

    def interval_set(self, attr: str) -> IntervalSet:
        """The constraint for one attribute (full line when unconstrained)."""
        return self._constraints.get(attr, FULL_LINE)

    def contains(self, assignment: Assignment) -> np.ndarray:
        self._check(assignment)
        result: np.ndarray = np.asarray(True)
        for attr, allowed in self._constraints.items():
            result = result & allowed.contains_array(np.asarray(assignment[attr]))
        return np.asarray(result)

    def complement(self) -> "Region":
        """Complement; stays a box for single-attribute constraints."""
        if len(self._constraints) == 1:
            (attr, allowed), = self._constraints.items()
            return BoxRegion({attr: allowed.complement()})
        return ComplementRegion(self)

    def intersect_box(self, other: "BoxRegion") -> "BoxRegion":
        """Exact intersection of two boxes (stays a box)."""
        merged = dict(self._constraints)
        for attr, allowed in other._constraints.items():
            merged[attr] = merged[attr].intersect(allowed) if attr in merged else allowed
        return BoxRegion(merged)

    def project(self, attrs: Sequence[str]) -> "BoxRegion":
        """Keep only the constraints over ``attrs``."""
        return BoxRegion({a: s for a, s in self._constraints.items() if a in set(attrs)})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{a}∈{s!r}" for a, s in sorted(self._constraints.items()))
        return f"BoxRegion({inner})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoxRegion):
            return NotImplemented
        return self._constraints == other._constraints


class PredicateRegion(Region):
    """A region defined by an arbitrary vectorised predicate.

    Used for non-rectangular selection conditions such as ``a < b``; pdfs
    floored with a predicate region generally collapse to grid form.
    """

    def __init__(
        self,
        attrs: Sequence[str],
        predicate: Callable[..., np.ndarray],
        description: str = "<predicate>",
    ):
        self.attrs = tuple(attrs)
        self._predicate = predicate
        self.description = description

    def contains(self, assignment: Assignment) -> np.ndarray:
        self._check(assignment)
        args = [np.asarray(assignment[a]) for a in self.attrs]
        return np.asarray(self._predicate(*args), dtype=bool)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PredicateRegion({self.description}, attrs={self.attrs})"


class UnionRegion(Region):
    """Union of component regions."""

    def __init__(self, parts: Sequence[Region]):
        self.parts = tuple(parts)
        self.attrs = tuple(sorted({a for p in self.parts for a in p.attrs}))

    def contains(self, assignment: Assignment) -> np.ndarray:
        result: np.ndarray = np.asarray(False)
        for part in self.parts:
            result = result | part.contains(assignment)
        return np.asarray(result)


class IntersectionRegion(Region):
    """Intersection of component regions."""

    def __init__(self, parts: Sequence[Region]):
        self.parts = tuple(parts)
        self.attrs = tuple(sorted({a for p in self.parts for a in p.attrs}))

    def contains(self, assignment: Assignment) -> np.ndarray:
        result: np.ndarray = np.asarray(True)
        for part in self.parts:
            result = result & part.contains(assignment)
        return np.asarray(result)


class ComplementRegion(Region):
    """Complement of a region."""

    def __init__(self, inner: Region):
        self.inner = inner
        self.attrs = inner.attrs

    def contains(self, assignment: Assignment) -> np.ndarray:
        return ~np.asarray(self.inner.contains(assignment), dtype=bool)
