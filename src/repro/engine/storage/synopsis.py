"""Page synopses and the scan pruner: page- and row-grain threshold pruning.

The paper's probability-threshold index keeps a ``[lo, hi]`` support hull
and mass bound per *tuple*; this module keeps the same summaries for
heap-file *pages*, and for the rows of each page.  Each page of a table
carries a :class:`PageSynopsis`:

* per certain numeric attribute, the min/max of the stored values,
* per uncertain attribute, the union of the pdf support bounds and the
  page-max total mass (an upper bound on any tuple's existence
  probability through that attribute's dependency set),
* the number of live records and a page-max existence-probability bound,
* :attr:`PageSynopsis.rows`: the page's live slots and, per attribute a
  pruner has tested or a PROB index covers, one column of per-row
  summaries (:class:`PageRows`).

The page bounds are maintained incrementally on insert (bounds only widen)
and delete (only the live count shrinks — deletes never tighten bounds,
which keeps maintenance O(1) and strictly conservative).  A page restored
from a snapshot or checkpoint has no synopsis until the first scan that
tests it builds one from the record prefixes it decodes anyway, then runs
the page test on it; until then maintenance skips the page.  The first
scan that tests a page fills the row columns it needs from the same
prefixes; a PROB index's column (its x-bound ladder,
:mod:`repro.engine.index.pti`) is there from the page's first record (or
its build).  Once filled, a column is kept up to date: an insert appends
its row, a delete takes it out.

A :class:`ScanPruner` is the query-side counterpart: the ranges and
probability thresholds a plan's predicates imply for one table, and the
ladder test of a PROB index when one serves the scan (its quantile ladder
prunes ``PROB(...) >= p`` rows that the hull and mass columns cannot).  A
page is skipped only when its synopsis *proves* no stored tuple can
contribute to the answer; a row is skipped only when the same tests, or
the ladder, fail on its exact per-tuple summary.  Pruning therefore never
changes answers — up to the probability mass the support hull already
clips (pdf ``support()`` bounds clip ``TAIL_MASS`` per tail, and the
selection drops a tuple left with at most ``TAIL_MASS``, so a tuple whose
support misses the query range is dropped by the selection anyway).
"""

from __future__ import annotations

import bisect
from itertools import chain
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

import numpy as np

from ...core.predicates import Predicate
from ..index.pti import LADDER
from .serialize import DepSummary, TuplePrefix

__all__ = ["PageRows", "PageSynopsis", "ScanPruner"]

_INF = float("inf")
_NAN = float("nan")

#: Sentinel bounds marking an attribute as unprunable on a page (a
#: non-numeric value was stored, so range tests cannot be trusted).
_UNBOUNDED = (-_INF, _INF)

#: the key of the existence-bound column in :attr:`PageRows.columns`
_EXIST = None

#: the width of a certain column, and of an uncertain one with a ladder
_CERTAIN_WIDTH = 2
_LADDER_WIDTH = 3 + 2 * len(LADDER)


class PageRows:
    """The live slots of one page and per-row summary columns over them.

    ``columns`` maps each key to a float64 array of shape ``(width,
    len(slots))``: a certain attribute to ``(lo, hi)`` (its value twice;
    NaN for NULL; ``(-inf, +inf)`` for a bool or non-numeric value), an
    uncertain one to ``(lo, hi, mass)`` of the set holding it (NaN for a
    NULL pdf or no set) followed, when a PROB index covers it, by one
    ``(lo_k, hi_k)`` x-bound pair per ``LADDER`` level, and ``None`` to
    ``(exist,)``, the least mass over the row's non-NULL sets (1.0 without
    one).  A NaN fails every test.  :meth:`PageSynopsis.add` and
    :meth:`PageSynopsis.remove` keep every column a row longer or shorter
    with the slots.
    """

    __slots__ = ("slots", "columns")

    def __init__(self, slots: List[int], columns: Optional[Dict] = None):
        self.slots = slots
        self.columns: Dict[Optional[str], np.ndarray] = columns or {}


def _certain_column(values: list) -> np.ndarray:
    if all(v is None or type(v) is int or type(v) is float for v in values):
        return np.array([values, values], dtype=np.float64)  # None becomes NaN
    pairs = []
    for v in values:
        if v is None:
            pairs.append((_NAN, _NAN))
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            pairs.append(_UNBOUNDED)  # admits every range
        else:
            pairs.append((v, v))
    return _columns(pairs, _CERTAIN_WIDTH)


def _uncertain_bounds(deps: List[DepSummary], attr: str) -> Tuple[float, float, float]:
    for summary in deps:
        if attr in summary.attrs:
            if not summary.has_pdf:
                break
            lo, hi = summary.support.get(attr, _UNBOUNDED)
            return (lo, hi, summary.mass)
    return (_NAN, _NAN, _NAN)


def _exist_bound(deps: List[DepSummary]) -> float:
    return min([1.0] + [summary.mass for summary in deps if summary.has_pdf])


def _columns(rows: list, width: int) -> np.ndarray:
    """Per-row tuples of one width as one ``(width, len(rows))`` array."""
    return np.array(rows, dtype=np.float64).reshape(len(rows), width).T


class PageSynopsis:
    """Min/max + mass bounds for the live records of one heap-file page."""

    __slots__ = ("live", "certain", "uncertain", "max_exist_mass", "rows")

    def __init__(self, indexed: Iterable[str] = ()) -> None:
        self.live = 0
        #: certain attr -> (lo, hi) over stored numeric values; the
        #: _UNBOUNDED sentinel disables pruning for that attribute.
        self.certain: Dict[str, Tuple[float, float]] = {}
        #: uncertain attr -> [lo, hi, max_mass] over non-NULL pdfs.
        self.uncertain: Dict[str, List[float]] = {}
        #: max over tuples of min-over-dependency-sets pdf mass — an upper
        #: bound for every tuple's existence probability on this page.
        self.max_exist_mass = 0.0
        #: the row columns: the ``indexed`` attributes' ladders from the
        #: start, the rest filled by the first scan testing them (:meth:`ScanPruner.fill`)
        self.rows: Optional[PageRows] = None
        if indexed:
            self.rows = PageRows([], {a: np.empty((_LADDER_WIDTH, 0)) for a in indexed})

    # -- maintenance --------------------------------------------------------

    def add(self, slot: int, certain: Mapping, deps: List[DepSummary], ladders=None) -> None:
        """Fold the tuple inserted at ``slot`` (its page's next slot) in:
        its certain values, dep summaries and, for a row column of a PROB
        index, ``ladders[attr]`` (:func:`~repro.engine.index.pti.ladder`)."""
        self.live += 1
        for name, value in certain.items():
            if value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                self.certain[name] = _UNBOUNDED
                continue
            v = float(value)
            entry = self.certain.get(name)
            if entry is None:
                self.certain[name] = (v, v)
            elif entry is not _UNBOUNDED:
                self.certain[name] = (min(entry[0], v), max(entry[1], v))
        exist = 1.0
        for summary in deps:
            if not summary.has_pdf:
                continue  # NULL pdf: tuple exists with certainty, no bounds
            exist = min(exist, summary.mass)
            for attr in summary.attrs:
                lo, hi = summary.support.get(attr, _UNBOUNDED)
                entry = self.uncertain.get(attr)
                if entry is None:
                    self.uncertain[attr] = [lo, hi, summary.mass]
                else:
                    entry[0] = min(entry[0], lo)
                    entry[1] = max(entry[1], hi)
                    entry[2] = max(entry[2], summary.mass)
        self.max_exist_mass = max(self.max_exist_mass, exist)
        rows = self.rows
        if rows is None:
            return
        rows.slots.append(slot)
        for key, column in rows.columns.items():  # the new row, as fill builds a column
            if key is _EXIST:
                new = _columns([(_exist_bound(deps),)], 1)
            elif len(column) == _CERTAIN_WIDTH:
                new = _certain_column([certain.get(key)])
            else:
                row = _uncertain_bounds(deps, key)
                if len(column) == _LADDER_WIDTH:
                    row += ladders[key]
                new = _columns([row], len(column))
            rows.columns[key] = np.concatenate((column, new), 1)

    def remove(self, slot: int) -> None:
        """Account for the record deleted from ``slot``: its row leaves the
        row columns; the bounds stay (conservative)."""
        if self.live > 0:
            self.live -= 1
        rows = self.rows
        if rows is not None:
            i = bisect.bisect_left(rows.slots, slot)
            del rows.slots[i]
            for key, column in rows.columns.items():
                rows.columns[key] = np.delete(column, i, 1)


def _may_hold(op: str, threshold: float, bound):
    """Whether ``P op threshold`` can hold given ``P <= bound``; ``bound``
    may be a float64 array, whose NaN entries (no pdf) fail every op."""
    if op == ">=":
        return bound >= threshold
    if op == ">":
        return bound > threshold
    return bound == bound  # an upper bound cannot refute <, <=, =


class ScanPruner:
    """The page- and row-level admission tests implied by a predicate set.

    Built by the planner for one table; consulted by ``SeqScan`` /
    ``Table.scan_segments`` and by ``UPDATE`` / ``DELETE`` (``Table.scan``).  All tests are *necessary* conditions for a
    tuple to survive the plan's own filters, so skipping failures is sound:

    * ``certain_ranges`` — a conjunct pins attr into [lo, hi]; tuples with
      the value outside (or NULL, NaN, or missing) fail the plan's predicate.
    * ``uncertain_ranges`` — a value conjunct (or an eligible PROB-inner
      range) restricts attr to [lo, hi]; a pdf whose support misses the
      range retains at most the clipped tail mass and is dropped by the
      selection's ``TAIL_MASS`` cut, and a NULL pdf is excluded by the
      selection outright.
    * ``attr_thresholds`` — ``PROB(pred on attr) >(=) p`` cannot hold when
      p exceeds the dependency set's total mass.
    * ``exist_thresholds`` — ``PROB(*) >(=) p`` cannot hold when p exceeds
      the min dependency-set mass (NULL pdfs count as mass 1).
    * ``index`` — ``(attr, lo, hi, threshold)`` when a PROB index on attr
      serves the scan: ``P(attr in [lo, hi]) >= threshold`` cannot hold
      when [lo, hi] misses attr's x-bounds at the largest ``LADDER`` level
      <= threshold (:mod:`repro.engine.index.pti`; a row test only).

    :meth:`admits_page` runs them on a page's bounds, :meth:`admitted` on
    its row columns.  ``btree`` — ``(attr, lo, hi)`` (an unbounded side is infinite)
    when a B+tree on a certain column narrows the scan to that key range
    instead: the scan then reads the tree's records in key order, without
    the page and row tests.  ``certain_predicate`` runs last, exactly, on
    the prefix of each record either path leaves.
    """

    __slots__ = (
        "certain_ranges",
        "uncertain_ranges",
        "attr_thresholds",
        "exist_thresholds",
        "certain_predicate",
        "index",
        "btree",
    )

    def __init__(
        self,
        certain_ranges: Optional[Dict[str, Tuple[float, float]]] = None,
        uncertain_ranges: Optional[Dict[str, Tuple[float, float]]] = None,
        attr_thresholds: Optional[Dict[str, List[Tuple[str, float]]]] = None,
        exist_thresholds: Optional[List[Tuple[str, float]]] = None,
        certain_predicate: Optional[Predicate] = None,
        index: Optional[tuple] = None,
        btree: Optional[tuple] = None,
    ):
        self.certain_ranges = certain_ranges or {}
        self.uncertain_ranges = uncertain_ranges or {}
        self.attr_thresholds = attr_thresholds or {}
        self.exist_thresholds = exist_thresholds or []
        #: the exact residual predicate over certain columns (the planner
        #: installs it on single-table plans)
        self.certain_predicate = certain_predicate
        self.index = index
        self.btree = btree

    @property
    def lazy(self) -> bool:
        """Whether there is anything to test on a row — only then does
        decoding the record prefix before the pdf payloads pay off."""
        return bool(self.row_keys or self.certain_predicate is not None)

    @property
    def reads_summaries(self) -> bool:
        """Whether the row test reads set summaries (a scan filling columns
        then decodes them in the prefix walk)."""
        return bool(self.uncertain_ranges or self.attr_thresholds or self.exist_thresholds)

    @property
    def row_keys(self) -> frozenset:
        """The :attr:`PageRows.columns` keys :meth:`admitted` reads."""
        keys = set(chain(self.certain_ranges, self.uncertain_ranges, self.attr_thresholds))
        if self.exist_thresholds:
            keys.add(_EXIST)
        if self.index is not None:
            keys.add(self.index[0])
        return frozenset(keys)

    # -- page-level test ----------------------------------------------------

    def admits_page(self, syn: PageSynopsis) -> bool:
        """False only when no live record of the page can qualify."""
        if syn.live == 0:
            return False
        for attr, (lo, hi) in self.certain_ranges.items():
            entry = syn.certain.get(attr)
            if entry is None:
                return False  # every stored value was NULL (or none stored)
            if entry[0] > hi or entry[1] < lo:
                return False
        for attr, (lo, hi) in self.uncertain_ranges.items():
            entry = syn.uncertain.get(attr)
            if entry is None:
                return False  # every pdf touching attr was NULL
            if entry[0] > hi or entry[1] < lo:
                return False
        for attr, comps in self.attr_thresholds.items():
            entry = syn.uncertain.get(attr)
            if entry is None:
                return False
            for op, p in comps:
                if not _may_hold(op, p, entry[2]):
                    return False
        for op, p in self.exist_thresholds:
            if not _may_hold(op, p, syn.max_exist_mass):
                return False
        return True

    # -- row-level test -----------------------------------------------------

    def fill(
        self, syn: PageSynopsis, slots: List[int], prefixes: List[TuplePrefix]
    ) -> PageRows:
        """Add the columns :meth:`admitted` reads that ``syn.rows`` lacks (never
        a ladder), built from the prefixes of the page's live ``slots`` (with
        their summaries when :attr:`reads_summaries`)."""
        rows = syn.rows
        if rows is None:
            rows = syn.rows = PageRows(slots)
        columns = rows.columns
        for attr in self.certain_ranges:
            if attr not in columns:
                columns[attr] = _certain_column([p.certain.get(attr) for p in prefixes])
        for attr in chain(self.uncertain_ranges, self.attr_thresholds):
            if attr not in columns:
                columns[attr] = _columns([_uncertain_bounds(p.deps, attr) for p in prefixes], 3)
        if self.exist_thresholds and _EXIST not in columns:
            columns[_EXIST] = _columns([(_exist_bound(p.deps),) for p in prefixes], 1)
        return rows

    def admitted(self, rows: PageRows) -> List[bool]:
        """Per slot of ``rows``, whether its summaries pass every test (the
        columns of :attr:`row_keys` must be filled)."""
        columns = rows.columns
        masks = []
        for attr, (lo, hi) in chain(self.certain_ranges.items(), self.uncertain_ranges.items()):
            column = columns[attr]  # (lo, hi) or (lo, hi, mass)
            masks.append((column[0] <= hi) & (column[1] >= lo))
        for attr, comps in self.attr_thresholds.items():
            for op, p in comps:
                masks.append(_may_hold(op, p, columns[attr][2]))
        for op, p in self.exist_thresholds:
            masks.append(_may_hold(op, p, columns[_EXIST][0]))
        if self.index is not None:
            attr, lo, hi, threshold = self.index
            i = 3 + 2 * (bisect.bisect_right(LADDER, threshold) - 1)
            column = columns[attr]
            masks.append((column[i] <= hi) & (column[i + 1] >= lo))
        ok = masks[0]
        for mask in masks[1:]:
            ok = ok & mask
        return ok.tolist()
