"""Page synopses and the scan pruner: page-grain threshold pruning.

The paper's probability-threshold index keeps a ``[lo, hi]`` support hull
and mass bound per *tuple*; this module lifts the same idea to heap-file
*pages*.  Each page of a table carries a :class:`PageSynopsis`:

* per certain numeric attribute, the min/max of the stored values,
* per uncertain attribute, the union of the pdf support bounds and the
  page-max total mass (an upper bound on any tuple's existence
  probability through that attribute's dependency set),
* the number of live records and a page-max existence-probability bound.

Synopses are maintained incrementally on insert (bounds only widen) and
delete (only the live count shrinks — deletes never tighten bounds, which
keeps maintenance O(1) and strictly conservative), and rebuilt from record
prefixes after a snapshot load.

A :class:`ScanPruner` is the query-side counterpart: the ranges and
probability thresholds a plan's predicates imply for one table.  A page is
skipped only when its synopsis *proves* no stored tuple can contribute to
the answer; a tuple prefix is skipped only when the same tests fail on its
exact per-tuple summary.  Pruning therefore never changes answers — up to
the probability mass the support hull already clips, the identical caveat
the probability-threshold index documents (pdf ``support()`` bounds clip
``TAIL_MASS`` per tail, and the selection drops a tuple left with at most
``TAIL_MASS``, so a tuple whose support misses the query range is dropped
by the selection anyway).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ...core.predicates import Predicate
from .serialize import DepSummary, TuplePrefix

__all__ = ["PageSynopsis", "ScanPruner"]

_INF = float("inf")

#: Sentinel bounds marking an attribute as unprunable on a page (a
#: non-numeric value was stored, so range tests cannot be trusted).
_UNBOUNDED = (-_INF, _INF)


class PageSynopsis:
    """Min/max + mass bounds for the live records of one heap-file page."""

    __slots__ = ("live", "certain", "uncertain", "max_exist_mass")

    def __init__(self) -> None:
        self.live = 0
        #: certain attr -> (lo, hi) over stored numeric values; the
        #: _UNBOUNDED sentinel disables pruning for that attribute.
        self.certain: Dict[str, Tuple[float, float]] = {}
        #: uncertain attr -> [lo, hi, max_mass] over non-NULL pdfs.
        self.uncertain: Dict[str, List[float]] = {}
        #: max over tuples of min-over-dependency-sets pdf mass — an upper
        #: bound for every tuple's existence probability on this page.
        self.max_exist_mass = 0.0

    # -- maintenance --------------------------------------------------------

    def add(self, certain: Dict[str, object], deps: List[DepSummary]) -> None:
        """Fold one inserted tuple (certain values + dep summaries) in."""
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

    def remove(self) -> None:
        """Account for one deleted record (bounds stay — conservative)."""
        if self.live > 0:
            self.live -= 1


def _threshold_excluded(op: str, threshold: float, bound: float) -> bool:
    """True when ``P op threshold`` is unsatisfiable given ``P <= bound``."""
    if op == ">=":
        return threshold > bound
    if op == ">":
        return threshold >= bound
    return False  # <, <=, = thresholds are not prunable by an upper bound


class ScanPruner:
    """The page- and tuple-level admission tests implied by a predicate set.

    Built by the planner for one table; consulted by ``SeqScan`` /
    ``Table.scan_segments``.  All tests are *necessary* conditions for a
    tuple to survive the plan's own filters, so skipping failures is sound:

    * ``certain_ranges`` — a conjunct pins attr into [lo, hi]; tuples with
      the value outside (or NULL, or missing) fail the Filter above.
    * ``uncertain_ranges`` — a value conjunct (or an eligible PROB-inner
      range) restricts attr to [lo, hi]; a pdf whose support misses the
      range retains at most the clipped tail mass and is dropped by the
      selection's ``TAIL_MASS`` cut, and a NULL pdf is excluded by the
      selection outright.
    * ``attr_thresholds`` — ``PROB(pred on attr) >(=) p`` cannot hold when
      p exceeds the dependency set's total mass.
    * ``exist_thresholds`` — ``PROB(*) >(=) p`` cannot hold when p exceeds
      the min dependency-set mass (NULL pdfs count as mass 1).
    """

    __slots__ = (
        "certain_ranges",
        "uncertain_ranges",
        "attr_thresholds",
        "exist_thresholds",
        "certain_predicate",
    )

    def __init__(
        self,
        certain_ranges: Optional[Dict[str, Tuple[float, float]]] = None,
        uncertain_ranges: Optional[Dict[str, Tuple[float, float]]] = None,
        attr_thresholds: Optional[Dict[str, List[Tuple[str, float]]]] = None,
        exist_thresholds: Optional[List[Tuple[str, float]]] = None,
        certain_predicate: Optional[Predicate] = None,
    ):
        self.certain_ranges = certain_ranges or {}
        self.uncertain_ranges = uncertain_ranges or {}
        self.attr_thresholds = attr_thresholds or {}
        self.exist_thresholds = exist_thresholds or []
        #: the exact residual predicate over certain columns (the planner
        #: installs it on single-table plans)
        self.certain_predicate = certain_predicate

    @property
    def lazy(self) -> bool:
        """Whether there is anything to test on a record prefix — only then
        does decoding the prefix before the pdf payloads pay off."""
        return bool(
            self.certain_ranges
            or self.uncertain_ranges
            or self.attr_thresholds
            or self.exist_thresholds
            or self.certain_predicate is not None
        )

    @property
    def reads_summaries(self) -> bool:
        """Whether :meth:`admits_prefix` reads the prefix's set summaries
        (a scan then decodes them in the prefix walk)."""
        return bool(self.uncertain_ranges or self.attr_thresholds or self.exist_thresholds)

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
                if _threshold_excluded(op, p, entry[2]):
                    return False
        for op, p in self.exist_thresholds:
            if _threshold_excluded(op, p, syn.max_exist_mass):
                return False
        return True

    # -- tuple-level test (lazy decoding) -----------------------------------

    def admits_prefix(self, prefix: TuplePrefix) -> bool:
        """False only when the plan's own filters would drop the tuple."""
        pred = self.certain_predicate
        if pred is not None and pred.evaluate(prefix.certain) is not True:
            return False
        for attr, (lo, hi) in self.certain_ranges.items():
            value = prefix.certain.get(attr)
            if value is None or isinstance(value, bool):
                if value is None:
                    return False  # NULL never satisfies a comparison
                continue
            if isinstance(value, (int, float)) and (value < lo or value > hi):
                return False
        if not self.reads_summaries:
            return True
        by_attr: Dict[str, DepSummary] = {}
        exist = 1.0
        for summary in prefix.deps:
            for attr in summary.attrs:
                by_attr[attr] = summary
            if summary.has_pdf:
                exist = min(exist, summary.mass)
        for attr, (lo, hi) in self.uncertain_ranges.items():
            summary = by_attr.get(attr)
            if summary is None or not summary.has_pdf:
                return False  # NULL pdf: the selection excludes the tuple
            sup = summary.support.get(attr)
            if sup is not None and (sup[0] > hi or sup[1] < lo):
                return False
        for attr, comps in self.attr_thresholds.items():
            summary = by_attr.get(attr)
            if summary is None or not summary.has_pdf:
                return False
            for op, p in comps:
                if _threshold_excluded(op, p, summary.mass):
                    return False
        for op, p in self.exist_thresholds:
            if _threshold_excluded(op, p, exist):
                return False
        return True

    def __repr__(self) -> str:
        parts = []
        if self.certain_ranges:
            parts.append(f"certain={sorted(self.certain_ranges)}")
        if self.uncertain_ranges:
            parts.append(f"uncertain={sorted(self.uncertain_ranges)}")
        if self.attr_thresholds:
            parts.append(f"prob={sorted(self.attr_thresholds)}")
        if self.exist_thresholds:
            parts.append("prob(*)")
        return f"ScanPruner({', '.join(parts) or 'empty'})"
