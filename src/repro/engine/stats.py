"""ANALYZE-style table statistics for the cost-based planner.

``analyze_table`` makes one pass over a table's *record prefixes* (the
cheap half of the lazy-decode format — no pdf payload is deserialized) and
builds, per attribute:

* certain numeric columns — min/max and an equi-depth histogram over the
  stored values,
* uncertain columns — an equi-depth histogram over the pdf *support
  midpoints* (the same ``[lo, hi]`` hull the threshold index keys on), a
  histogram over the dependency-set masses, and the mean mass.

Selectivity estimation assumes attribute-level independence across
dependency sets — the same assumption the model itself makes for
non-historically dependent pdfs, and the standard one for per-column
statistics (cf. Grohe & Lindner on independence assumptions in
probabilistic databases).  Estimates feed ``choose_scan`` and the
``EXPLAIN`` ``est=`` annotations; they never affect answers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .storage.serialize import decode_prefix

__all__ = ["ColumnStats", "TableStats", "analyze_table", "DEFAULT_BUCKETS"]

#: Equi-depth histogram resolution (buckets per column).
DEFAULT_BUCKETS = 32


def _equi_depth_edges(values: List[float], buckets: int) -> List[float]:
    """Bucket boundaries such that each bucket holds ~1/k of the values."""
    n = len(values)
    if n == 0:
        return []
    values = sorted(values)
    k = max(1, min(buckets, n))
    edges = [values[(i * n) // k] for i in range(k)]
    edges.append(values[-1])
    return edges


def _histogram_fraction(edges: List[float], lo: float, hi: float) -> float:
    """Fraction of the histogrammed values falling in [lo, hi]."""
    k = len(edges) - 1
    if k < 1:
        return 0.0
    total = 0.0
    weight = 1.0 / k
    for i in range(k):
        a, b = edges[i], edges[i + 1]
        if b < lo or a > hi:
            continue
        if b <= a:  # point bucket (duplicated quantile) inside the range
            total += weight
        else:
            overlap = (min(hi, b) - max(lo, a)) / (b - a)
            total += weight * max(0.0, min(1.0, overlap))
    return min(1.0, total)


@dataclass
class ColumnStats:
    """Summary of one attribute's value (or support-midpoint) distribution."""

    attr: str
    uncertain: bool
    #: rows with a usable value: numeric non-NULL (certain) / non-NULL pdf
    count: int
    #: fraction of table rows *without* a usable value
    null_frac: float
    lo: float
    hi: float
    #: equi-depth histogram over values / support midpoints
    edges: List[float] = field(default_factory=list)
    #: uncertain only: equi-depth histogram over dependency-set masses
    mass_edges: List[float] = field(default_factory=list)
    #: uncertain only: mean dependency-set mass (existence probability)
    mean_mass: float = 1.0

    def range_fraction(self, lo: float, hi: float) -> float:
        """Estimated fraction of *table rows* with the value in [lo, hi]."""
        return _histogram_fraction(self.edges, lo, hi) * (1.0 - self.null_frac)

    def mass_fraction(self, threshold: float) -> float:
        """Estimated fraction of table rows with dep-set mass >= threshold."""
        if not self.mass_edges:
            return 1.0 - self.null_frac
        return _histogram_fraction(self.mass_edges, threshold, float("inf")) * (
            1.0 - self.null_frac
        )


@dataclass
class TableStats:
    """Per-table statistics installed by ANALYZE."""

    row_count: int
    page_count: int
    columns: Dict[str, ColumnStats] = field(default_factory=dict)

    def selectivity(self, attr: str, lo: float, hi: float) -> Optional[float]:
        """Estimated selectivity of ``attr in [lo, hi]``, or None if unknown."""
        col = self.columns.get(attr)
        if col is None:
            return None
        return col.range_fraction(lo, hi)


def analyze_table(table, buckets: int = DEFAULT_BUCKETS) -> TableStats:
    """Build :class:`TableStats` from one prefix-only pass over the table.

    The result is also installed as ``table.statistics`` (the planner's
    hook) and returned.
    """
    schema = table.schema
    values: Dict[str, List[float]] = {}
    masses: Dict[str, List[float]] = {}
    rows = 0
    for records in table.heap.scan_pages():
        for _rid, record in records:
            prefix = decode_prefix(record)
            rows += 1
            for name, value in prefix.certain.items():
                if (
                    value is None
                    or isinstance(value, bool)
                    or not isinstance(value, (int, float))
                ):
                    continue
                values.setdefault(name, []).append(float(value))
            for summary in prefix.deps:
                if not summary.has_pdf:
                    continue
                for attr in summary.attrs:
                    sup = summary.support.get(attr)
                    if sup is not None:
                        values.setdefault(attr, []).append((sup[0] + sup[1]) / 2.0)
                    masses.setdefault(attr, []).append(summary.mass)

    stats = TableStats(row_count=rows, page_count=table.heap.num_pages)
    for attr in schema.visible_attrs:
        vals = values.get(attr, [])
        if not vals:
            continue
        uncertain = schema.is_uncertain(attr)
        mass_list = masses.get(attr, [])
        stats.columns[attr] = ColumnStats(
            attr=attr,
            uncertain=uncertain,
            count=len(vals),
            null_frac=1.0 - (len(vals) / rows) if rows else 0.0,
            lo=min(vals),
            hi=max(vals),
            edges=_equi_depth_edges(vals, buckets),
            mass_edges=_equi_depth_edges(mass_list, buckets) if uncertain else [],
            mean_mass=(sum(mass_list) / len(mass_list)) if mass_list else 1.0,
        )
    table.statistics = stats
    return stats
