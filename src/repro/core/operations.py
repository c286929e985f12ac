"""The pdf primitives beneath the relational operators (Section III-A).

Three internal operations — ``marginalize``, ``floor`` and ``product`` —
are all the machinery the relational operators need.  The first two are
the pdf methods :meth:`~repro.pdf.base.Pdf.marginalize` (memoised through
:func:`cached_marginalize`) and :meth:`~repro.pdf.base.Pdf.floor_out`.  The
subtle one is ``product`` over *historically dependent* inputs: when two
pdfs share a common ancestor, multiplying their marginals double-counts and
mis-weights outcomes (the "Incorrect!" table of Figure 3).  The paper's fix, implemented
verbatim here, reconstructs the joint from

* the **base ancestor pdfs** for the shared attributes (``C_j`` components),
* the input **marginals** for the private attributes (``D_i`` components),

and then *propagates the floors* of each input by zeroing the joint wherever
any input pdf is zero — the surviving-possible-worlds indicator of the
paper's product formula.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import HistoryError, UnsupportedOperationError
from ..pdf.base import Pdf
from ..pdf.discrete import DiscretePdf
from ..pdf.floors import FlooredPdf
from ..pdf.histogram import HistogramPdf
from ..pdf.joint import (
    JointDiscretePdf,
    JointGridPdf,
    ProductPdf,
    as_joint_discrete,
    independent_product,
)
from ..pdf.regions import BoxRegion, Interval, IntervalSet, PredicateRegion, Region
from .history import AncestorRef, HistoryStore, Lineage
from .model import DEFAULT_CONFIG, ModelConfig

__all__ = [
    "support_region",
    "product",
    "PdfOpCache",
    "PDF_OP_CACHE",
    "cached_mass",
    "cached_marginalize",
]


# ---------------------------------------------------------------------------
# The pdf-operation cache
# ---------------------------------------------------------------------------

_MISS = object()


class PdfOpCache:
    """An LRU memo for ``mass`` / ``marginalize`` results.

    Keys combine a :meth:`~repro.pdf.base.Pdf.fingerprint` with the
    operation name and arguments, so structurally identical pdfs share
    entries across tuples, operators and queries.  Hit/miss counters are
    surfaced through the bench reporting layer.

    Thread-safe: the cache is process-wide and user threads may query
    concurrently, so every mutation (LRU reordering included —
    ``move_to_end`` on a dict being resized by another thread corrupts it)
    happens under one lock.
    """

    def __init__(self, maxsize: int = 8192):
        self.maxsize = int(maxsize)
        self.hits = 0
        self.misses = 0
        self._data: "OrderedDict" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key):
        """The cached value, or the internal miss sentinel."""
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return _MISS
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        # New keys land at the MRU end by insertion order; puts always follow
        # a miss, so no move_to_end (and its second key hash) is needed.
        with self._lock:
            data = self._data
            data[key] = value
            while len(data) > self.maxsize:
                data.popitem(last=False)

    def reset(self) -> None:
        """Drop all entries and zero the counters."""
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0

    def configure(self, maxsize: int) -> None:
        """Resize the cache (evicting LRU entries if shrinking)."""
        with self._lock:
            self.maxsize = int(maxsize)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)

    def stats(self) -> Dict[str, float]:
        with self._lock:
            total = self.hits + self.misses
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._data),
                "hit_rate": (self.hits / total) if total else 0.0,
            }


#: Process-wide cache shared by every relation, table, and executor plan.
PDF_OP_CACHE = PdfOpCache()


def cached_mass(pdf: Pdf) -> float:
    """``pdf.mass()`` through the pdf-op cache."""
    fp = pdf.fingerprint()
    if fp is None:
        return pdf.mass()
    key = ("mass", fp)
    value = PDF_OP_CACHE.get(key)
    if value is _MISS:
        value = float(pdf.mass())
        PDF_OP_CACHE.put(key, value)
    return value


def cached_marginalize(pdf: Pdf, attrs: Sequence[str]) -> Pdf:
    """``pdf.marginalize(attrs)`` through the pdf-op cache."""
    fp = pdf.fingerprint()
    if fp is None:
        return pdf.marginalize(attrs)
    key = ("marginalize", fp, tuple(attrs))
    value = PDF_OP_CACHE.get(key)
    if value is _MISS:
        value = pdf.marginalize(attrs)
        PDF_OP_CACHE.put(key, value)
    return value


def support_region(pdf: Pdf) -> Optional[Region]:
    """A region containing exactly the non-zero part of ``pdf``.

    Returns ``None`` when the pdf is nowhere zero (nothing to propagate).
    Box regions are returned whenever the zero set is axis-aligned, keeping
    the floor propagation symbolic.
    """
    if isinstance(pdf, FlooredPdf):
        if pdf.allowed.is_full():
            return None
        return BoxRegion({pdf.attr: pdf.allowed})
    if isinstance(pdf, DiscretePdf):
        points = [Interval(v, v) for v, p in pdf.items() if p > 0.0]
        return BoxRegion({pdf.attr: IntervalSet(points)})
    if isinstance(pdf, HistogramPdf):
        masses = pdf.masses
        if np.all(masses > 0):
            return None
        edges = pdf.edges
        pieces = [
            Interval(float(edges[i]), float(edges[i + 1]))
            for i in range(len(masses))
            if masses[i] > 0
        ]
        return BoxRegion({pdf.attr: IntervalSet(pieces)})
    if isinstance(pdf, JointDiscretePdf):
        table = pdf.table

        def member(*cols: np.ndarray) -> np.ndarray:
            cols = np.broadcast_arrays(*cols)
            flat = [np.atleast_1d(c).reshape(-1) for c in cols]
            out = np.array(
                [
                    tuple(float(col[i]) for col in flat) in table
                    and table[tuple(float(col[i]) for col in flat)] > 0.0
                    for i in range(len(flat[0]))
                ]
            )
            return out.reshape(np.atleast_1d(cols[0]).shape)

        return PredicateRegion(pdf.attrs, member, "support")
    if isinstance(pdf, JointGridPdf):
        if np.all(pdf.masses > 0):
            return None
        def positive(*cols: np.ndarray) -> np.ndarray:
            located = [axis.locate(c) for axis, c in zip(pdf.axes, np.broadcast_arrays(*cols))]
            inside = np.logical_and.reduce([ok for _, ok in located])
            return inside & (pdf.masses[tuple(idx for idx, _ in located)] > 0.0)

        return PredicateRegion(pdf.attrs, positive, "support")
    if isinstance(pdf, ProductPdf):
        parts = [support_region(f) for f in pdf.factors]
        parts = [p for p in parts if p is not None]
        if not parts:
            return None
        if all(isinstance(p, BoxRegion) for p in parts):
            merged = parts[0]
            for p in parts[1:]:
                merged = merged.intersect_box(p)  # type: ignore[union-attr]
            return merged
        out = parts[0]
        for p in parts[1:]:
            out = out.intersect(p)
        return out
    # Symbolic continuous families (Gaussian, Uniform, ...) are positive on
    # their full support; nothing to propagate.
    return None


def _group_shared_ancestors(
    lineages: Sequence[Lineage],
) -> Dict[AncestorRef, Dict[str, List[str]]]:
    """Ancestor refs appearing in two or more inputs, with their base->current maps.

    The value maps each base attribute of the ancestor to the list of
    *current* attribute names it appears under (more than one for
    self-joins, where both sides alias the same base variable).
    """
    owners: Dict[AncestorRef, set] = {}
    for idx, lineage in enumerate(lineages):
        for link in lineage:
            owners.setdefault(link.ref, set()).add(idx)
    shared = {ref for ref, idxs in owners.items() if len(idxs) >= 2}
    result: Dict[AncestorRef, Dict[str, List[str]]] = {}
    for lineage in lineages:
        for link in lineage:
            if link.ref not in shared:
                continue
            per_base = result.setdefault(link.ref, {})
            for base, current in link.mapping:
                targets = per_base.setdefault(base, [])
                if current not in targets:
                    targets.append(current)
    return result


def _expand_ancestor(
    ancestor: Pdf, base_to_currents: Dict[str, List[str]]
) -> Pdf:
    """Instantiate an ancestor pdf under the current attribute names.

    When every base attribute maps to a single current name this is a
    marginalisation plus rename.  When a base attribute is aliased to
    several current names (self-join), the same random variable appears
    multiple times; for discrete ancestors we realise the exact diagonal
    joint, for continuous ones there is no finite-density representation.
    """
    used = {b: cs for b, cs in base_to_currents.items() if cs}
    base_attrs = [a for a in ancestor.attrs if a in used]
    marginal = cached_marginalize(ancestor, base_attrs)
    if all(len(cs) == 1 for cs in used.values()):
        return marginal.rename({b: cs[0] for b, cs in used.items()})
    discrete = as_joint_discrete(marginal)
    if discrete is None:
        raise UnsupportedOperationError(
            "self-join aliases a continuous base pdf under two names; the "
            "diagonal joint has no density — discretize the input first"
        )
    order = [a for a in marginal.attrs if a in used]
    new_attrs = [c for b in order for c in used[b]]
    table = {}
    for key, p in discrete.items():
        by_base = dict(zip(discrete.attrs, key))
        new_key = tuple(by_base[b] for b in order for _ in used[b])
        table[new_key] = table.get(new_key, 0.0) + p
    return JointDiscretePdf(new_attrs, table)


def product(
    inputs: Sequence[Tuple[Pdf, Lineage]],
    store: HistoryStore,
    config: ModelConfig = DEFAULT_CONFIG,
) -> Tuple[Pdf, Lineage]:
    """The paper's ``product`` primitive over possibly-dependent pdfs.

    ``inputs`` pairs each pdf with its history Λ.  The inputs must cover
    pairwise-disjoint current attribute names.  Returns the joint pdf over
    the union of the attributes plus the combined lineage
    (Definition 2: Λ(t'.S') = ∪ Λ(t.S_i)).
    """
    if not inputs:
        raise HistoryError("product of zero pdfs is undefined")
    pdfs = [p for p, _ in inputs]
    lineages = [lin for _, lin in inputs]
    combined: Lineage = frozenset().union(*lineages)

    names = [a for p in pdfs for a in p.attrs]
    if len(set(names)) != len(names):
        raise HistoryError(f"product inputs must have disjoint attributes, got {names}")

    if len(inputs) == 1:
        return pdfs[0], combined

    shared = _group_shared_ancestors(lineages) if config.use_history else {}
    if not shared:
        return independent_product(*pdfs), combined

    current_attrs = set(names)
    components: List[Pdf] = []
    covered: set = set()
    for ref in sorted(shared, key=lambda r: (r.tuple_id, tuple(sorted(r.attrs)))):
        base_to_currents = {
            base: [c for c in currents if c in current_attrs and c not in covered]
            for base, currents in shared[ref].items()
        }
        base_to_currents = {b: cs for b, cs in base_to_currents.items() if cs}
        if not base_to_currents:
            continue
        ancestor = store.pdf(ref)
        component = _expand_ancestor(ancestor, base_to_currents)
        components.append(component)
        covered.update(a for cs in base_to_currents.values() for a in cs)

    for pdf in pdfs:
        private = [a for a in pdf.attrs if a not in covered]
        if private:
            components.append(cached_marginalize(pdf, private))
            covered.update(private)

    joint = independent_product(*components)

    # Propagate the floors of every input: possible worlds in which an input
    # pdf is zero did not survive earlier selections (paper Section III-A).
    for pdf in pdfs:
        region = support_region(pdf)
        if region is not None:
            joint = joint.restrict(region)
    return joint, combined
