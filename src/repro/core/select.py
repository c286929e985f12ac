"""The selection operator σ (Section III-C).

Three cases, exactly as the paper lays them out:

* **Case 1** — the predicate touches only certain attributes: ordinary
  filtering; pdfs and histories are copied over.
* **Case 2(a)** — dependency sets disjoint from the predicate attributes:
  copied over unchanged.
* **Case 2(b)** — dependency sets intersecting the predicate attributes are
  merged by the closure Ω (Definition 4), their joint pdf is built with the
  history-aware ``product`` primitive (certain attributes enter as identity
  point-mass pdfs), and the joint is floored over the region where the
  predicate is false.  Tuples whose joint mass drops to zero (to at most
  ``TAIL_MASS``) vanish, which is what makes the operator consistent with
  possible worlds semantics (Theorem 1).

The per-tuple work lives in :class:`SelectionPlan` so that the streaming
executor in :mod:`repro.engine` can apply selection tuple-at-a-time; the
relation-level :func:`select` is a thin loop over the plan.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from ..errors import QueryError
from ..pdf.base import TAIL_MASS, Pdf
from ..pdf.discrete import CategoricalPdf, DiscretePdf, label_code
from ..pdf.floors import FlooredPdf
import numpy as np

from ..pdf.kernels import floored_masses
from ..pdf.regions import BoxRegion
from .history import HistoryStore, Lineage
from .model import (
    DEFAULT_CONFIG,
    ModelConfig,
    ProbabilisticRelation,
    ProbabilisticSchema,
    ProbabilisticTuple,
)
from .operations import cached_mass, independent_mass, product
from .predicates import Predicate

__all__ = ["select", "closure", "SelectionPlan"]


def closure(
    sets: Iterable[FrozenSet[str]], new_set: FrozenSet[str]
) -> Tuple[Tuple[FrozenSet[str], ...], FrozenSet[str]]:
    """Definition 4: merge the connected components of ``sets ∪ {new_set}``.

    Returns ``(untouched_sets, merged_set)`` where ``merged_set`` is the
    union of ``new_set`` with every input set it (transitively) intersects.
    Because the input sets are pairwise disjoint, one merge pass suffices.
    """
    untouched: List[FrozenSet[str]] = []
    merged: Set[str] = set(new_set)
    for s in sets:
        if s & merged:
            merged |= s
        else:
            untouched.append(s)
    return tuple(untouched), frozenset(merged)


def _point_mass(attr: str, value: object) -> Pdf:
    """The identity pdf f0 over a certain attribute (Case 2(b))."""
    if isinstance(value, str):
        return CategoricalPdf({value: 1.0}, attr=attr)
    if isinstance(value, bool):
        return DiscretePdf({1.0 if value else 0.0: 1.0}, attr=attr)
    return DiscretePdf({float(value): 1.0}, attr=attr)  # type: ignore[arg-type]


class SelectionPlan:
    """Precomputed selection over one input schema.

    Splits the schema's dependency sets into touched and untouched parts,
    derives the output schema, and exposes :meth:`apply` which maps one
    input tuple to its selected output tuple (or ``None`` when the tuple is
    filtered out / fully floored).
    """

    def __init__(
        self,
        schema: ProbabilisticSchema,
        predicate: Predicate,
        config: ModelConfig = DEFAULT_CONFIG,
    ):
        for attr in predicate.attrs():
            if not schema.has_column(attr):
                raise QueryError(
                    f"predicate attribute {attr!r} is not a visible column of {schema!r}"
                )
        self.predicate = predicate
        self.config = config
        #: EXPLAIN ANALYZE counters for the columnar path: rows swept by
        #: fused kernels per family vs. rows routed through the tuple path.
        self.columnar_stats = {"kernel_rows": 0, "fallback_rows": 0, "families": {}}
        pred_attrs = frozenset(predicate.attrs())
        self.certain_only = not any(schema.is_uncertain(a) for a in pred_attrs)

        if self.certain_only:
            self.output_schema = schema
            return

        self._untouched, self._merged_set = closure(schema.dependency, pred_attrs)
        self._touched = [s for s in schema.dependency if s & self._merged_set]
        self._merged_certain = [
            a for a in sorted(self._merged_set) if not schema.is_uncertain(a)
        ]
        self.output_schema = ProbabilisticSchema(
            schema.columns, list(self._untouched) + [self._merged_set]
        )
        self._region = predicate.to_region(
            resolver=lambda attr, label: label_code(label)
        )

        # Kernelizable shape (see apply_columnar): the predicate touches
        # exactly one singleton dependency set, merges in no certain
        # attributes, and its region is axis-aligned.  Then ``product`` is
        # the identity and selection reduces to one interval-mass per tuple.
        self._fast_dep = None
        self._fast_allowed = None
        if (
            len(self._touched) == 1
            and self._touched[0] == self._merged_set
            and len(self._merged_set) == 1
            and not self._merged_certain
            and isinstance(self._region, BoxRegion)
        ):
            self._fast_dep = self._touched[0]
            (attr,) = self._merged_set
            self._fast_allowed = self._region.interval_set(attr)

    def apply(
        self, t: ProbabilisticTuple, store: HistoryStore
    ) -> Optional[ProbabilisticTuple]:
        """Select one tuple; ``None`` means it does not survive."""
        if self.certain_only:
            if self.predicate.evaluate(t.certain) is True:
                return ProbabilisticTuple(t.tuple_id, t.certain, t.pdfs, t.lineage)
            return None

        inputs: List[Tuple[Pdf, Lineage]] = []
        for s in self._touched:
            pdf = t.pdfs[s]
            if pdf is None:
                return None  # NULL pdf: predicate unknown, tuple excluded
            inputs.append((pdf, t.lineage[s]))
        for attr in self._merged_certain:
            value = t.certain.get(attr)
            if value is None:
                return None
            inputs.append((_point_mass(attr, value), frozenset()))

        joint, lineage = product(inputs, store, self.config)
        floored = joint.restrict(self._region)
        if cached_mass(floored) <= TAIL_MASS:
            return None

        new_certain = {k: v for k, v in t.certain.items() if k not in self._merged_set}
        new_pdfs = {s: t.pdfs[s] for s in self._untouched}
        new_lineage = {s: t.lineage[s] for s in self._untouched}
        new_pdfs[self._merged_set] = floored
        new_lineage[self._merged_set] = lineage
        return ProbabilisticTuple(t.tuple_id, new_certain, new_pdfs, new_lineage)

    def _swept(self, fam: type, n_rows: int) -> None:
        families = self.columnar_stats["families"]
        if n_rows:
            families[fam.__name__] = families.get(fam.__name__, 0) + n_rows

    def probabilities_columnar(self, batch) -> Optional[Tuple[List[float], List[int]]]:
        """``P(predicate holds AND the tuple exists)`` per row of ``batch``.

        The probability a PROB() threshold needs is exactly the mass of the
        selected (floored) tuple — so on the kernelizable shape it comes off
        the :func:`floored_masses` sweep (times any untouched sets' masses,
        :func:`independent_mass`), without the survivors :meth:`apply_columnar`
        would build only to measure and drop.
        Element-wise identical to ``apply`` + ``probability_of`` composed:
        filtered-out rows (NULL pdfs, mass <= ``TAIL_MASS``) read 0.0, and
        every other value is bitwise the one ``cached_mass`` would compute.

        Returns ``(probs, leftover_rows)`` where ``leftover_rows`` are the
        row indices the kernels cannot express (their ``probs`` slots still
        hold 0.0 — the caller resolves them via the reference path), or
        ``None`` when the whole batch needs the reference path.
        """
        if self.certain_only or self._fast_dep is None:
            return None
        col = batch.attr_column(self._fast_dep)
        tuples = batch.tuples
        out: List[float] = [0.0] * len(tuples)
        leftover = col.other_rows.tolist()
        for fam, rows, params, _pdfs, lins in col.groups:
            swept = floored_masses(fam, params, self._fast_allowed)
            if swept is None:
                leftover += rows.tolist()
                continue
            masses, before = swept[0], len(leftover)
            keep = np.flatnonzero(masses > TAIL_MASS)
            for i, j, m in zip(rows[keep].tolist(), keep.tolist(), masses[keep].tolist()):
                if self._untouched:  # the floored set comes after them in the survivor
                    t = tuples[i]
                    untouched = [(t.pdfs[s], t.lineage[s]) for s in self._untouched if t.pdfs[s] is not None]
                    m = independent_mass(untouched, self.config, m, lins[j], fam is DiscretePdf)
                if m is None:
                    leftover.append(i)
                else:
                    out[i] = m if m < 1.0 else 1.0
            self._swept(fam, len(rows) - (len(leftover) - before))
        stats = self.columnar_stats
        stats["kernel_rows"] += col.kernel_rows - (len(leftover) - len(col.other_rows))
        stats["fallback_rows"] += len(leftover)
        return out, sorted(leftover)

    def apply_columnar(self, batch, store: HistoryStore):
        """Select a batch; element-wise identical to :meth:`apply`.

        ``batch`` is a :class:`~repro.engine.executor.batch.TupleBatch`
        (duck-typed: anything with ``tuples`` and ``attr_column``).  On the
        kernelizable shape — single singleton dependency set, box region,
        the §IV sensor-workload shape — the column's groups are swept by
        :func:`floored_masses`, one array pass per pdf type, with no per-tuple
        type dispatch and no pdf-op-cache fingerprinting; the masses are
        bitwise the scalar ones, and each survivor's floor is built from the
        kernel's arrays exactly as ``restrict`` builds it.  NULL rows are
        dropped in place; every row the kernels cannot express and every
        other plan shape goes through :meth:`apply`, one tuple at a time.
        """
        tuples = batch.tuples
        if self.certain_only or self._fast_dep is None:
            return [self.apply(t, store) for t in tuples]
        col = batch.attr_column(self._fast_dep)

        stats = self.columnar_stats
        allowed = self._fast_allowed
        merged_set = self._merged_set
        (attr,) = merged_set
        untouched = self._untouched
        from_parts = FlooredPdf._from_parts
        new = object.__new__
        results: List[Optional[ProbabilisticTuple]] = [None] * len(tuples)
        fallback = col.other_rows.tolist()
        for fam, rows, params, pdfs, lins in col.groups:
            swept = floored_masses(fam, params, allowed)
            if swept is None:
                fallback += rows.tolist()
                continue
            self._swept(fam, len(rows))
            masses, part = swept
            keep = np.flatnonzero(masses > TAIL_MASS)
            for i, j in zip(rows[keep].tolist(), keep.tolist()):
                t = tuples[i]
                r = new(ProbabilisticTuple)  # ``_adopt``, inlined on the densest loop
                r.tuple_id = t.tuple_id
                # Alias, don't copy: tuples are immutable by convention
                # and nothing in the engine writes through ``certain``.
                r.certain = t.certain
                r.pdfs = {s: t.pdfs[s] for s in untouched}
                r.lineage = {s: t.lineage[s] for s in untouched}
                r.pdfs[merged_set] = (
                    from_parts(pdfs[j], allowed) if part is None else fam._from_arrays(*part(j), attr)
                )
                r.lineage[merged_set] = lins[j]
                results[i] = r
        stats["kernel_rows"] += col.kernel_rows - (len(fallback) - len(col.other_rows))

        # NULL rows stay None (predicate unknown → excluded), matching apply.
        stats["fallback_rows"] += len(fallback)
        for i in sorted(fallback):
            results[i] = self.apply(tuples[i], store)
        return results


def select(
    rel: ProbabilisticRelation,
    predicate: Predicate,
    config: ModelConfig = DEFAULT_CONFIG,
) -> ProbabilisticRelation:
    """σ_predicate(rel) under possible worlds semantics."""
    plan = SelectionPlan(rel.schema, predicate, config)
    out = rel.derived(plan.output_schema)
    for t in rel.tuples:
        result = plan.apply(t, rel.store)
        if result is not None:
            out.add_tuple(result)
    return out
