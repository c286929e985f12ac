"""Cross product, join, renaming, and dependency collapsing (Section III-D).

A join is a cross product followed by a selection, and that is literally how
it is implemented: the heavy lifting (history-aware products, floors) all
lives in :mod:`repro.core.select`.

The paper leaves one strategy choice to the implementation: whether the
intra-tuple dependencies implied by histories are merged into Δ *eagerly*
(collapsing joint pdfs at join time) or *lazily* (keeping marginals and
repairing from ancestors when a later operation needs the joint).  Joins
here are lazy; :func:`collapse_history` is the eager strategy, called on a
join's result, and the ablation benchmark compares the two.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Mapping

from ..errors import SchemaError
from .history import historically_dependent, rename_lineage
from .model import (
    DEFAULT_CONFIG,
    ModelConfig,
    ProbabilisticRelation,
    ProbabilisticSchema,
    ProbabilisticTuple,
)
from .operations import product
from .predicates import Predicate
from .select import select

__all__ = [
    "cross_product",
    "join",
    "rename",
    "prefix_attrs",
    "collapse_history",
]

def rename(
    rel: ProbabilisticRelation, mapping: Mapping[str, str]
) -> ProbabilisticRelation:
    """Rename visible and phantom attributes throughout a relation.

    Histories are renamed as well (each ancestor link records the mapping
    from base names to current names), so historical dependence — including
    self-join aliasing — survives the rename.
    """
    all_attrs = set(rel.schema.visible_attrs) | rel.schema.phantom_attrs
    unknown = [a for a in mapping if a not in all_attrs]
    if unknown:
        raise SchemaError(f"cannot rename unknown attributes {unknown}")
    new_schema = rel.schema.renamed(mapping)
    out = rel.derived(new_schema)
    for t in rel.tuples:
        new_certain = {mapping.get(k, k): v for k, v in t.certain.items()}
        new_pdfs = {}
        new_lineage = {}
        for dep, pdf in t.pdfs.items():
            new_dep = frozenset(mapping.get(a, a) for a in dep)
            new_pdfs[new_dep] = None if pdf is None else pdf.rename(mapping)
            new_lineage[new_dep] = rename_lineage(t.lineage.get(dep, frozenset()), mapping)
        out.add_tuple(ProbabilisticTuple(t.tuple_id, new_certain, new_pdfs, new_lineage))
    return out


def prefix_attrs(rel: ProbabilisticRelation, prefix: str) -> ProbabilisticRelation:
    """Rename every attribute ``a`` to ``prefix.a`` (join disambiguation)."""
    all_attrs = set(rel.schema.visible_attrs) | rel.schema.phantom_attrs
    return rename(rel, {a: f"{prefix}.{a}" for a in all_attrs})


def cross_product(
    left: ProbabilisticRelation, right: ProbabilisticRelation
) -> ProbabilisticRelation:
    """R = T1 × T2: concatenated schemas, unioned dependency information.

    Attribute names must be disjoint; use :func:`prefix_attrs` or
    :func:`rename` first when they are not.  Pdfs and histories are copied
    over per the paper's cross-product definition.
    """
    if left.store is not right.store:
        raise SchemaError(
            "cross product requires both relations to share one history store"
        )
    left_attrs = set(left.schema.visible_attrs) | left.schema.phantom_attrs
    right_attrs = set(right.schema.visible_attrs) | right.schema.phantom_attrs
    visible_overlap = set(left.schema.visible_attrs) & set(right.schema.visible_attrs)
    if visible_overlap:
        raise SchemaError(
            f"cross product attribute collision on {sorted(visible_overlap)}; "
            "rename one side first (see prefix_attrs)"
        )
    # Phantom attributes are invisible, so a colliding attribute is renamed
    # on whichever side holds it as a phantom; histories record the mapping,
    # keeping historical dependence detectable after the rename.
    overlap = (left_attrs & right_attrs) - visible_overlap
    if overlap:
        taken = left_attrs | right_attrs
        renames_left: Dict[str, str] = {}
        renames_right: Dict[str, str] = {}
        for attr in sorted(overlap):
            i = 1
            while f"{attr}#{i}" in taken:
                i += 1
            fresh = f"{attr}#{i}"
            taken.add(fresh)
            if attr in right.schema.phantom_attrs:
                renames_right[attr] = fresh
            else:
                renames_left[attr] = fresh
        if renames_left:
            left = rename(left, renames_left)
        if renames_right:
            right = rename(right, renames_right)
    schema = ProbabilisticSchema(
        list(left.schema.columns) + list(right.schema.columns),
        list(left.schema.dependency) + list(right.schema.dependency),
    )
    out = left.derived(schema)
    for tl, tr in itertools.product(left.tuples, right.tuples):
        certain = dict(tl.certain)
        certain.update(tr.certain)
        pdfs = dict(tl.pdfs)
        pdfs.update(tr.pdfs)
        lineage = dict(tl.lineage)
        lineage.update(tr.lineage)
        out.add_tuple(
            ProbabilisticTuple(left.store.new_tuple_id(), certain, pdfs, lineage)
        )
    return out


def join(
    left: ProbabilisticRelation,
    right: ProbabilisticRelation,
    predicate: Predicate,
    config: ModelConfig = DEFAULT_CONFIG,
) -> ProbabilisticRelation:
    """T1 ⋈_θ T2 = σ_θ(T1 × T2)."""
    return select(cross_product(left, right), predicate, config)


def collapse_history(
    rel: ProbabilisticRelation, config: ModelConfig = DEFAULT_CONFIG
) -> ProbabilisticRelation:
    """Eagerly merge historically dependent dependency sets into joints.

    Groups the dependency sets whose lineages (in any tuple) share an
    ancestor, replaces each group with its explicit joint pdf built by the
    history-aware ``product``, and returns the collapsed relation.  After
    collapsing, intra-tuple dependence implied by Λ is materialised in Δ.
    """
    deps = list(rel.schema.dependency)
    if len(deps) < 2:
        return rel

    # Union-find over dependency sets, linked when any tuple shows history overlap.
    parent = list(range(len(deps)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    for t in rel.tuples:
        lineages = [t.lineage.get(dep, frozenset()) for dep in deps]
        for i in range(len(deps)):
            for j in range(i + 1, len(deps)):
                if historically_dependent(lineages[i], lineages[j]):
                    union(i, j)

    groups: Dict[int, List[int]] = {}
    for i in range(len(deps)):
        groups.setdefault(find(i), []).append(i)
    if all(len(g) == 1 for g in groups.values()):
        return rel

    new_dependency = [
        frozenset().union(*(deps[i] for i in members)) for members in groups.values()
    ]
    new_schema = ProbabilisticSchema(rel.schema.columns, new_dependency)
    out = rel.derived(new_schema)
    for t in rel.tuples:
        new_pdfs = {}
        new_lineage = {}
        for members, merged in zip(groups.values(), new_dependency):
            if len(members) == 1:
                dep = deps[members[0]]
                new_pdfs[merged] = t.pdfs.get(dep)
                new_lineage[merged] = t.lineage.get(dep, frozenset())
                continue
            inputs = []
            has_null = False
            for i in members:
                pdf = t.pdfs.get(deps[i])
                if pdf is None:
                    has_null = True
                    break
                inputs.append((pdf, t.lineage.get(deps[i], frozenset())))
            if has_null:
                new_pdfs[merged] = None
                new_lineage[merged] = frozenset()
                continue
            joint, lineage = product(inputs, rel.store, config)
            new_pdfs[merged] = joint
            new_lineage[merged] = lineage
        out.add_tuple(
            ProbabilisticTuple(t.tuple_id, dict(t.certain), new_pdfs, new_lineage)
        )
    return out
