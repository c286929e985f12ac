"""Duplicate elimination — the paper's future-work operator, restricted.

Section III-B: "we do not address the issue of duplicate elimination in
projections in this paper ... the concept of duplicate elimination for
probabilistic data in general leads to complex historical dependencies."

This module implements the tractable fragment:

* every *visible* attribute of the input must be **certain** (project the
  uncertain ones away first — their dependency sets may persist as
  phantoms carrying existence mass),
* tuples carrying the same certain values must be **historically
  independent** of each other (lineages disjoint), so that
  ``P(row in result) = 1 - prod(1 - P(tuple_i exists))`` is exact.

Each distinct row becomes one output tuple whose existence probability is
carried by a phantom ``__exists`` dependency set — the model's uniform way
of encoding "this tuple is present with probability p".  Inputs that fall
outside the fragment raise :class:`UnsupportedOperationError` with the
paper's caveat, rather than returning silently wrong probabilities.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..errors import UnsupportedOperationError
from ..pdf.discrete import DiscretePdf
from .history import HistoryStore, historically_dependent
from .model import (
    DEFAULT_CONFIG,
    ModelConfig,
    ProbabilisticRelation,
    ProbabilisticSchema,
    ProbabilisticTuple,
)
from .threshold import probability_of

__all__ = ["distinct", "distinct_row", "EXISTS_ATTR"]

#: Phantom attribute name carrying a distinct row's existence probability.
EXISTS_ATTR = "__exists"


def distinct(
    rel: ProbabilisticRelation, config: ModelConfig = DEFAULT_CONFIG
) -> ProbabilisticRelation:
    """Bag-to-set conversion over certain-valued rows.

    Returns a relation with the same certain columns and one tuple per
    distinct value combination, in order of first appearance; existence
    probabilities are combined under historical independence (verified,
    not assumed).  A NaN equals nothing, itself included, so a row holding
    one is never a duplicate.
    """
    uncertain_visible = sorted(rel.schema.uncertain_attrs)
    if uncertain_visible:
        raise UnsupportedOperationError(
            "duplicate elimination over uncertain attributes leads to complex "
            "historical dependencies (paper Section III-B, future work); "
            f"project away {uncertain_visible} or aggregate instead"
        )

    groups: Dict[object, List[ProbabilisticTuple]] = {}
    columns = rel.schema.visible_attrs
    for t in rel.tuples:
        key: object = tuple(t.certain.get(c) for c in columns)
        if any(v != v for v in key):  # NaN: a group of its own
            key = object()
        groups.setdefault(key, []).append(t)

    out = rel.derived(ProbabilisticSchema(rel.schema.columns, [{EXISTS_ATTR}]))
    for members in groups.values():
        out.add_tuple(
            distinct_row(rel.store.new_tuple_id(), members, columns, rel.store, config)
        )
    return out


def distinct_row(
    tuple_id: int,
    members: Sequence[ProbabilisticTuple],
    columns: Sequence[str],
    store: HistoryStore,
    config: ModelConfig = DEFAULT_CONFIG,
) -> ProbabilisticTuple:
    """The one result row for duplicates ``members`` (in input order).

    It carries the first member's ``columns`` values and exists with
    probability ``1 - prod(1 - P(member exists))`` — exact only when the
    members are pairwise historically independent, which is checked — and
    its lineage is the union of theirs.
    """
    lineages = [
        frozenset().union(*t.lineage.values()) if t.lineage else frozenset()
        for t in members
    ]
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            if historically_dependent(lineages[i], lineages[j]):
                raise UnsupportedOperationError(
                    "duplicate elimination over historically dependent "
                    "tuples is not supported (paper Section III-B); "
                    f"rows {members[i].tuple_id} and {members[j].tuple_id} "
                    "share ancestors"
                )
    absent = 1.0
    for t in members:
        absent *= 1.0 - probability_of(t, store, None, config)
    dep = frozenset({EXISTS_ATTR})
    return ProbabilisticTuple(
        tuple_id,
        {c: members[0].certain.get(c) for c in columns},
        {dep: DiscretePdf({1.0: 1.0 - absent}, attr=EXISTS_ATTR)},
        {dep: frozenset().union(*lineages)},
    )
