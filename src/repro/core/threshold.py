"""Operations on probability values (Section III-E).

Threshold queries — ``σ_{Pr(A) > p}(T)`` — filter tuples by the probability
mass they carry over an attribute set, rather than by the attribute values
themselves.  Because these predicates inspect the probabilistic model
directly (not a possible world), possible worlds semantics does not apply;
histories are simply copied over, as in selection Case 1.

:func:`tuple_probability` is also the general "does this tuple exist"
computation: ``Pr(all uncertain attributes)`` of a tuple is its existence
probability under the closed-world partial-pdf reading.
"""

from __future__ import annotations

import operator
from typing import Callable, Iterable, Optional, Sequence

from ..errors import QueryError
from ..pdf.kernels import RAGGED_PARAMS, ragged_masses
from .model import (
    DEFAULT_CONFIG,
    ModelConfig,
    ProbabilisticRelation,
    ProbabilisticTuple,
)
from .operations import cached_mass, independent_mass, product

__all__ = [
    "probability_of",
    "columnar_probability_of",
    "tuple_probability",
    "threshold_select",
    "existence_probability",
]

_OPS: dict = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
    "=": lambda a, b: abs(a - b) < 1e-12,
}


def probability_of(
    t: ProbabilisticTuple,
    store,
    attrs: Optional[Iterable[str]] = None,
    config: ModelConfig = DEFAULT_CONFIG,
) -> float:
    """``Pr(A)`` for tuple ``t`` given a history store (no schema checks).

    Low-level worker shared by the model API and the engine executor.
    """
    inputs = _inputs(t, attrs)
    if not inputs:
        return 1.0
    joint, _ = product(inputs, store, config)
    return min(cached_mass(joint), 1.0)


def _inputs(t: ProbabilisticTuple, attrs: Optional[Iterable[str]]) -> list:
    """``(pdf, lineage)`` of each set of ``t`` that ``attrs`` touch (every set
    for ``None``), NULL pdfs left out: the tuple exists with certainty there."""
    wanted = None if attrs is None else set(attrs)
    return [
        (pdf, t.lineage.get(dep, frozenset()))
        for dep, pdf in t.pdfs.items()
        if pdf is not None and (wanted is None or dep & wanted)
    ]


def columnar_probability_of(
    batch,
    store,
    attrs: Optional[Iterable[str]] = None,
    config: ModelConfig = DEFAULT_CONFIG,
) -> list:
    """``Pr(A)`` per row of a columnar batch; element-wise identical to
    :func:`probability_of`.

    ``batch`` is duck-typed: anything with ``tuples`` and ``attr_column``.
    When its tuples carry exactly one dependency set (the common
    single-uncertain-column shape), NULL and raw symbolic-family rows read
    1.0 (a raw family's ``mass()`` is exactly 1.0), explicit discrete and
    histogram rows, possibly partial, ``min(mass, 1.0)`` summed off the
    column's arrays (:func:`~repro.pdf.kernels.ragged_masses`), and only the
    rows the column view cannot express (floored pdfs, categoricals,
    symbolic discrete families, joints) are measured.  A row of any other
    shape reads the product of its set masses (:func:`independent_mass`,
    the selection kernel's rule for ``PROB``), and is measured only where
    ``product`` would build another joint.
    """
    tuples = batch.tuples
    deps = list(tuples[0].pdfs) if tuples else []
    if len(deps) != 1 or (attrs is not None and not deps[0] & set(attrs)):
        masses = [independent_mass(_inputs(t, attrs), config) for t in tuples]
        return [
            probability_of(t, store, attrs, config) if m is None else min(m, 1.0)
            for t, m in zip(tuples, masses)
        ]
    out = [1.0] * len(tuples)
    col = batch.attr_column(deps[0])
    for fam, rows, params, _pdfs, _lins in col.groups:
        if fam in RAGGED_PARAMS:  # the other groups are raw symbolic families: mass 1.0
            for i, m in zip(rows.tolist(), ragged_masses(params).tolist()):
                out[i] = m if m < 1.0 else 1.0
    for i in col.other_rows.tolist():
        out[i] = probability_of(tuples[i], store, attrs, config)
    return out


def tuple_probability(
    rel: ProbabilisticRelation,
    t: ProbabilisticTuple,
    attrs: Optional[Iterable[str]] = None,
    config: ModelConfig = DEFAULT_CONFIG,
) -> float:
    """``Pr(A)`` for tuple ``t``: the joint mass over the attribute set A.

    ``attrs`` defaults to every uncertain attribute of the tuple.  The
    computation builds the history-aware joint of all dependency sets that
    intersect A, so shared ancestors are counted once.  Certain attributes
    contribute probability 1; a NULL pdf contributes 1 as well (the tuple
    exists; only its values are unknown).
    """
    if attrs is not None:
        wanted = set(attrs)
        unknown = wanted - (set(rel.schema.visible_attrs) | rel.schema.phantom_attrs)
        if unknown:
            raise QueryError(f"unknown attributes in Pr(): {sorted(unknown)}")
    return probability_of(t, rel.store, attrs, config)


def existence_probability(
    rel: ProbabilisticRelation,
    t: ProbabilisticTuple,
    config: ModelConfig = DEFAULT_CONFIG,
) -> float:
    """The probability that tuple ``t`` exists at all."""
    return tuple_probability(rel, t, attrs=None, config=config)


def threshold_select(
    rel: ProbabilisticRelation,
    attrs: Optional[Sequence[str]],
    op: str,
    threshold: float,
    config: ModelConfig = DEFAULT_CONFIG,
) -> ProbabilisticRelation:
    """``σ_{Pr(attrs) op threshold}(rel)`` (Section III-E).

    ``attrs=None`` thresholds on the full tuple existence probability.
    Histories and pdfs of qualifying tuples are copied over unchanged.
    """
    if op not in _OPS:
        raise QueryError(f"unknown threshold operator {op!r}; use one of {sorted(_OPS)}")
    compare: Callable[[float, float], bool] = _OPS[op]
    out = rel.derived(rel.schema)
    for t in rel.tuples:
        p = tuple_probability(rel, t, attrs, config)
        if compare(p, threshold):
            out.add_tuple(ProbabilisticTuple(t.tuple_id, t.certain, t.pdfs, t.lineage))
    return out
