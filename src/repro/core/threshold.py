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
from .model import (
    DEFAULT_CONFIG,
    ModelConfig,
    ProbabilisticRelation,
    ProbabilisticTuple,
)
from .operations import cached_mass, product

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
    if attrs is None:
        targets = list(t.pdfs.keys())
    else:
        wanted = set(attrs)
        targets = [dep for dep in t.pdfs if dep & wanted]

    inputs = []
    for dep in targets:
        pdf = t.pdfs[dep]
        if pdf is None:
            continue  # NULL pdf: the tuple exists with certainty
        inputs.append((pdf, t.lineage.get(dep, frozenset())))
    if not inputs:
        return 1.0
    joint, _ = product(inputs, store, config)
    return min(cached_mass(joint), 1.0)


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
    single-uncertain-column shape), NULL rows and raw symbolic-family rows
    read 1.0 straight off the column's row vectors — a raw family's
    ``mass()`` is exactly 1.0, so ``min(mass, 1.0)`` needs no evaluation at
    all — and only the rows the column view cannot express (floored pdfs,
    histograms, discrete pdfs, joints) are measured.  Every other shape is
    measured tuple by tuple.
    """
    tuples = batch.tuples
    if not tuples:
        return []
    deps = list(tuples[0].pdfs)
    if len(deps) == 1:
        (dep,) = deps
        if attrs is not None and not (dep & set(attrs)):
            # no target dependency sets: every tuple exists with certainty
            return [1.0] * len(tuples)
        out: list = [1.0] * len(tuples)
        for i in batch.attr_column(dep).other_rows.tolist():
            out[i] = probability_of(tuples[i], store, attrs, config)
        return out
    return [probability_of(t, store, attrs, config) for t in tuples]


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
