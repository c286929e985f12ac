"""Aggregates over uncertain attributes.

Section I of the paper motivates continuous representations with aggregates:
the exact sum of n discrete uncertain attributes can have exponentially many
values, while a continuous (moment-matched) approximation is constant size.
These operators provide both, plus COUNT / MIN / MAX:

* ``count_distribution`` — the Poisson-binomial distribution of how many
  tuples exist (exact dynamic program over existence probabilities),
* ``sum_distribution`` — exact discrete convolution or Gaussian / histogram
  approximations; absent tuples contribute zero,
* ``min_distribution`` / ``max_distribution`` — via cdf products on a grid,
* ``expected_value`` — E[attr] weighted by existence.

All of these assume the aggregated tuples are *historically independent*;
:func:`assert_tuples_independent` verifies that from the lineages and raises
otherwise (correlated aggregation would require joint enumeration).  A
tuple exists only when all its dependency sets drew a value, so its share is
weighted by its other sets' existence probability (:func:`_attr_pdf`).

The engine hands these functions *projected* tuples: a scan under an
aggregate decodes only the sets the statement names plus those some stored
row held partial (``engine.sql.planner._read_sets``).  A set left out had
full mass in every row (within :func:`~repro.core.project.is_partial`'s
1e-9), so it is the phantom the paper's projection (§III-B) drops anyway
and existence is taken over the sets that remain.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..errors import QueryError, UnsupportedOperationError
from ..pdf.arithmetic import sum_independent
from ..pdf.base import UnivariatePdf
from ..pdf.continuous import GaussianPdf
from ..pdf.discrete import DiscretePdf
from ..pdf.histogram import HistogramPdf
from .history import historically_dependent
from .model import DEFAULT_CONFIG, ModelConfig, ProbabilisticRelation
from .operations import cached_mass, product
from .threshold import probability_of, tuple_probability

__all__ = [
    "assert_tuples_independent",
    "count_distribution",
    "sum_distribution",
    "expected_value",
    "min_distribution",
    "max_distribution",
]


def assert_tuples_independent(rel: ProbabilisticRelation) -> None:
    """Raise unless no two tuples share an ancestor."""
    seen: set = set()
    for t in rel.tuples:
        refs = {link.ref for lineage in t.lineage.values() for link in lineage}
        if refs & seen:
            raise UnsupportedOperationError(
                "aggregate requires historically independent tuples; "
                f"shared ancestors: {sorted(map(repr, refs & seen))}"
            )
        seen |= refs


def _attr_pdf(
    rel: ProbabilisticRelation, t, attr: str, config: ModelConfig
) -> Tuple[UnivariatePdf, float]:
    """``attr``'s marginal in ``t`` and the weight of ``t``'s contribution:
    the probability that its other dependency sets drew values too (1 when
    they all have full mass).

    When one of them is partial and shares an ancestor with ``attr``'s set,
    the marginal comes from their history-aware joint, which already holds
    that probability, and the weight is 1.
    """
    dep = t.dependency_set_of(attr)
    if dep is None:
        raise QueryError(f"attribute {attr!r} is certain; aggregate it directly")
    pdf = t.pdfs[dep]
    if pdf is None:
        raise QueryError(f"attribute {attr!r} is NULL in tuple #{t.tuple_id}")
    others = [d for d, p in t.pdfs.items() if d != dep and p is not None]
    weight = 1.0
    if any(cached_mass(t.pdfs[d]) != 1.0 for d in others):
        lineage = {d: t.lineage.get(d, frozenset()) for d in (dep, *others)}
        if config.use_history and any(
            historically_dependent(lineage[dep], lineage[d]) for d in others
        ):
            pdf, _ = product([(t.pdfs[d], lineage[d]) for d in (dep, *others)], rel.store, config)
        else:
            weight = probability_of(t, rel.store, [a for d in others for a in d], config)
    marginal = pdf.marginalize([attr])
    if not isinstance(marginal, UnivariatePdf):
        raise UnsupportedOperationError(
            f"marginal of {attr!r} is not univariate: {type(marginal).__name__}"
        )
    return marginal, weight


def count_distribution(
    rel: ProbabilisticRelation, config: ModelConfig = DEFAULT_CONFIG
) -> DiscretePdf:
    """The exact distribution of COUNT(*) (a Poisson-binomial).

    Dynamic program over per-tuple existence probabilities; O(n^2) time,
    exact for any mix of certain and partial tuples.
    """
    assert_tuples_independent(rel)
    probs = [tuple_probability(rel, t, config=config) for t in rel.tuples]
    # Degenerate shortcut: with every p exactly 0.0 or 1.0 the recurrence
    # only multiplies by exact 0.0/1.0, i.e. shifts the point mass — the
    # result is bitwise the same point distribution, computed in O(n).
    # This is the common all-raw-pdfs case (existence probability 1).
    if all(p == 1.0 or p == 0.0 for p in probs):
        k = sum(1 for p in probs if p == 1.0)
        return DiscretePdf({float(k): 1.0}, attr="count")
    dist = np.zeros(len(probs) + 1)
    dist[0] = 1.0
    for p in probs:
        dist[1:] = dist[1:] * (1.0 - p) + dist[:-1] * p
        dist[0] *= 1.0 - p
    return DiscretePdf(
        {float(k): float(v) for k, v in enumerate(dist) if v > 0.0}, attr="count"
    )


def _contribution(marginal: UnivariatePdf, weight: float) -> UnivariatePdf:
    """A tuple's contribution to SUM: its value, or 0 when absent."""
    mass = marginal.mass() * weight
    missing = 1.0 - mass
    if missing <= 1e-12:
        return marginal
    if isinstance(marginal, DiscretePdf):
        pairs = {v: p * weight for v, p in marginal.items()}
        pairs[0.0] = pairs.get(0.0, 0.0) + missing
        return DiscretePdf(pairs, attr=marginal.attr)
    # Continuous partial pdf: fold the absence atom in via moment matching.
    mu = marginal.mean() * mass
    second = (marginal.variance() + marginal.mean() ** 2) * mass
    var = second - mu**2
    if var <= 0:
        raise UnsupportedOperationError("degenerate contribution variance")
    return GaussianPdf(mu, var, attr=marginal.attr)


def sum_distribution(
    rel: ProbabilisticRelation,
    attr: str,
    method: str = "auto",
    config: ModelConfig = DEFAULT_CONFIG,
) -> UnivariatePdf:
    """The distribution of SUM(attr) over independent tuples.

    ``method`` is forwarded to :func:`repro.pdf.arithmetic.sum_independent`:
    ``"exact"`` performs the (potentially exponential) discrete convolution,
    ``"gaussian"`` the paper's constant-size continuous approximation.
    Absent tuples (partial pdfs) contribute zero.
    """
    assert_tuples_independent(rel)
    if not rel.tuples:
        return DiscretePdf({0.0: 1.0}, attr="sum")
    contributions = [
        _contribution(*_attr_pdf(rel, t, attr, config)) for t in rel.tuples
    ]
    return sum_independent(contributions, method=method, attr="sum")


def expected_value(
    rel: ProbabilisticRelation, attr: str, config: ModelConfig = DEFAULT_CONFIG
) -> float:
    """E[SUM(attr)] = sum of existence-weighted means (always exact)."""
    total = 0.0
    for t in rel.tuples:
        marginal, weight = _attr_pdf(rel, t, attr, config)
        total += marginal.mean() * marginal.mass() * weight
    return total


def _extreme_distribution(
    rel: ProbabilisticRelation, attr: str, bins: int, largest: bool, config: ModelConfig
) -> HistogramPdf:
    assert_tuples_independent(rel)
    if not rel.tuples:
        raise QueryError("MIN/MAX over an empty relation is undefined")
    marginals: List[UnivariatePdf] = []
    for t in rel.tuples:
        marginal, weight = _attr_pdf(rel, t, attr, config)
        if marginal.mass() * weight < 1.0 - 1e-9:
            raise UnsupportedOperationError(
                "MIN/MAX needs full-mass tuples (every tuple must exist)"
            )
        marginals.append(marginal)
    lo = min(m.support()[m.attr][0] for m in marginals)
    hi = max(m.support()[m.attr][1] for m in marginals)
    if hi <= lo:
        hi = lo + 1e-9
    edges = np.linspace(lo, hi, bins + 1)
    cdf = np.ones(len(edges))
    for m in marginals:
        values = np.clip(m.cdf(edges), 0.0, 1.0)
        cdf *= values if largest else (1.0 - values)
    result_cdf = cdf if largest else 1.0 - cdf
    masses = np.clip(np.diff(result_cdf), 0.0, None)
    # Clamp boundary leakage (cdf might not quite reach 0/1 at the edges).
    total = masses.sum()
    if total > 0:
        masses = masses * min(1.0, 1.0 / total)
    name = "max" if largest else "min"
    return HistogramPdf(edges, masses, attr=name)


def max_distribution(
    rel: ProbabilisticRelation, attr: str, bins: int = 256, config: ModelConfig = DEFAULT_CONFIG
) -> HistogramPdf:
    """The distribution of MAX(attr): P(max <= x) = prod of cdfs."""
    return _extreme_distribution(rel, attr, bins, True, config)


def min_distribution(
    rel: ProbabilisticRelation, attr: str, bins: int = 256, config: ModelConfig = DEFAULT_CONFIG
) -> HistogramPdf:
    """The distribution of MIN(attr): P(min > x) = prod of tail cdfs."""
    return _extreme_distribution(rel, attr, bins, False, config)
