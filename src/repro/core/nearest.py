"""Probabilistic nearest-neighbor queries.

The query-processing literature the paper builds on (its references [2],
[4], [6]) revolves around two query classes over pdf attributes: range
queries (covered by selection + thresholds) and **nearest-neighbor
queries** — "which object is closest to q, and with what probability?".
This module adds the latter on top of the model.

For a query point q and tuples with (1-D or jointly 2-D) uncertain
locations, tuple i is the nearest neighbor at distance r when its location
lands at distance r and every other tuple lies farther:

    P(i is NN) = ∫ f_{D_i}(r) · Π_{j≠i} P(D_j > r) dr

where ``D_i = dist(X_i, q)``.  The implementation derives each tuple's
distance distribution exactly (1-D, via the location cdf) or on a grid
(2-D joints), then evaluates the integral on a shared distance lattice.

Partial pdfs compose naturally: an absent tuple never wins, and the
distance distributions are unconditional, so the probabilities sum to
``1 - P(no tuple exists)``.  Tuples must be historically independent
(verified), as with the aggregates.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..errors import QueryError
from ..pdf.base import Pdf, UnivariatePdf
from ..pdf.histogram import HistogramPdf
from .aggregates import assert_tuples_independent
from .model import DEFAULT_CONFIG, ModelConfig, ProbabilisticRelation

__all__ = ["distance_distribution", "nearest_neighbor_probabilities"]


def distance_distribution(
    pdf: Pdf, point: Sequence[float], bins: int = 256
) -> HistogramPdf:
    """The distribution of ``dist(X, point)`` as a histogram over r >= 0.

    1-D pdfs use their exact cdf (``F_D(r) = F(q+r) - F(q-r)``); joint pdfs
    collapse to a grid and accumulate cell masses by center distance.
    Partial input mass is preserved (the result is partial too).
    """
    point = [float(c) for c in point]
    if isinstance(pdf, UnivariatePdf):
        if len(point) != 1:
            raise QueryError(
                f"1-D attribute vs {len(point)}-D query point"
            )
        (q,) = point
        lo, hi = pdf.support()[pdf.attr]
        r_max = max(abs(lo - q), abs(hi - q))
        if r_max <= 0:
            r_max = 1e-9
        edges = np.linspace(0.0, r_max, bins + 1)
        upper = np.asarray(pdf.cdf(q + edges), dtype=float)
        lower = np.asarray(pdf.cdf(q - edges), dtype=float)
        cdf_d = upper - lower
        masses = np.clip(np.diff(cdf_d), 0.0, None)
        # Fold any clipped support into the last bucket to preserve mass.
        deficit = pdf.mass() - cdf_d[-1]
        if deficit > 0:
            masses[-1] += deficit
        return HistogramPdf(edges, masses, attr="distance")

    grid = pdf.to_grid()
    if len(grid.attrs) != len(point):
        raise QueryError(
            f"{len(grid.attrs)}-D attribute vs {len(point)}-D query point"
        )
    mesh = np.meshgrid(*[axis.representatives() for axis in grid.axes], indexing="ij")
    squared = np.zeros(mesh[0].shape)
    for coords, q in zip(mesh, point):
        squared += (coords - q) ** 2
    distances = np.sqrt(squared).reshape(-1)
    weights = grid.masses.reshape(-1)
    r_max = float(distances.max()) if distances.size else 1.0
    if r_max <= 0:
        r_max = 1e-9
    edges = np.linspace(0.0, r_max * (1 + 1e-9), bins + 1)
    masses, _ = np.histogram(distances, bins=edges, weights=weights)
    return HistogramPdf(edges, np.clip(masses, 0.0, None), attr="distance")


def nearest_neighbor_probabilities(
    rel: ProbabilisticRelation,
    attrs: Sequence[str],
    point: Sequence[float],
    bins: int = 512,
    config: ModelConfig = DEFAULT_CONFIG,
) -> List[Tuple[object, float]]:
    """P(tuple is the nearest neighbor of ``point``), per tuple.

    ``attrs`` names the location attribute(s); for multi-dimensional
    locations they must form one dependency set (a joint pdf).  Returns
    ``(tuple, probability)`` pairs in input order; the probabilities sum to
    ``1 - P(no tuple exists)``.  Ties (exactly equal distances) carry zero
    probability for continuous locations and are resolved in favour of the
    earlier integration cell otherwise.
    """
    if not rel.tuples:
        return []
    assert_tuples_independent(rel)
    attrs = list(attrs)
    for a in attrs:
        if not rel.schema.is_uncertain(a):
            raise QueryError(f"attribute {a!r} is certain; NN needs uncertain locations")

    dists: List[HistogramPdf] = []
    for t in rel.tuples:
        dep = t.dependency_set_of(attrs[0])
        if dep is None or not set(attrs) <= dep:
            raise QueryError(
                f"attributes {attrs} must form one dependency set per tuple"
            )
        pdf = t.pdfs[dep]
        if pdf is None:
            raise QueryError(f"tuple #{t.tuple_id} has a NULL location")
        marginal = pdf.marginalize(attrs) if set(pdf.attrs) != set(attrs) else pdf
        dists.append(distance_distribution(marginal, point, bins=bins))

    r_max = max(d.edges[-1] for d in dists)
    edges = np.linspace(0.0, r_max, bins + 1)
    centers = (edges[:-1] + edges[1:]) / 2.0
    # Per tuple: cell masses and survival P(D_j > r) at cell centers.
    cell_masses = []
    survival = []
    for d in dists:
        cdf_vals = np.asarray(d.cdf(edges), dtype=float)
        cell_masses.append(np.clip(np.diff(cdf_vals), 0.0, None))
        survival.append(1.0 - np.asarray(d.cdf(centers), dtype=float))

    out: List[Tuple[object, float]] = []
    for i, t in enumerate(rel.tuples):
        others = np.ones(len(centers))
        for j, s in enumerate(survival):
            if j != i:
                others = others * np.clip(s, 0.0, 1.0)
        p = float((cell_masses[i] * others).sum())
        out.append((t, min(max(p, 0.0), 1.0)))
    return out
