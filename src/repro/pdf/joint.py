"""Joint (multi-attribute) distributions.

Dependency sets with more than one attribute (Section II-A: e.g. jointly
distributed x/y coordinates of a moving object) are represented by joint
pdfs.  Four representations cover the model:

* :class:`JointDiscretePdf` — sparse, exact, all-discrete joints; the
  representation in the paper's Section III-C worked example.
* :class:`JointGridPdf` — the universal dense fallback: per-dimension axes
  (continuous bucket edges or discrete value lists) with a probability-mass
  array.  Every other pdf can collapse to this form, which is what makes
  arbitrary predicates (``a < b``) computable.
* :class:`JointGaussianPdf` — symbolic multivariate normal (correlated
  continuous attributes such as GPS x/y error).
* :class:`ProductPdf` — a lazy independent product of factor pdfs; keeps
  symbolic factors symbolic until a genuinely joint operation forces a
  collapse.  This is the representation produced by the ``product``
  primitive for historically independent inputs.

All four preserve partial mass and support the core primitives
(``marginalize`` / ``restrict`` / ``mass``), so the relational operators in
:mod:`repro.core` never care which concrete class they hold.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy import stats

from ..errors import (
    DimensionMismatchError,
    InvalidDistributionError,
    PdfError,
)
from .base import GRID_RESOLUTION, MASS_TOLERANCE, TAIL_MASS, Pdf
from .discrete import DiscretePdf, SymbolicDiscretePdf
from .floors import FlooredPdf
from .regions import BoxRegion, Region

__all__ = [
    "Axis",
    "ContinuousAxis",
    "DiscreteAxis",
    "JointGridPdf",
    "JointDiscretePdf",
    "JointGaussianPdf",
    "ProductPdf",
    "independent_product",
    "as_joint_discrete",
]


# ---------------------------------------------------------------------------
# Axes
# ---------------------------------------------------------------------------


class Axis:
    """One dimension of a :class:`JointGridPdf`."""

    attr: str

    @property
    def size(self) -> int:
        raise NotImplementedError

    def representatives(self) -> np.ndarray:
        """One evaluation point per cell (centers / discrete values)."""
        raise NotImplementedError

    def locate(self, xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Map values to (cell index, inside mask)."""
        raise NotImplementedError

    def refine(self, cut_points: Iterable[float]) -> Tuple["Axis", np.ndarray, np.ndarray]:
        """Split cells at ``cut_points``.

        Returns ``(new_axis, parent_index, fraction)`` where ``fraction`` is
        the share of the parent cell's mass each new cell receives.
        """
        raise NotImplementedError

    def with_attr(self, attr: str) -> "Axis":
        """This axis under another name, sharing the cell array."""
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.attr = str(attr)
        return clone


class ContinuousAxis(Axis):
    """A continuous dimension: ``n + 1`` strictly increasing bucket edges."""

    def __init__(self, attr: str, edges: Iterable[float]):
        self.attr = str(attr)
        arr = np.asarray(list(edges), dtype=float)
        if arr.ndim != 1 or len(arr) < 2 or np.any(np.diff(arr) <= 0):
            raise InvalidDistributionError("axis edges must be strictly increasing, len >= 2")
        self.edges = arr

    @property
    def size(self) -> int:
        return len(self.edges) - 1

    def representatives(self) -> np.ndarray:
        return (self.edges[:-1] + self.edges[1:]) / 2.0

    def widths(self) -> np.ndarray:
        """Cell Lebesgue measure."""
        return np.diff(self.edges)

    def locate(self, xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        xs = np.asarray(xs, dtype=float)
        idx = np.searchsorted(self.edges, xs, side="right") - 1
        idx = np.where(xs == self.edges[-1], self.size - 1, idx)
        inside = (idx >= 0) & (idx < self.size)
        return np.clip(idx, 0, self.size - 1), inside

    def refine(self, cut_points: Iterable[float]) -> Tuple["ContinuousAxis", np.ndarray, np.ndarray]:
        lo, hi = self.edges[0], self.edges[-1]
        cuts = sorted(
            {float(c) for c in cut_points if lo < c < hi and np.isfinite(c)}
            | set(self.edges.tolist())
        )
        new_edges = np.array(cuts, dtype=float)
        parent = np.searchsorted(self.edges, new_edges[:-1], side="right") - 1
        parent = np.clip(parent, 0, self.size - 1)
        parent_width = np.diff(self.edges)[parent]
        fraction = np.diff(new_edges) / parent_width
        return ContinuousAxis(self.attr, new_edges), parent, fraction

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ContinuousAxis):
            return NotImplemented
        return self.attr == other.attr and np.array_equal(self.edges, other.edges)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ContinuousAxis({self.attr}, {self.size} cells on [{self.edges[0]:g}, {self.edges[-1]:g}])"


class DiscreteAxis(Axis):
    """A discrete dimension: an ordered list of attainable values."""

    def __init__(self, attr: str, values: Iterable[float]):
        self.attr = str(attr)
        arr = np.asarray(list(values), dtype=float)
        if arr.ndim != 1 or len(arr) == 0 or np.any(np.diff(arr) <= 0):
            raise InvalidDistributionError("axis values must be strictly increasing, len >= 1")
        self.values = arr

    @property
    def size(self) -> int:
        return len(self.values)

    def representatives(self) -> np.ndarray:
        return self.values

    def locate(self, xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        xs = np.asarray(xs, dtype=float)
        idx = np.searchsorted(self.values, xs)
        idx = np.clip(idx, 0, self.size - 1)
        inside = self.values[idx] == xs
        return idx, inside

    def refine(self, cut_points: Iterable[float]) -> Tuple["DiscreteAxis", np.ndarray, np.ndarray]:
        # Discrete axes never need splitting; membership is exact already.
        identity = np.arange(self.size)
        return self, identity, np.ones(self.size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscreteAxis):
            return NotImplemented
        return self.attr == other.attr and np.array_equal(self.values, other.values)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DiscreteAxis({self.attr}, {self.size} values)"


# ---------------------------------------------------------------------------
# JointGridPdf — the universal dense representation
# ---------------------------------------------------------------------------


class JointGridPdf(Pdf):
    """A dense joint pdf: one axis per attribute and a mass array.

    ``masses[i, j, ...]`` is the probability mass of the cell formed by cell
    ``i`` of the first axis, cell ``j`` of the second, and so on.  Mixed
    continuous/discrete axes are supported, which is what lets selections
    correlate a certain (point-mass) attribute with an uncertain one
    (Case 2(b) of Section III-C uses an identity pdf over certain values).
    """

    def __init__(self, axes: Sequence[Axis], masses: np.ndarray):
        axes = tuple(axes)
        masses = np.asarray(masses, dtype=float)
        if masses.shape != tuple(a.size for a in axes):
            raise DimensionMismatchError(
                f"mass array shape {masses.shape} does not match axes "
                f"{tuple(a.size for a in axes)}"
            )
        if np.any(masses < -1e-12):
            raise InvalidDistributionError("grid masses must be non-negative")
        total = float(masses.sum())
        if total > 1.0 + 1e-6:
            raise InvalidDistributionError(f"grid masses sum to {total} > 1")
        names = [a.attr for a in axes]
        if len(set(names)) != len(names):
            raise DimensionMismatchError(f"duplicate axis attributes: {names}")
        self.axes = axes
        self.masses = np.clip(masses, 0.0, None)
        self.attrs = tuple(names)

    # -- structural -----------------------------------------------------------

    @property
    def is_discrete(self) -> bool:
        return all(isinstance(a, DiscreteAxis) for a in self.axes)

    def _relabelled(self, names: Tuple[str, ...]) -> "JointGridPdf":
        clone = super()._relabelled(names)
        clone.axes = tuple(a.with_attr(n) for a, n in zip(self.axes, names))
        return clone

    def __repr__(self) -> str:
        shape = "x".join(str(a.size) for a in self.axes)
        return f"JointGrid({', '.join(self.attrs)}; {shape} cells, mass={self.mass():.4g})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JointGridPdf):
            return NotImplemented
        return (
            self.axes == other.axes
            and self.masses.shape == other.masses.shape
            and np.array_equal(self.masses, other.masses)
        )

    # -- probabilistic core -------------------------------------------------------

    def mass(self) -> float:
        return float(self.masses.sum())

    def _representative_mesh(self) -> Dict[str, np.ndarray]:
        grids = np.meshgrid(*[a.representatives() for a in self.axes], indexing="ij")
        return {a.attr: g for a, g in zip(self.axes, grids)}

    def _refined_for_box(self, region: BoxRegion) -> "JointGridPdf":
        """Split continuous axes at the box boundaries for exact masks."""
        new_axes: List[Axis] = []
        grid = self.masses
        for dim, axis in enumerate(self.axes):
            cuts: List[float] = []
            allowed = region.interval_set(axis.attr)
            for iv in allowed.intervals:
                cuts.extend([iv.lo, iv.hi])
            new_axis, parent, fraction = axis.refine(cuts)
            new_axes.append(new_axis)
            grid = np.take(grid, parent, axis=dim)
            shape = [1] * grid.ndim
            shape[dim] = len(fraction)
            grid = grid * fraction.reshape(shape)
        return JointGridPdf(tuple(new_axes), grid)

    def restrict(self, region: Region) -> "JointGridPdf":
        unknown = [a for a in region.attrs if a not in self.attrs]
        if unknown:
            raise DimensionMismatchError(f"region mentions unknown attributes {unknown}")
        target = self._refined_for_box(region) if isinstance(region, BoxRegion) else self
        mesh = target._representative_mesh()
        inside = np.asarray(region.contains(mesh), dtype=bool)
        return JointGridPdf(target.axes, np.where(inside, target.masses, 0.0))

    def marginalize(self, attrs: Sequence[str]) -> "JointGridPdf":
        self._require_attrs(attrs)
        if not attrs:
            raise PdfError("cannot marginalize to an empty attribute list")
        keep = set(attrs)
        drop_dims = tuple(i for i, a in enumerate(self.axes) if a.attr not in keep)
        summed = self.masses.sum(axis=drop_dims) if drop_dims else self.masses
        kept_axes = [a for a in self.axes if a.attr in keep]
        order = [next(i for i, a in enumerate(kept_axes) if a.attr == name) for name in attrs]
        return JointGridPdf(
            tuple(kept_axes[i] for i in order), np.transpose(summed, order)
        )

    # -- support / conversion --------------------------------------------------------

    def support(self) -> Dict[str, Tuple[float, float]]:
        out = {}
        for axis in self.axes:
            if isinstance(axis, ContinuousAxis):
                out[axis.attr] = (float(axis.edges[0]), float(axis.edges[-1]))
            else:
                vals = axis.representatives()
                out[axis.attr] = (float(vals[0]), float(vals[-1]))
        return out

    def to_grid(self) -> "JointGridPdf":
        return self

    # -- moments / sampling ----------------------------------------------------------------

    def mean(self, attr: str) -> float:
        marg = self.marginalize([attr])
        m = marg.mass()
        if m <= MASS_TOLERANCE:
            raise PdfError("mean of a zero-mass pdf is undefined")
        reps = marg.axes[0].representatives()
        return float((reps * marg.masses).sum() / m)

    def variance(self, attr: str) -> float:
        marg = self.marginalize([attr])
        m = marg.mass()
        if m <= MASS_TOLERANCE:
            raise PdfError("variance of a zero-mass pdf is undefined")
        reps = marg.axes[0].representatives()
        mu = float((reps * marg.masses).sum() / m)
        var = float(((reps - mu) ** 2 * marg.masses).sum() / m)
        axis = marg.axes[0]
        if isinstance(axis, ContinuousAxis):
            var += float((axis.widths() ** 2 / 12.0 * marg.masses).sum() / m)
        return var

    def sample(self, rng: np.random.Generator, n: int) -> Dict[str, np.ndarray]:
        m = self.mass()
        if m <= MASS_TOLERANCE:
            raise PdfError("cannot sample a zero-mass pdf")
        flat = self.masses.reshape(-1) / m
        picks = rng.choice(len(flat), size=n, p=flat)
        cell_idx = np.unravel_index(picks, self.masses.shape)
        out: Dict[str, np.ndarray] = {}
        for axis, idx in zip(self.axes, cell_idx):
            if isinstance(axis, ContinuousAxis):
                left = axis.edges[:-1][idx]
                width = axis.widths()[idx]
                out[axis.attr] = left + width * rng.random(n)
            else:
                out[axis.attr] = axis.representatives()[idx]
        return out


# ---------------------------------------------------------------------------
# JointDiscretePdf — sparse exact joints
# ---------------------------------------------------------------------------


class JointDiscretePdf(Pdf):
    """A sparse, exact joint pmf: value tuples mapped to probabilities.

    This is the representation of the paper's Section III-C example result,
    ``Discrete({0,1}: 0.06, {0,2}: 0.04, {1,2}: 0.36)`` over ``(a, b)``.
    """

    def __init__(self, attrs: Sequence[str], table: Mapping[Tuple[float, ...], float]):
        self.attrs = tuple(str(a) for a in attrs)
        if len(set(self.attrs)) != len(self.attrs):
            raise DimensionMismatchError(f"duplicate attributes: {self.attrs}")
        if not table:
            raise InvalidDistributionError("a joint discrete pdf needs at least one entry")
        cleaned: Dict[Tuple[float, ...], float] = {}
        for key, prob in table.items():
            key_t = tuple(float(v) for v in (key if isinstance(key, tuple) else (key,)))
            if len(key_t) != len(self.attrs):
                raise DimensionMismatchError(
                    f"entry {key_t} has arity {len(key_t)}, expected {len(self.attrs)}"
                )
            if prob < -MASS_TOLERANCE:
                raise InvalidDistributionError("probabilities must be non-negative")
            cleaned[key_t] = cleaned.get(key_t, 0.0) + max(float(prob), 0.0)
        total = sum(cleaned.values())
        if total > 1.0 + 1e-6:
            raise InvalidDistributionError(f"probabilities sum to {total} > 1")
        self._table = dict(sorted(cleaned.items()))

    # -- structural ----------------------------------------------------------

    @property
    def is_discrete(self) -> bool:
        return True

    @property
    def table(self) -> Dict[Tuple[float, ...], float]:
        return dict(self._table)

    def items(self) -> Iterable[Tuple[Tuple[float, ...], float]]:
        return self._table.items()

    def __repr__(self) -> str:
        inner = ", ".join(
            "{" + ",".join(f"{v:g}" for v in key) + f"}}:{p:.4g}" for key, p in self.items()
        )
        return f"JointDiscrete[{','.join(self.attrs)}]({inner})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JointDiscretePdf):
            return NotImplemented
        if self.attrs != other.attrs or set(self._table) != set(other._table):
            return False
        return all(abs(p - other._table[k]) < 1e-9 for k, p in self._table.items())

    # -- probabilistic core ------------------------------------------------------

    def mass(self) -> float:
        return float(sum(self._table.values()))

    def _entry_mask(self, region: Region) -> List[bool]:
        unknown = [a for a in region.attrs if a not in self.attrs]
        if unknown:
            raise DimensionMismatchError(f"region mentions unknown attributes {unknown}")
        keys = list(self._table)
        columns = {
            a: np.array([k[i] for k in keys]) for i, a in enumerate(self.attrs)
        }
        inside = np.asarray(region.contains(columns), dtype=bool)
        return list(np.atleast_1d(inside))

    def restrict(self, region: Region) -> "JointDiscretePdf":
        mask = self._entry_mask(region)
        kept = {key: p for (key, p), ok in zip(self.items(), mask) if ok}
        if not kept:
            first = next(iter(self._table))
            kept = {first: 0.0}
        return JointDiscretePdf(self.attrs, kept)

    def marginalize(self, attrs: Sequence[str]) -> Pdf:
        self._require_attrs(attrs)
        if not attrs:
            raise PdfError("cannot marginalize to an empty attribute list")
        positions = [self.attrs.index(a) for a in attrs]
        out: Dict[Tuple[float, ...], float] = {}
        for key, p in self.items():
            sub = tuple(key[i] for i in positions)
            out[sub] = out.get(sub, 0.0) + p
        if len(attrs) == 1:
            return DiscretePdf({k[0]: p for k, p in out.items()}, attr=attrs[0])
        return JointDiscretePdf(attrs, out)

    # -- support / conversion ---------------------------------------------------------

    def support(self) -> Dict[str, Tuple[float, float]]:
        out = {}
        for i, a in enumerate(self.attrs):
            col = [k[i] for k in self._table]
            out[a] = (min(col), max(col))
        return out

    def to_grid(self) -> JointGridPdf:
        axes = []
        value_lists = []
        for i, a in enumerate(self.attrs):
            vals = sorted({k[i] for k in self._table})
            axes.append(DiscreteAxis(a, vals))
            value_lists.append({v: j for j, v in enumerate(vals)})
        masses = np.zeros(tuple(a.size for a in axes))
        for key, p in self.items():
            masses[tuple(value_lists[i][v] for i, v in enumerate(key))] += p
        return JointGridPdf(tuple(axes), masses)

    # -- sampling -----------------------------------------------------------------------

    def sample(self, rng: np.random.Generator, n: int) -> Dict[str, np.ndarray]:
        m = self.mass()
        if m <= MASS_TOLERANCE:
            raise PdfError("cannot sample a zero-mass pdf")
        keys = list(self._table)
        probs = np.array([self._table[k] for k in keys]) / m
        picks = rng.choice(len(keys), size=n, p=probs)
        return {
            a: np.array([keys[j][i] for j in picks]) for i, a in enumerate(self.attrs)
        }


# ---------------------------------------------------------------------------
# JointGaussianPdf — symbolic multivariate normal
# ---------------------------------------------------------------------------


class JointGaussianPdf(Pdf):
    """A symbolic multivariate Gaussian over correlated continuous attributes.

    Models intra-tuple correlation such as the x/y location error of a
    moving object (Section II-A).  Marginalisation is exact and symbolic;
    probabilities over single-box regions use the exact multivariate normal
    cdf; anything else collapses to grid form.
    """

    symbol = "JOINT_GAUSSIAN"

    def __init__(
        self,
        attrs: Sequence[str],
        mean: Sequence[float],
        cov: Sequence[Sequence[float]],
    ):
        self.attrs = tuple(str(a) for a in attrs)
        k = len(self.attrs)
        shape_error = DimensionMismatchError(
            f"need mean of shape ({k},) and cov of shape ({k}, {k})"
        )
        try:
            self.mean_vec = np.asarray(mean, dtype=float)
            self.cov = np.asarray(cov, dtype=float)
        except ValueError:  # ragged rows cannot form an array at all
            raise shape_error from None
        if self.mean_vec.shape != (k,) or self.cov.shape != (k, k):
            raise shape_error
        if not np.allclose(self.cov, self.cov.T):
            raise InvalidDistributionError("covariance matrix must be symmetric")
        eigvals = np.linalg.eigvalsh(self.cov)
        if np.any(eigvals <= 0):
            raise InvalidDistributionError("covariance matrix must be positive definite")
        self._dist = stats.multivariate_normal(mean=self.mean_vec, cov=self.cov)

    # -- structural ----------------------------------------------------------

    @property
    def is_discrete(self) -> bool:
        return False

    def __repr__(self) -> str:
        return (
            f"JointGaussian[{','.join(self.attrs)}]"
            f"(mean={self.mean_vec.tolist()}, cov={self.cov.tolist()})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JointGaussianPdf):
            return NotImplemented
        return (
            self.attrs == other.attrs
            and np.allclose(self.mean_vec, other.mean_vec)
            and np.allclose(self.cov, other.cov)
        )

    # -- probabilistic core ------------------------------------------------------

    def mass(self) -> float:
        return 1.0

    def prob(self, region: Region) -> float:
        if isinstance(region, BoxRegion):
            self._require_attrs(region.attrs)
            sets = [region.interval_set(a) for a in self.attrs]
            if all(len(s.intervals) <= 1 for s in sets):
                lower, upper = [], []
                for s in sets:
                    if s.is_empty():
                        return 0.0
                    iv = s.intervals[0] if s.intervals else None
                    lower.append(iv.lo if iv else -np.inf)
                    upper.append(iv.hi if iv else np.inf)
                return float(
                    self._dist.cdf(np.asarray(upper), lower_limit=np.asarray(lower))
                )
        return self.to_grid().prob(region)

    def restrict(self, region: Region) -> JointGridPdf:
        return self.to_grid().restrict(region)

    def marginalize(self, attrs: Sequence[str]) -> Pdf:
        self._require_attrs(attrs)
        if not attrs:
            raise PdfError("cannot marginalize to an empty attribute list")
        idx = [self.attrs.index(a) for a in attrs]
        if len(idx) == 1:
            from .continuous import GaussianPdf

            i = idx[0]
            return GaussianPdf(
                float(self.mean_vec[i]), float(self.cov[i, i]), attr=attrs[0]
            )
        return JointGaussianPdf(
            attrs, self.mean_vec[idx], self.cov[np.ix_(idx, idx)]
        )

    # -- support / conversion ---------------------------------------------------------

    def support(self) -> Dict[str, Tuple[float, float]]:
        z = stats.norm.ppf(1.0 - TAIL_MASS)
        sd = np.sqrt(np.diag(self.cov))
        return {
            a: (float(m - z * s), float(m + z * s))
            for a, m, s in zip(self.attrs, self.mean_vec, sd)
        }

    def to_grid(self) -> JointGridPdf:
        axes = [
            ContinuousAxis(a, np.linspace(lo, hi, GRID_RESOLUTION + 1))
            for a, (lo, hi) in self.support().items()
        ]
        grids = np.meshgrid(*[ax.representatives() for ax in axes], indexing="ij")
        points = np.stack([g.reshape(-1) for g in grids], axis=-1)
        dens = np.asarray(self._dist.pdf(points)).reshape(grids[0].shape)
        volumes = np.ones(dens.shape)
        for dim, ax in enumerate(axes):
            shape = [1] * dens.ndim
            shape[dim] = ax.size
            volumes = volumes * ax.widths().reshape(shape)
        masses = dens * volumes
        # Normalize the tail clipping so grid collapse preserves total mass.
        total = masses.sum()
        if total > 0:
            masses = masses / total
        return JointGridPdf(tuple(axes), masses)

    # -- sampling ------------------------------------------------------------------------

    def sample(self, rng: np.random.Generator, n: int) -> Dict[str, np.ndarray]:
        draws = rng.multivariate_normal(self.mean_vec, self.cov, size=n)
        return {a: draws[:, i] for i, a in enumerate(self.attrs)}


# ---------------------------------------------------------------------------
# ProductPdf — lazy independent products
# ---------------------------------------------------------------------------


class ProductPdf(Pdf):
    """An independent product of factor pdfs over disjoint attribute sets.

    Keeps symbolic factors symbolic: axis-aligned floors push down into the
    factor that owns the attribute, and marginalising away an entire factor
    just folds its mass into a scalar ``weight``.  Only a genuinely joint
    operation (a predicate region across factors) collapses to grid form.
    """

    def __init__(self, factors: Sequence[Pdf], weight: float = 1.0):
        flat: List[Pdf] = []
        for f in factors:
            if isinstance(f, ProductPdf):
                weight *= f.weight
                flat.extend(f.factors)
            else:
                flat.append(f)
        if not flat:
            raise InvalidDistributionError("a product pdf needs at least one factor")
        if weight < -MASS_TOLERANCE or weight > 1.0 + 1e-6:
            raise InvalidDistributionError(f"product weight must be in [0, 1], got {weight}")
        names = [a for f in flat for a in f.attrs]
        if len(set(names)) != len(names):
            raise DimensionMismatchError(
                f"product factors must have disjoint attributes, got {names}"
            )
        self.factors: Tuple[Pdf, ...] = tuple(flat)
        self.weight = float(max(weight, 0.0))
        self.attrs = tuple(names)

    # -- structural -----------------------------------------------------------

    @property
    def is_discrete(self) -> bool:
        return all(f.is_discrete for f in self.factors)

    def _relabelled(self, names: Tuple[str, ...]) -> "ProductPdf":
        clone = super()._relabelled(names)
        mapping = dict(zip(self.attrs, names))
        clone.factors = tuple(
            f.with_attrs([mapping[a] for a in f.attrs]) for f in self.factors
        )
        return clone

    def __repr__(self) -> str:
        inner = " ⊗ ".join(repr(f) for f in self.factors)
        prefix = f"{self.weight:g}·" if self.weight != 1.0 else ""
        return f"{prefix}({inner})"

    def __eq__(self, other: object) -> bool:
        if type(other) is not ProductPdf:
            return NotImplemented
        return self.weight == other.weight and self.factors == other.factors

    def _fingerprint(self):
        parts = []
        for f in self.factors:
            fp = f.fingerprint()
            if fp is None:
                return None
            parts.append(fp)
        return ("prod", self.weight, tuple(parts))

    # -- probabilistic core --------------------------------------------------------

    def mass(self) -> float:
        out = self.weight
        for f in self.factors:
            out *= f.mass()
        return out

    def restrict(self, region: Region) -> Pdf:
        if isinstance(region, BoxRegion):
            unknown = [a for a in region.attrs if a not in self.attrs]
            if unknown:
                raise DimensionMismatchError(f"region mentions unknown attributes {unknown}")
            return ProductPdf(
                [f.restrict(region.project(f.attrs)) for f in self.factors],
                weight=self.weight,
            )
        return self.to_grid().restrict(region)

    def marginalize(self, attrs: Sequence[str]) -> Pdf:
        self._require_attrs(attrs)
        if not attrs:
            raise PdfError("cannot marginalize to an empty attribute list")
        keep = set(attrs)
        weight = self.weight
        kept: List[Pdf] = []
        for f in self.factors:
            shared = [a for a in f.attrs if a in keep]
            if not shared:
                weight *= f.mass()
            elif len(shared) == len(f.attrs):
                kept.append(f)
            else:
                kept.append(f.marginalize(shared))
        if len(kept) == 1 and weight == 1.0 and tuple(kept[0].attrs) == tuple(attrs):
            return kept[0]
        if not kept:
            raise PdfError("marginalisation dropped every factor")
        product = ProductPdf(kept, weight=weight)
        if tuple(product.attrs) == tuple(attrs):
            return product
        # Reorder attributes to the requested order via the grid path only
        # when necessary; attribute order differs but content is identical.
        return product  # attribute order is factor order; callers use names

    # -- support / conversion -----------------------------------------------------------

    def support(self) -> Dict[str, Tuple[float, float]]:
        out: Dict[str, Tuple[float, float]] = {}
        for f in self.factors:
            out.update(f.support())
        return out

    def to_grid(self) -> JointGridPdf:
        grid: Optional[JointGridPdf] = None
        for f in self.factors:
            fg = f.to_grid()
            grid = fg if grid is None else _grid_outer(grid, fg)
        assert grid is not None
        if self.weight != 1.0:
            grid = JointGridPdf(grid.axes, grid.masses * self.weight)
        return grid

    # -- sampling --------------------------------------------------------------------------

    def sample(self, rng: np.random.Generator, n: int) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {}
        for f in self.factors:
            out.update(f.sample(rng, n))
        return out


def _grid_outer(a: JointGridPdf, b: JointGridPdf) -> JointGridPdf:
    """Outer (independent) product of two grids over disjoint attributes."""
    masses = np.multiply.outer(a.masses, b.masses)
    return JointGridPdf(a.axes + b.axes, masses)


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def as_joint_discrete(pdf: Pdf) -> Optional[JointDiscretePdf]:
    """View ``pdf`` as an exact joint discrete pdf, or None if not possible."""
    if isinstance(pdf, JointDiscretePdf):
        return pdf
    if isinstance(pdf, SymbolicDiscretePdf):
        pdf = pdf.materialize()
    if isinstance(pdf, FlooredPdf) and pdf.is_discrete:
        restricted = pdf.base.restrict(BoxRegion({pdf.attr: pdf.allowed}))
        return as_joint_discrete(restricted)
    if isinstance(pdf, DiscretePdf):
        return JointDiscretePdf(pdf.attrs, {(v,): p for v, p in pdf.items()})
    if isinstance(pdf, JointGridPdf) and pdf.is_discrete:
        table: Dict[Tuple[float, ...], float] = {}
        reps = [axis.representatives() for axis in pdf.axes]
        for idx in itertools.product(*[range(axis.size) for axis in pdf.axes]):
            p = float(pdf.masses[idx])
            if p > 0.0:
                table[tuple(float(reps[d][i]) for d, i in enumerate(idx))] = p
        if not table:
            first = tuple(float(r[0]) for r in reps)
            table = {first: 0.0}
        return JointDiscretePdf(pdf.attrs, table)
    if isinstance(pdf, ProductPdf) and pdf.is_discrete:
        result: Optional[JointDiscretePdf] = None
        for f in pdf.factors:
            fd = as_joint_discrete(f)
            if fd is None:
                return None
            result = fd if result is None else _discrete_outer(result, fd)
        assert result is not None
        if pdf.weight != 1.0:
            scaled = {k: p * pdf.weight for k, p in result.items()}
            result = JointDiscretePdf(result.attrs, scaled)
        return result
    return None


def _discrete_outer(a: JointDiscretePdf, b: JointDiscretePdf) -> JointDiscretePdf:
    table: Dict[Tuple[float, ...], float] = {}
    for ka, pa in a.items():
        for kb, pb in b.items():
            table[ka + kb] = pa * pb
    return JointDiscretePdf(a.attrs + b.attrs, table)


def independent_product(*pdfs: Pdf) -> Pdf:
    """The ``product`` primitive for historically *independent* pdfs.

    Exact joint discrete inputs produce an exact joint discrete output (so
    possible-worlds arithmetic stays exact); anything else stays a lazy
    :class:`ProductPdf`.  A symbolic discrete factor stays symbolic too: its
    explicit form drops up to 2e-12 of tail mass and rounds the rest, so the
    product would no longer have mass exactly 1.
    """
    if not pdfs:
        raise PdfError("product of zero pdfs is undefined")
    if len(pdfs) == 1:
        return pdfs[0]
    if all(p.is_discrete and not isinstance(p, SymbolicDiscretePdf) for p in pdfs):
        parts = [as_joint_discrete(p) for p in pdfs]
        if all(p is not None for p in parts):
            result = parts[0]
            for part in parts[1:]:
                result = _discrete_outer(result, part)  # type: ignore[arg-type]
            return result  # type: ignore[return-value]
    return ProductPdf(list(pdfs))
