"""Discrete distributions: explicit value-probability pairs and symbolic families.

The paper supports discrete uncertainty both as *discrete sampling* (an
enumerated list of value:probability pairs, the representation used by the
tuple-uncertainty literature) and as *symbolic* standard distributions such
as Binomial and Bernoulli (Section II-A).  Explicit discrete pdfs are also
the universal target when a symbolic continuous pdf is "discretized" for the
accuracy experiments (Figure 4).

``DiscretePdf`` may be *partial* (probabilities summing to less than 1),
which is how missing tuples are encoded (Table IV, second block).
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple, Union

import numpy as np
from scipy import stats

from ..errors import InvalidDistributionError, PdfError
from .base import MASS_TOLERANCE, ArrayLike, SymbolicPdf, UnivariatePdf
from .regions import BoxRegion, IntervalSet, Region

__all__ = [
    "DiscretePdf",
    "CategoricalPdf",
    "SymbolicDiscretePdf",
    "BernoulliPdf",
    "BinomialPdf",
    "PoissonPdf",
    "GeometricPdf",
]

PairsLike = Union[Mapping[float, float], Iterable[Tuple[float, float]]]


class DiscretePdf(UnivariatePdf):
    """An explicit (possibly partial) discrete pdf: value -> probability.

    This is the paper's *discrete sampling* representation, e.g.
    ``Discrete(0: 0.1, 1: 0.9)`` from the Section III-C example.  Values are
    kept sorted and unique; probabilities must be non-negative and sum to at
    most 1 (within tolerance).
    """

    symbol = "DISCRETE"

    def __init__(self, pairs: PairsLike, attr: str = "x"):
        super().__init__(attr)
        items = dict(pairs) if isinstance(pairs, Mapping) else dict(pairs)
        if not items:
            raise InvalidDistributionError("a discrete pdf needs at least one value")
        values = np.array(sorted(items), dtype=float)
        probs = np.array([items[v] for v in sorted(items)], dtype=float)
        if np.any(probs < -MASS_TOLERANCE):
            raise InvalidDistributionError("discrete probabilities must be non-negative")
        probs = np.clip(probs, 0.0, None)
        total = float(probs.sum())
        if total > 1.0 + 1e-6:
            raise InvalidDistributionError(
                f"discrete probabilities sum to {total} > 1"
            )
        self._values = values
        self._probs = probs

    @classmethod
    def _from_arrays(cls, values: np.ndarray, probs: np.ndarray, attr: str) -> "DiscretePdf":
        """Trusted fast constructor (no validation) for internal hot paths."""
        pdf = cls.__new__(cls)
        UnivariatePdf.__init__(pdf, attr)
        pdf._values = values
        pdf._probs = probs
        return pdf

    # -- structural ----------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        return self._values.copy()

    @property
    def probs(self) -> np.ndarray:
        return self._probs.copy()

    @property
    def is_discrete(self) -> bool:
        return True

    def items(self) -> Iterable[Tuple[float, float]]:
        """(value, probability) pairs in value order."""
        return zip(self._values.tolist(), self._probs.tolist())

    def __repr__(self) -> str:
        inner = ", ".join(f"{v:g}:{p:.4g}" for v, p in self.items())
        return f"Discrete({inner})@{self.attr}"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiscretePdf):
            return NotImplemented
        return (
            self.attrs == other.attrs
            and np.array_equal(self._values, other._values)
            and np.allclose(self._probs, other._probs, atol=1e-12)
        )

    def __hash__(self) -> int:
        return hash((self.attrs, self._values.tobytes()))

    def _fingerprint(self):
        return (
            "disc",
            type(self).__name__,
            self.attrs,
            self._values.tobytes(),
            self._probs.tobytes(),
        )

    # -- probabilistic core -----------------------------------------------------

    def mass(self) -> float:
        return float(self._probs.sum())

    def density(self, assignment: Mapping[str, ArrayLike]) -> np.ndarray:
        self._require_attrs(list(assignment))
        xs = np.asarray(assignment[self.attr], dtype=float)
        scalar = xs.ndim == 0
        flat = np.atleast_1d(xs)
        idx = np.searchsorted(self._values, flat)
        idx = np.clip(idx, 0, len(self._values) - 1)
        hit = self._values[idx] == flat
        out = np.where(hit, self._probs[idx], 0.0)
        return out[0] if scalar else out.reshape(xs.shape)

    def cdf(self, x: ArrayLike) -> np.ndarray:
        xs = np.asarray(x, dtype=float)
        cum = np.concatenate([[0.0], np.cumsum(self._probs)])
        return cum[np.searchsorted(self._values, xs, side="right")]

    def prob_interval(self, allowed: IntervalSet) -> float:
        inside = allowed.contains_array(self._values)
        return float(self._probs[inside].sum())

    def prob(self, region: Region) -> float:
        if isinstance(region, BoxRegion):
            self._require_attrs(region.attrs)
            return self.prob_interval(region.interval_set(self.attr))
        inside = np.asarray(region.contains({self.attr: self._values}), dtype=bool)
        return float(self._probs[inside].sum())

    def restrict(self, region: Region) -> "DiscretePdf":
        if isinstance(region, BoxRegion):
            self._require_attrs(region.attrs)
            inside = region.interval_set(self.attr).contains_array(self._values)
        else:
            inside = np.asarray(region.contains({self.attr: self._values}), dtype=bool)
        if not inside.any():
            # Fully floored: represent as a zero-mass point pdf so that the
            # caller can detect emptiness via mass() and drop the tuple.
            return DiscretePdf._from_arrays(
                self._values[:1].copy(), np.zeros(1), self.attr
            )
        return DiscretePdf._from_arrays(
            self._values[inside], self._probs[inside], self.attr
        )

    def marginalize(self, attrs: Sequence[str]) -> "DiscretePdf":
        self._require_attrs(attrs)
        if tuple(attrs) != self.attrs:
            raise PdfError("cannot marginalize a 1-D pdf to an empty attribute list")
        return self

    def _scaled(self, factor: float) -> "DiscretePdf":
        return DiscretePdf(
            {float(v): float(p) * factor for v, p in self.items()}, attr=self.attr
        )

    # -- support / conversion -------------------------------------------------------

    def support(self) -> Dict[str, Tuple[float, float]]:
        return {self.attr: (float(self._values[0]), float(self._values[-1]))}

    def to_grid(self):
        from .joint import DiscreteAxis, JointGridPdf

        return JointGridPdf(
            (DiscreteAxis(self.attr, self._values),), self._probs.copy()
        )

    # -- moments / sampling -------------------------------------------------------------

    def mean(self) -> float:
        m = self.mass()
        if m <= MASS_TOLERANCE:
            raise PdfError("mean of a zero-mass pdf is undefined")
        return float((self._values * self._probs).sum() / m)

    def variance(self) -> float:
        mu = self.mean()
        m = self.mass()
        return float(((self._values - mu) ** 2 * self._probs).sum() / m)

    def sample(self, rng: np.random.Generator, n: int) -> Dict[str, np.ndarray]:
        m = self.mass()
        if m <= MASS_TOLERANCE:
            raise PdfError("cannot sample a zero-mass pdf")
        picks = rng.choice(self._values, size=n, p=self._probs / m)
        return {self.attr: picks}


#: Process-wide label interning for categorical pdfs.  Using one shared
#: code space makes codes comparable across columns, tuples and relations,
#: which is what lets `annotation = 'person'` and `a.label = b.label`
#: predicates work uniformly through the numeric region machinery.
#: Interning is locked: threads may intern new labels concurrently, and
#: check-then-append would hand out duplicate codes.
_LABEL_CODES: Dict[str, int] = {}
_LABELS: List[str] = []
_LABEL_LOCK = threading.Lock()


def label_code(label: str) -> float:
    """Intern a label and return its stable numeric code."""
    code = _LABEL_CODES.get(label)
    if code is None:
        with _LABEL_LOCK:
            code = _LABEL_CODES.get(label)
            if code is None:
                code = len(_LABELS)
                _LABEL_CODES[label] = code
                _LABELS.append(label)
    return float(code)


def code_label(code: float) -> str:
    """The label for an interned code."""
    idx = int(code)
    if idx < 0 or idx >= len(_LABELS) or idx != code:
        raise KeyError(f"unknown label code {code}")
    return _LABELS[idx]


class CategoricalPdf(DiscretePdf):
    """A discrete pdf over string labels, stored as interned integer codes.

    Used for categorical uncertainty (text annotations, data cleansing
    alternatives).  The numeric machinery operates on the codes; the global
    interning table maps codes back for display and for translating label
    predicates.
    """

    symbol = "CATEGORICAL"

    def __init__(self, pairs: Mapping[str, float], attr: str = "x"):
        if not pairs:
            raise InvalidDistributionError("a categorical pdf needs at least one label")
        code_pairs = {label_code(label): float(p) for label, p in pairs.items()}
        super().__init__(code_pairs, attr=attr)

    def label_items(self) -> Iterable[Tuple[str, float]]:
        """(label, probability) pairs."""
        for value, prob in self.items():
            yield code_label(value), prob

    def __repr__(self) -> str:
        inner = ", ".join(f"{label}:{p:.4g}" for label, p in self.label_items())
        return f"Categorical({inner})@{self.attr}"


#: Mass :meth:`SymbolicDiscretePdf.materialize` may leave out of each tail.
#: Far below :data:`~repro.pdf.base.TAIL_MASS`: an explicit form *replaces*
#: the symbolic pdf (a stored partial floor, the possible worlds), and at
#: ``TAIL_MASS`` a Poisson's worlds would miss up to 1e-6 per tail and
#: disagree with its exact ``PROB(*) >= 1``.
_WINDOW_TAIL = 1e-12

#: Largest Binomial ``n`` / Poisson ``rate`` accepted.  An explicit form
#: enumerates the integers between the two tail quantiles — about 14
#: standard deviations, some 650,000 values at this bound — and scipy's
#: quantiles stop being finite not far above it (``POISSON(1e15)`` has none).
MAX_COUNT = 2**31 - 1


class SymbolicDiscretePdf(SymbolicPdf):
    """Base class for the symbolic discrete families.

    Bernoulli, Binomial and Poisson (the paper's three) live on the integers
    ``0 .. hi`` (``hi`` infinite for Poisson), Geometric on ``1, 2, ...``.
    Values come from scipy's class-level functions
    (``stats.binom.cdf(k, n, p)``, ...), so no pdf holds a frozen
    distribution.  Interval probabilities are exact: the family cdf over the
    integers each interval holds, with open and closed endpoints honoured,
    and a region that covers the whole support leaves the pdf unchanged.
    Only operations that change the shape of the distribution (partial
    floors, grids) first :meth:`materialize` an explicit :class:`DiscretePdf`.
    """

    symbol = "SYMBOLIC_DISCRETE"
    #: the scipy distribution whose class-level functions give the values
    _family = None
    #: the least integer of the support
    _lo = 0.0

    def __init__(self, params: Mapping[str, float], hi: float, attr: str = "x"):
        super().__init__(params, attr)
        self._args = tuple(self._params.values())
        self._hi = float(hi)

    @property
    def is_discrete(self) -> bool:
        return True

    def _window(self) -> Tuple[float, float]:
        """The integers between the ``_WINDOW_TAIL`` and ``1 - _WINDOW_TAIL`` quantiles."""
        lo, hi = self._family.ppf([_WINDOW_TAIL, 1.0 - _WINDOW_TAIL], *self._args)
        return float(lo), float(hi)

    def materialize(self) -> DiscretePdf:
        """Explicit value:probability pairs covering mass >= 1 - 2e-12."""
        lo, hi = self._window()
        values = np.arange(lo, hi + 1.0)
        probs = self._family.pmf(values, *self._args)
        keep = probs > 0
        return DiscretePdf._from_arrays(values[keep], probs[keep], self.attr)

    def _runs(self, allowed: IntervalSet) -> List[Tuple[float, float]]:
        """The support integers in ``allowed``, as sorted, merged runs ``(k, m)``."""
        runs: List[Tuple[float, float]] = []
        for iv in allowed.intervals:
            k = math.ceil(iv.lo) if math.isfinite(iv.lo) else self._lo
            if k == iv.lo and not iv.closed_lo:
                k += 1
            m = math.floor(iv.hi) if math.isfinite(iv.hi) else math.inf
            if m == iv.hi and not iv.closed_hi:
                m -= 1
            k, m = max(float(k), self._lo), min(float(m), self._hi)
            if k > m:
                continue
            if runs and k <= runs[-1][1] + 1:
                runs[-1] = (runs[-1][0], max(runs[-1][1], m))
            else:
                runs.append((k, m))
        return runs

    # -- probabilistic core -----------------------------------------------------

    def density(self, assignment: Mapping[str, ArrayLike]) -> np.ndarray:
        self._require_attrs(list(assignment))
        xs = np.asarray(assignment[self.attr], dtype=float)
        return np.asarray(self._family.pmf(xs, *self._args))

    def cdf(self, x: ArrayLike) -> np.ndarray:
        return np.asarray(self._family.cdf(np.asarray(x, dtype=float), *self._args))

    def prob_interval(self, allowed: IntervalSet) -> float:
        """Exact P(X in allowed): the cdf over each run of covered integers."""
        total = 0.0
        for k, m in self._runs(allowed):
            below = 0.0 if k <= self._lo else float(self._family.cdf(k - 1.0, *self._args))
            upto = 1.0 if m >= self._hi else float(self._family.cdf(m, *self._args))
            total += upto - below
        return min(max(total, 0.0), 1.0)

    def prob(self, region: Region) -> float:
        if isinstance(region, BoxRegion):
            self._require_attrs(region.attrs)
            return self.prob_interval(region.interval_set(self.attr))
        return self.materialize().prob(region)

    def restrict(self, region: Region) -> UnivariatePdf:
        if isinstance(region, BoxRegion):
            self._require_attrs(region.attrs)
            if self._runs(region.interval_set(self.attr)) == [(self._lo, self._hi)]:
                return self  # the region covers the support
        return self.materialize().restrict(region)

    # -- support / conversion -------------------------------------------------------

    def support(self) -> Dict[str, Tuple[float, float]]:
        return {self.attr: self._window()}

    def to_grid(self):
        return self.materialize().to_grid()

    # -- moments / sampling ------------------------------------------------------------

    def mean(self) -> float:
        return float(self._family.mean(*self._args))

    def variance(self) -> float:
        return float(self._family.var(*self._args))

    def sample(self, rng: np.random.Generator, n: int) -> Dict[str, np.ndarray]:
        draws = self._family.rvs(*self._args, size=n, random_state=rng)
        return {self.attr: np.asarray(draws, dtype=float)}


class BernoulliPdf(SymbolicDiscretePdf):
    """Bernoulli distribution: 1 with probability ``p``, else 0."""

    symbol = "BERNOULLI"
    _family = stats.bernoulli

    def __init__(self, p: float, attr: str = "x"):
        if not 0.0 <= p <= 1.0:
            raise InvalidDistributionError(f"Bernoulli p must be in [0, 1], got {p}")
        super().__init__({"p": p}, 1.0, attr)


class BinomialPdf(SymbolicDiscretePdf):
    """Binomial distribution with ``n`` trials of success probability ``p``."""

    symbol = "BINOMIAL"
    _family = stats.binom

    def __init__(self, n: float, p: float, attr: str = "x"):
        if not 0 <= n <= MAX_COUNT or n != math.floor(n):
            raise InvalidDistributionError(
                f"Binomial n must be an integer in [0, {MAX_COUNT}], got {n}"
            )
        if not 0.0 <= p <= 1.0:
            raise InvalidDistributionError(f"Binomial p must be in [0, 1], got {p}")
        super().__init__({"n": n, "p": p}, n, attr)
        self._args = (int(n), float(p))  # numpy's binomial sampler takes an integer n


class PoissonPdf(SymbolicDiscretePdf):
    """Poisson distribution with mean ``rate``: the one infinite support."""

    symbol = "POISSON"
    _family = stats.poisson

    def __init__(self, rate: float, attr: str = "x"):
        if not 0 < rate <= MAX_COUNT:
            raise InvalidDistributionError(
                f"Poisson rate must be in (0, {MAX_COUNT}], got {rate}"
            )
        super().__init__({"rate": rate}, math.inf, attr)


class GeometricPdf(SymbolicDiscretePdf):
    """Geometric distribution: the number of trials up to the first success."""

    symbol = "GEOMETRIC"
    _family = stats.geom
    _lo = 1.0

    def __init__(self, p: float, attr: str = "x"):
        # p = 1 is the certain value 1, where scipy's quantiles degenerate
        if not 0.0 < p < 1.0:
            raise InvalidDistributionError(f"Geometric p must be in (0, 1), got {p}")
        super().__init__({"p": p}, math.inf, attr)
