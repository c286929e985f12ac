"""Abstract interfaces for probability distributions (pdfs).

The paper's model stores *uncertain attributes* as probability density /
mass functions.  A pdf in this library is always a distribution over a
named, ordered tuple of attributes (:attr:`Pdf.attrs`), which is what lets
the relational operators marginalise, join, and floor distributions by
attribute name.

Two properties distinguish these pdfs from textbook ones:

* **Partial pdfs** (Section II-B): the total mass may be less than 1.  Under
  the closed-world reading, ``1 - mass`` is the probability that the owning
  tuple does not exist.  All operations preserve partial mass.
* **Floors** (Section III-A): selection zeroes a pdf over the region that
  fails the predicate.  :meth:`Pdf.restrict` keeps a region (the paper's
  ``floor`` removes one — :meth:`Pdf.floor_out` matches the paper's
  signature).

Concrete families:

===============================  ==============================================
:mod:`repro.pdf.continuous`      symbolic continuous (Gaussian, Uniform, ...)
:mod:`repro.pdf.discrete`        explicit and symbolic discrete distributions
:mod:`repro.pdf.histogram`       1-D bucket histograms (the paper's ``Hist``)
:mod:`repro.pdf.floors`          symbolic floors over symbolic pdfs
:mod:`repro.pdf.joint`           joint distributions and independent products
===============================  ==============================================
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Dict, Mapping, Sequence, Tuple, Union

import numpy as np

from ..errors import DimensionMismatchError, PdfError
from .regions import Region

if TYPE_CHECKING:  # pragma: no cover
    from .joint import JointGridPdf

__all__ = [
    "Pdf", "UnivariatePdf", "SymbolicPdf", "MASS_TOLERANCE", "TAIL_MASS", "GRID_RESOLUTION",
]

#: Probability-mass slack tolerated before declaring a pdf invalid or a
#: tuple nonexistent.  Grid collapses introduce error of this order.
MASS_TOLERANCE = 1e-9

#: The mass an answer may lose to a pdf's unbounded tails.  A continuous
#: pdf's :meth:`Pdf.support` hull and grid bounds sit at its ``TAIL_MASS``
#: and ``1 - TAIL_MASS`` quantiles, and a selection drops a tuple whose
#: floored mass is at most ``TAIL_MASS``.  So a hull test (page synopses,
#: the threshold index) and a full evaluation agree: a pdf whose hull misses
#: a range keeps at most the clipped tail there, and is dropped either way.
TAIL_MASS = 1e-6

#: Cells per continuous dimension when a symbolic pdf collapses to a grid.
GRID_RESOLUTION = 64

ArrayLike = Union[float, np.ndarray]


class Pdf(abc.ABC):
    """A (possibly partial) probability distribution over named attributes.

    Subclasses must populate :attr:`attrs` — the ordered attribute names —
    and implement the abstract operations below.  All probabilistic
    quantities are *unconditional*: they already include the partial-mass
    existence factor.
    """

    attrs: Tuple[str, ...]

    # -- structural --------------------------------------------------------

    @property
    def arity(self) -> int:
        """Number of attributes the pdf is defined over."""
        return len(self.attrs)

    @property
    @abc.abstractmethod
    def is_discrete(self) -> bool:
        """True when every dimension is discrete (a probability *mass* fn)."""

    def with_attrs(self, attrs: Sequence[str]) -> "Pdf":
        """This pdf over positionally renamed attributes.

        A relabel, not a rebuild: ``self`` when the names are unchanged,
        otherwise a clone sharing every parameter array and parameter dict
        (pdfs are immutable by convention, and the parameters were
        validated when ``self`` was built).
        """
        names = tuple(str(a) for a in attrs)
        if names == self.attrs:
            return self
        if len(names) != len(self.attrs):
            raise DimensionMismatchError(
                f"pdf over {self.attrs} cannot take {len(names)} names {names}"
            )
        if len(set(names)) != len(names):
            raise DimensionMismatchError(f"duplicate attributes: {names}")
        return self._relabelled(names)

    def rename(self, mapping: Mapping[str, str]) -> "Pdf":
        """:meth:`with_attrs` with the new names looked up in ``mapping``."""
        return self.with_attrs([mapping.get(a, a) for a in self.attrs])

    def _relabelled(self, names: Tuple[str, ...]) -> "Pdf":
        """A clone over ``names`` (already checked) sharing all parameters.

        Families that keep names below the top level (floor bases, grid
        axes, product factors) extend this.  The fingerprint memo is
        dropped because fingerprints include the names.
        """
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.__dict__.pop("_fp_memo", None)
        clone.attrs = names
        return clone

    def _require_attrs(self, attrs: Sequence[str]) -> None:
        unknown = [a for a in attrs if a not in self.attrs]
        if unknown:
            raise DimensionMismatchError(
                f"pdf over {self.attrs} has no attributes {unknown}"
            )

    def fingerprint(self):
        """A stable, hashable identity for memoising pdf-op results.

        Two pdfs with equal fingerprints must behave identically under
        ``mass`` / ``restrict`` / ``marginalize``.  ``None`` means the pdf
        cannot be fingerprinted cheaply and its operations are uncacheable.
        The value is computed once and memoised on the instance (pdfs are
        immutable by convention).
        """
        fp = getattr(self, "_fp_memo", False)
        if fp is False:
            fp = self._fingerprint()
            self._fp_memo = fp
        return fp

    def _fingerprint(self):
        """Subclass hook for :meth:`fingerprint`; default is uncacheable."""
        return None

    # -- probabilistic core --------------------------------------------------

    @abc.abstractmethod
    def mass(self) -> float:
        """Total probability mass; < 1 for partial pdfs (missing tuples)."""

    def prob(self, region: Region) -> float:
        """P(X in region), including the existence factor: the mass of the floor."""
        return self.restrict(region).mass()

    @abc.abstractmethod
    def restrict(self, region: Region) -> "Pdf":
        """Zero the pdf outside ``region`` (keep mass inside).

        This is the complement view of the paper's ``floor`` primitive and
        generally yields a partial pdf.
        """

    def floor_out(self, region: Region) -> "Pdf":
        """The paper's ``floor(f, F)``: zero the pdf *inside* ``region``."""
        return self.restrict(region.complement())

    @abc.abstractmethod
    def marginalize(self, attrs: Sequence[str]) -> "Pdf":
        """The paper's ``marginalize``: integrate out all but ``attrs``.

        The result preserves total mass and orders attributes as given.
        """

    # -- support / conversion -------------------------------------------------

    @abc.abstractmethod
    def support(self) -> Dict[str, Tuple[float, float]]:
        """A per-attribute bounding interval containing (almost) all mass."""

    @abc.abstractmethod
    def to_grid(self) -> "JointGridPdf":
        """Collapse to the universal dense grid representation."""

    # -- sampling -----------------------------------------------------------

    @abc.abstractmethod
    def sample(self, rng: np.random.Generator, n: int) -> Dict[str, np.ndarray]:
        """Draw ``n`` samples *conditional on existence*.

        Returns one array per attribute.  Use :meth:`mass` separately to
        sample the existence event of a partial pdf.
        """


class UnivariatePdf(Pdf):
    """Convenience base class for one-dimensional pdfs.

    Adds the scalar helpers (:meth:`cdf`, :meth:`mean`, :meth:`variance`)
    used throughout the range-query machinery.
    """

    def __init__(self, attr: str = "x"):
        self.attrs = (str(attr),)

    @property
    def attr(self) -> str:
        """The single attribute name."""
        return self.attrs[0]

    @abc.abstractmethod
    def cdf(self, x: ArrayLike) -> np.ndarray:
        """Unconditional cumulative mass P(X <= x and exists)."""

    @abc.abstractmethod
    def mean(self) -> float:
        """Mean of the distribution conditional on existence."""

    @abc.abstractmethod
    def variance(self) -> float:
        """Variance of the distribution conditional on existence."""


class SymbolicPdf(UnivariatePdf):
    """A standard family stored symbolically: its ``symbol`` and parameters.

    Display, equality and the pdf-op cache fingerprint all follow
    from those two, for the continuous and the discrete families alike.
    """

    symbol: str = "SYMBOLIC"

    def __init__(self, params: Mapping[str, float], attr: str = "x"):
        super().__init__(attr)
        self._params: Dict[str, float] = {k: float(v) for k, v in params.items()}

    @property
    def params(self) -> Dict[str, float]:
        """Distribution parameters, for display and serialization."""
        return dict(self._params)

    def __repr__(self) -> str:
        inner = ", ".join(f"{v:g}" for v in self._params.values())
        return f"{self.symbol}({inner})@{self.attr}"

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.attrs == other.attrs and self._params == other._params

    def _fingerprint(self):
        return ("sym", type(self).__name__, self.attrs, tuple(sorted(self._params.items())))

    def mass(self) -> float:
        return 1.0

    def marginalize(self, attrs: Sequence[str]) -> "SymbolicPdf":
        self._require_attrs(attrs)
        if tuple(attrs) != self.attrs:
            raise PdfError("cannot marginalize a 1-D pdf to an empty attribute list")
        return self
