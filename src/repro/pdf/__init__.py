"""Probability distributions for uncertain attributes.

This package is the substrate beneath the probabilistic relational model:
symbolic continuous and discrete distributions, generic histogram and
discrete-sampling representations, symbolic floors, joint distributions, and
the conversions between them.  See :mod:`repro.pdf.base` for the common
interface.
"""

from .arithmetic import convolve_discrete, convolve_histograms, sum_independent
from .base import TAIL_MASS, Pdf, UnivariatePdf
from .continuous import ContinuousPdf, GaussianPdf, TriangularPdf, UniformPdf
from .convert import discretize, to_histogram
from .discrete import (
    BernoulliPdf,
    BinomialPdf,
    CategoricalPdf,
    DiscretePdf,
    GeometricPdf,
    PoissonPdf,
    SymbolicDiscretePdf,
    code_label,
    label_code,
)
from .floors import FlooredPdf
from .metrics import mixture
from .histogram import HistogramPdf
from .joint import (
    Axis,
    ContinuousAxis,
    DiscreteAxis,
    JointDiscretePdf,
    JointGaussianPdf,
    JointGridPdf,
    ProductPdf,
    as_joint_discrete,
    independent_product,
)
from .regions import (
    BoxRegion,
    ComplementRegion,
    Interval,
    IntervalSet,
    IntersectionRegion,
    PredicateRegion,
    Region,
    UnionRegion,
)

__all__ = [
    # base
    "Pdf",
    "UnivariatePdf",
    "TAIL_MASS",
    # regions
    "Interval",
    "IntervalSet",
    "Region",
    "BoxRegion",
    "PredicateRegion",
    "UnionRegion",
    "IntersectionRegion",
    "ComplementRegion",
    # continuous
    "ContinuousPdf",
    "GaussianPdf",
    "UniformPdf",
    "TriangularPdf",
    # discrete
    "DiscretePdf",
    "CategoricalPdf",
    "SymbolicDiscretePdf",
    "BernoulliPdf",
    "BinomialPdf",
    "PoissonPdf",
    "GeometricPdf",
    "label_code",
    "code_label",
    # histogram / floors
    "HistogramPdf",
    "FlooredPdf",
    # joint
    "Axis",
    "ContinuousAxis",
    "DiscreteAxis",
    "JointGridPdf",
    "JointDiscretePdf",
    "JointGaussianPdf",
    "ProductPdf",
    "independent_product",
    "as_joint_discrete",
    # conversion / arithmetic
    "discretize",
    "to_histogram",
    "convolve_discrete",
    "convolve_histograms",
    "sum_independent",
    # mixtures
    "mixture",
]
