"""Index structures: B+tree for certain attributes, PTI for uncertain ones."""

from .btree import BPlusTree
from .pti import LADDER, ProbabilityThresholdIndex, quantile_of

__all__ = ["BPlusTree", "ProbabilityThresholdIndex", "LADDER", "quantile_of"]
