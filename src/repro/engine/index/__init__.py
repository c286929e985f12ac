"""Index structures: B+tree for certain attributes, the PROB index's ladder for uncertain ones."""

from .btree import BPlusTree
from .pti import LADDER, ladder, quantile_of

__all__ = ["BPlusTree", "LADDER", "ladder", "quantile_of"]
