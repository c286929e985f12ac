"""Volcano-style executor operators over probabilistic tuples."""

from .aggregate import AggSpec, Aggregate, Distinct
from .base import Operator
from .batch import DEFAULT_BATCH_SIZE, TupleBatch, batched, flatten
from .relational import Filter, HashJoin, Limit, Project, Sort
from .scan import RelationScan, SeqScan

__all__ = [
    "Operator",
    "TupleBatch",
    "DEFAULT_BATCH_SIZE",
    "batched",
    "flatten",
    "SeqScan",
    "RelationScan",
    "Filter",
    "Project",
    "HashJoin",
    "Sort",
    "Limit",
    "Aggregate",
    "AggSpec",
    "Distinct",
]
