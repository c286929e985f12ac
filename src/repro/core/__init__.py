"""The paper's probabilistic relational model.

Schemas with dependency information, tuples with (partial) pdfs, histories,
and the relational operators — selection, projection, join, threshold
selection, aggregates — all closed under possible worlds semantics.
"""

from .aggregates import (
    assert_tuples_independent,
    count_distribution,
    expected_value,
    max_distribution,
    min_distribution,
    sum_distribution,
)
from .history import (
    AncestorLink,
    AncestorRef,
    HistoryStore,
    Lineage,
    fresh_lineage,
    historically_dependent,
    rename_lineage,
)
from .distinct import EXISTS_ATTR, distinct
from .join import collapse_history, cross_product, join, prefix_attrs, rename
from .nearest import distance_distribution, nearest_neighbor_probabilities
from .model import (
    Column,
    build_base_tuple,
    DataType,
    DEFAULT_CONFIG,
    ModelConfig,
    ProbabilisticRelation,
    ProbabilisticSchema,
    ProbabilisticTuple,
)
from .operations import product, support_region
from .possible_worlds import (
    PossibleWorld,
    enumerate_worlds,
    expected_multiplicities,
    model_multiplicities,
    multiplicities_match,
    world_join,
    world_project,
    world_select,
)
from .predicates import And, Comparison, IsNull, Not, Or, Predicate, TruePredicate, col
from .project import ProjectionPlan, project
from .simulate import estimate_expected_rows, sample_worlds
from .select import SelectionPlan, closure, select
from .threshold import existence_probability, threshold_select, tuple_probability

__all__ = [
    # model
    "DataType",
    "Column",
    "ProbabilisticSchema",
    "ProbabilisticTuple",
    "ProbabilisticRelation",
    "ModelConfig",
    "DEFAULT_CONFIG",
    # history
    "AncestorRef",
    "AncestorLink",
    "Lineage",
    "HistoryStore",
    "fresh_lineage",
    "historically_dependent",
    "rename_lineage",
    # primitives
    "product",
    "support_region",
    # predicates
    "Predicate",
    "Comparison",
    "IsNull",
    "And",
    "Or",
    "Not",
    "TruePredicate",
    "col",
    # operators
    "select",
    "closure",
    "SelectionPlan",
    "project",
    "ProjectionPlan",
    "join",
    "cross_product",
    "rename",
    "prefix_attrs",
    "collapse_history",
    "threshold_select",
    "tuple_probability",
    "existence_probability",
    # aggregates
    "distinct",
    "EXISTS_ATTR",
    "distance_distribution",
    "nearest_neighbor_probabilities",
    "count_distribution",
    "sum_distribution",
    "expected_value",
    "min_distribution",
    "max_distribution",
    "assert_tuples_independent",
    # possible worlds
    "PossibleWorld",
    "enumerate_worlds",
    "world_select",
    "world_project",
    "world_join",
    "expected_multiplicities",
    "model_multiplicities",
    "multiplicities_match",
    # simulation
    "sample_worlds",
    "estimate_expected_rows",
    "build_base_tuple",
]
