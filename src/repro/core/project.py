"""The projection operator Π (Section III-B).

Projection must not lose correlation information: a dependency set whose
pdf is *partial* (mass < 1) still constrains which possible worlds survived
earlier selections, even if none of its attributes remain visible.  The
paper therefore keeps such sets in Δ as **phantom attributes**.

Per dependency set ``S`` with kept attributes ``A`` the plan chooses:

* ``keep`` — ``S ⊆ A``, or the set may carry partial mass: kept whole (the
  invisible attributes become phantoms),
* ``marginal`` — every pdf in the relation has full mass: safe to
  marginalise down to ``S ∩ A`` (the optimisation the paper applies in
  Figure 3, where only the marginal of ``a`` is kept; historical dependence
  is repaired later from the ancestors),
* ``drop`` — disjoint from ``A`` with full mass everywhere.

The streaming executor cannot see all tuples up front, so its ``Project``
builds the plan in *conservative* mode, which never marginalises partial
information away.  The exact rule lives in the SQL planner's read sets
(``repro.engine.sql.planner._read_sets``): a scan never decodes an unnamed
set that no stored record held partial (``Table.partial_sets``, by
:func:`is_partial`), so the phantoms ``Project`` keeps are the partial ones.

Duplicate elimination is intentionally not performed, as in the paper.
"""

from __future__ import annotations

from typing import FrozenSet, List, Sequence

from ..errors import QueryError
from .model import (
    DEFAULT_CONFIG,
    ModelConfig,
    ProbabilisticRelation,
    ProbabilisticSchema,
    ProbabilisticTuple,
)

__all__ = ["project", "ProjectionPlan", "is_partial"]


def is_partial(mass: float) -> bool:
    """Whether a pdf of total ``mass`` is partial (the tuple may be absent)."""
    return mass < 1.0 - 1e-9


class ProjectionPlan:
    """Precomputed projection over one input schema.

    ``partial_sets`` names the dependency sets that may hold partial pdfs —
    pass ``None`` (conservative) when that cannot be determined up front.
    """

    def __init__(
        self,
        schema: ProbabilisticSchema,
        attrs: Sequence[str],
        partial_sets: "FrozenSet[FrozenSet[str]] | None" = None,
        config: ModelConfig = DEFAULT_CONFIG,
        aggressive: bool = False,
    ):
        """``aggressive=True`` always marginalises down to the visible
        attributes, discarding phantom information.  Existence probabilities
        are preserved (marginalisation keeps total mass), but joint floor
        structure is lost, so *later* history-dependent operations may
        over-count — this is the cheap-but-unsafe strategy the paper's
        "without histories" baseline pairs with.
        """
        attrs = list(attrs)
        if len(set(attrs)) != len(attrs):
            raise QueryError(f"duplicate attributes in projection list: {attrs}")
        for a in attrs:
            if not schema.has_column(a):
                raise QueryError(f"cannot project unknown attribute {a!r}")
        self.attrs = attrs
        self.config = config
        kept = frozenset(attrs)

        self._actions: List = []  # (dep_set, action)
        new_dependency: List[FrozenSet[str]] = []
        for dep in schema.dependency:
            inter = dep & kept
            may_be_partial = partial_sets is None or dep in partial_sets
            if inter == dep:
                action = "keep"
            elif aggressive:
                action = "marginal" if inter else "drop"
            elif may_be_partial:
                action = "keep"
            elif inter:
                action = "marginal"
            else:
                action = "drop"
            self._actions.append((dep, action))
            if action == "keep":
                new_dependency.append(dep)
            elif action == "marginal":
                new_dependency.append(inter)
        self.output_schema = ProbabilisticSchema(
            [schema.column(a) for a in attrs], new_dependency
        )

    def apply(self, t: ProbabilisticTuple) -> ProbabilisticTuple:
        """Project a single tuple (projection never drops tuples)."""
        new_certain = {a: t.certain[a] for a in self.attrs if a in t.certain}
        new_pdfs = {}
        new_lineage = {}
        for dep, action in self._actions:
            if action == "drop":
                continue
            pdf = t.pdfs.get(dep)
            if action == "keep":
                new_pdfs[dep] = pdf
                new_lineage[dep] = t.lineage.get(dep, frozenset())
            else:  # marginal
                inter = frozenset(dep) & frozenset(self.attrs)
                ordered = sorted(inter)
                new_pdfs[frozenset(inter)] = (
                    None if pdf is None else pdf.marginalize(ordered)
                )
                new_lineage[frozenset(inter)] = t.lineage.get(dep, frozenset())
        return ProbabilisticTuple(t.tuple_id, new_certain, new_pdfs, new_lineage)


def _partial_sets(rel: ProbabilisticRelation) -> FrozenSet[FrozenSet[str]]:
    """The dependency sets holding a partial pdf in at least one tuple."""
    partial = set()
    for dep in rel.schema.dependency:
        for t in rel.tuples:
            pdf = t.pdfs.get(dep)
            if pdf is not None and is_partial(pdf.mass()):
                partial.add(dep)
                break
    return frozenset(partial)


def project(
    rel: ProbabilisticRelation,
    attrs: Sequence[str],
    config: ModelConfig = DEFAULT_CONFIG,
    aggressive: bool = False,
) -> ProbabilisticRelation:
    """Π_attrs(rel): keep the named visible columns."""
    plan = ProjectionPlan(
        rel.schema,
        attrs,
        partial_sets=_partial_sets(rel),
        config=config,
        aggressive=aggressive,
    )
    out = rel.derived(plan.output_schema)
    for t in rel.tuples:
        out.add_tuple(plan.apply(t))
    return out
