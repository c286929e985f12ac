"""The probabilistic data model: schemas, tuples, relations (Section II).

A table ``T`` is described by a *probabilistic schema* ``(Σ_T, Δ_T)``:

* ``Σ_T`` — the ordinary relational schema: named, typed columns,
* ``Δ_T`` — the *dependency information*: a partition of the uncertain
  attributes into **dependency sets** that are jointly distributed.
  Attributes not mentioned in any set are certain.  Δ may contain *phantom
  attributes* that are not in Σ — the residue of projections that must keep
  correlation information alive (Section III-B).

A :class:`ProbabilisticTuple` stores values for the certain attributes
(``None`` meaning SQL NULL) and one pdf per dependency set — possibly a
*partial* pdf whose missing mass is the probability the tuple does not
exist, and possibly ``None`` meaning the attribute values are unknown but
the tuple certainly exists (the two distinct readings of Table IV).

Relations carry a shared :class:`~repro.core.history.HistoryStore`; every
inserted dependency set is registered there as a base ancestor so that
later operations can detect and repair historical dependence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from ..errors import ReproError, SchemaError
from ..pdf.base import Pdf
from .history import AncestorRef, HistoryStore, Lineage, fresh_lineage

__all__ = [
    "DataType",
    "Column",
    "ProbabilisticSchema",
    "ProbabilisticTuple",
    "ProbabilisticRelation",
    "ModelConfig",
    "DEFAULT_CONFIG",
    "build_base_tuple",
    "build_base_tuples",
]


class DataType(enum.Enum):
    """Column data types understood by the model and the engine."""

    INT = "int"
    REAL = "real"
    BOOL = "bool"
    TEXT = "text"

    def __repr__(self) -> str:
        return f"DataType.{self.name}"


@dataclass(frozen=True)
class Column:
    """A named, typed column of a probabilistic schema."""

    name: str
    dtype: DataType = DataType.REAL

    def __repr__(self) -> str:
        return f"{self.name}:{self.dtype.value}"


@dataclass(frozen=True)
class ModelConfig:
    """The settings a program chooses per database.

    Values no program varies are constants instead: the mass below which a
    selection drops a tuple is :data:`repro.pdf.base.TAIL_MASS`, the
    executor's batch size is
    :data:`repro.engine.executor.batch.DEFAULT_BATCH_SIZE`, and join results
    merge historically dependent sets lazily (:func:`repro.core.join.collapse_history`
    is the eager strategy, called explicitly).

    ``use_history``
        When False, the ``product`` primitive multiplies marginals even for
        historically dependent pdfs.  This reproduces the *incorrect*
        baseline of Figure 3 and the "w/o histories" series of Figure 6.
    ``work_mem``
        Per-operator working-memory budget in bytes for the blocking
        operators (hash join build side, ORDER BY, ORDER BY PROB(*),
        DISTINCT, GROUP BY); ``None`` or ``0`` (the default) means
        unbounded.  Each operator has one body that honours the budget: a
        hash join partitions to disk Grace-style once its build side
        exceeds it, and a sort (DISTINCT and GROUP BY are sort-groups)
        spills sorted runs once its buffer does and merges them back.
        Rows, row order and tuple ids do not depend on the budget.  Spill
        activity is reported by ``EXPLAIN ANALYZE`` as
        ``spill_partitions=`` / ``sort_runs=``.
    ``spill_dir``
        Directory for spill run files.  ``None`` (the default) uses a
        fresh temporary directory per spilling operator, removed when the
        operator finishes.  Durable databases point this at
        ``<path>/spill`` so that files orphaned by a crash are removed by
        recovery on the next open.
    """

    use_history: bool = True
    work_mem: Optional[int] = None
    spill_dir: Optional[str] = None

    def __post_init__(self) -> None:
        # ``type(...) is int`` on purpose: True / False are not sizes.
        if self.work_mem is not None and (
            type(self.work_mem) is not int or self.work_mem < 0
        ):
            raise ReproError(
                "work_mem must be None or an integer byte count >= 0, "
                f"got {self.work_mem!r}"
            )


DEFAULT_CONFIG = ModelConfig()


DependencySpec = Iterable[Iterable[str]]


class ProbabilisticSchema:
    """``(Σ, Δ)``: relational schema plus dependency information.

    ``columns`` define the *visible* attributes.  ``dependency`` is the
    partition Δ; its sets may mention phantom attributes that no column
    carries.  Every visible attribute in no dependency set is certain.
    """

    def __init__(self, columns: Sequence[Column], dependency: DependencySpec = ()):
        self.columns: Tuple[Column, ...] = tuple(columns)
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in schema: {names}")
        dep_sets: List[FrozenSet[str]] = []
        seen: set = set()
        for group in dependency:
            s = frozenset(str(a) for a in group)
            if not s:
                raise SchemaError("dependency sets must be non-empty")
            if s & seen:
                raise SchemaError(
                    f"dependency sets must be disjoint; {sorted(s & seen)} repeated"
                )
            seen |= s
            dep_sets.append(s)
        self.dependency: Tuple[FrozenSet[str], ...] = tuple(dep_sets)
        self._by_name: Dict[str, Column] = {c.name: c for c in self.columns}
        # A schema never changes after construction, so the attribute
        # classification every insert and scan consults is tabulated here.
        self._dep_of: Dict[str, FrozenSet[str]] = {a: s for s in dep_sets for a in s}
        self._visible_attrs = tuple(names)
        self._uncertain_attrs = frozenset(n for n in names if n in self._dep_of)
        self._certain_attrs = tuple(n for n in names if n not in self._dep_of)
        self._phantom_attrs = frozenset(self._dep_of) - frozenset(names)

    # -- attribute classification ------------------------------------------------

    @property
    def visible_attrs(self) -> Tuple[str, ...]:
        """Names of the user-visible columns, in declaration order."""
        return self._visible_attrs

    @property
    def uncertain_attrs(self) -> FrozenSet[str]:
        """Visible attributes governed by some dependency set."""
        return self._uncertain_attrs

    @property
    def certain_attrs(self) -> Tuple[str, ...]:
        """Visible attributes not governed by any dependency set."""
        return self._certain_attrs

    @property
    def phantom_attrs(self) -> FrozenSet[str]:
        """Attributes kept only inside Δ (not user-visible)."""
        return self._phantom_attrs

    def column(self, name: str) -> Column:
        if name not in self._by_name:
            raise SchemaError(f"unknown column {name!r}; schema has {self.visible_attrs}")
        return self._by_name[name]

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def dependency_set_of(self, attr: str) -> Optional[FrozenSet[str]]:
        """The dependency set governing ``attr``, or None when certain."""
        return self._dep_of.get(attr)

    def is_uncertain(self, attr: str) -> bool:
        return attr in self._dep_of

    # -- derivation helpers --------------------------------------------------------

    def renamed(self, mapping: Mapping[str, str]) -> "ProbabilisticSchema":
        """A copy with columns and dependency attributes renamed."""
        return ProbabilisticSchema(
            [Column(mapping.get(c.name, c.name), c.dtype) for c in self.columns],
            [{mapping.get(a, a) for a in s} for s in self.dependency],
        )

    def __repr__(self) -> str:
        cols = ", ".join(map(repr, self.columns))
        deps = ", ".join("{" + ",".join(sorted(s)) + "}" for s in self.dependency)
        return f"Schema([{cols}], Δ=[{deps}])"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbabilisticSchema):
            return NotImplemented
        return self.columns == other.columns and set(self.dependency) == set(other.dependency)


CertainValue = Union[int, float, bool, str, None]


class ProbabilisticTuple:
    """One row: certain values plus one (possibly partial) pdf per dependency set.

    ``pdfs`` maps each dependency set of the schema to a
    :class:`~repro.pdf.base.Pdf` over exactly those attributes, or ``None``
    for NULL (values unknown, tuple exists — Table IV's first reading).
    ``lineage`` maps each set to its history Λ (ancestor links).
    """

    __slots__ = ("tuple_id", "certain", "pdfs", "lineage")

    def __init__(
        self,
        tuple_id: int,
        certain: Mapping[str, CertainValue],
        pdfs: Mapping[FrozenSet[str], Optional[Pdf]],
        lineage: Mapping[FrozenSet[str], Lineage],
    ):
        self.tuple_id = tuple_id
        self.certain: Dict[str, CertainValue] = dict(certain)
        self.pdfs: Dict[FrozenSet[str], Optional[Pdf]] = dict(pdfs)
        self.lineage: Dict[FrozenSet[str], Lineage] = dict(lineage)

    @classmethod
    def _adopt(
        cls,
        tuple_id: int,
        certain: Dict[str, CertainValue],
        pdfs: Dict[FrozenSet[str], Optional[Pdf]],
        lineage: Dict[FrozenSet[str], Lineage],
    ) -> "ProbabilisticTuple":
        """Constructor for hot paths that hand over freshly built dicts.

        Skips the defensive ``dict()`` copies of :meth:`__init__`; callers
        must not alias the arguments afterwards.
        """
        t = cls.__new__(cls)
        t.tuple_id = tuple_id
        t.certain = certain
        t.pdfs = pdfs
        t.lineage = lineage
        return t

    def pdf_of_attr(self, attr: str) -> Optional[Pdf]:
        """The pdf of the dependency set containing ``attr`` (None if NULL)."""
        for s, pdf in self.pdfs.items():
            if attr in s:
                return pdf
        raise SchemaError(f"attribute {attr!r} is not uncertain in this tuple")

    def dependency_set_of(self, attr: str) -> Optional[FrozenSet[str]]:
        for s in self.pdfs:
            if attr in s:
                return s
        return None

    def __repr__(self) -> str:
        parts = [f"{k}={v!r}" for k, v in self.certain.items()]
        for s, pdf in sorted(self.pdfs.items(), key=lambda kv: sorted(kv[0])):
            parts.append("{" + ",".join(sorted(s)) + "}=" + repr(pdf))
        return f"Tuple#{self.tuple_id}(" + ", ".join(parts) + ")"


#: One row handed to an insert: certain values by name, and pdfs keyed by an
#: attribute name or an ordered tuple of names (a joint dependency set).
InsertRow = Tuple[
    Optional[Mapping[str, CertainValue]],
    Optional[Mapping[Union[str, Tuple[str, ...]], Optional[Pdf]]],
]


def _validated_row(schema: ProbabilisticSchema, row: InsertRow):
    """One row checked against the schema: its certain values and its pdfs
    relabelled onto the dependency-set names (NULL for sets not supplied)."""
    certain, uncertain = row
    certain = certain or {}
    dep_of = schema._dep_of
    for name in certain:
        if not schema.has_column(name):
            raise SchemaError(f"unknown certain attribute {name!r}")
        if name in dep_of:
            raise SchemaError(f"attribute {name!r} is uncertain; pass it via `uncertain`")
    certain_values: Dict[str, CertainValue] = {
        n: certain.get(n) for n in schema.certain_attrs
    }

    pdfs: Dict[FrozenSet[str], Optional[Pdf]] = {}
    for key, pdf in (uncertain or {}).items():
        attrs = (key,) if isinstance(key, str) else tuple(key)
        # the schema's own frozenset: every tuple of a table shares it
        dep = dep_of.get(attrs[0]) if attrs else None
        if dep is None or dep != frozenset(attrs):
            raise SchemaError(
                f"{sorted(set(attrs))} is not a dependency set of {schema!r}"
            )
        if pdf is not None:
            if pdf.arity != len(attrs):
                raise SchemaError(
                    f"pdf over {pdf.attrs} cannot fill dependency set {sorted(dep)}"
                )
            pdf = pdf.with_attrs(attrs)
        pdfs[dep] = pdf
    for dep in schema.dependency:
        pdfs.setdefault(dep, None)
    return certain_values, pdfs


def build_base_tuples(
    schema: ProbabilisticSchema, store: HistoryStore, rows: Iterable[InsertRow]
) -> List[ProbabilisticTuple]:
    """Validate ``rows`` and build their base tuples; registers nothing.

    The one place the insert rules live.  Ids are drawn only once every row
    has passed, and each non-NULL pdf gets the fresh lineage of Definition 2.
    """
    validated = [_validated_row(schema, row) for row in rows]
    no_lineage: Lineage = frozenset()
    tuples = []
    for tuple_id, (certain_values, pdfs) in zip(
        store.new_tuple_ids(len(validated)), validated
    ):
        lineage = {
            dep: no_lineage if pdf is None else fresh_lineage(AncestorRef(tuple_id, dep))
            for dep, pdf in pdfs.items()
        }
        tuples.append(ProbabilisticTuple._adopt(tuple_id, certain_values, pdfs, lineage))
    return tuples


def build_base_tuple(
    schema: ProbabilisticSchema,
    store: HistoryStore,
    certain: Optional[Mapping[str, CertainValue]] = None,
    uncertain: Optional[Mapping[Union[str, Tuple[str, ...]], Optional[Pdf]]] = None,
) -> ProbabilisticTuple:
    """Build one base tuple of an in-memory relation and keep every pdf in
    ``store`` as its own top-level ancestor (Definition 2)."""
    (t,) = build_base_tuples(schema, store, [(certain, uncertain)])
    for pdf in t.pdfs.values():
        if pdf is not None:
            store.register_base(t.tuple_id, pdf)
    return t


class ProbabilisticRelation:
    """A probabilistic table: schema, tuples, and a shared history store."""

    def __init__(
        self,
        schema: ProbabilisticSchema,
        store: Optional[HistoryStore] = None,
        name: str = "",
    ):
        self.schema = schema
        self.store = store if store is not None else HistoryStore()
        self.name = name
        self.tuples: List[ProbabilisticTuple] = []

    # -- insertion ---------------------------------------------------------

    def insert(
        self,
        certain: Optional[Mapping[str, CertainValue]] = None,
        uncertain: Optional[Mapping[Union[str, Tuple[str, ...]], Optional[Pdf]]] = None,
    ) -> ProbabilisticTuple:
        """Insert a base tuple.

        ``certain`` maps certain attribute names to values (missing means
        NULL).  ``uncertain`` maps an attribute name — or an ordered tuple
        of names for a joint dependency set — to a pdf whose attributes are
        renamed positionally to those names; ``None`` stores a NULL pdf.
        Every pdf is registered in the history store as its own top-level
        ancestor (Definition 2).
        """
        t = build_base_tuple(self.schema, self.store, certain, uncertain)
        self.tuples.append(t)
        return t

    def delete(self, t: ProbabilisticTuple) -> None:
        """Delete a base tuple; referenced pdfs survive as phantom nodes."""
        self.tuples.remove(t)
        self.store.drop_tuple(t)

    # -- construction of derived relations ----------------------------------------

    def derived(self, schema: ProbabilisticSchema, name: str = "") -> "ProbabilisticRelation":
        """An empty relation sharing this relation's history store."""
        return ProbabilisticRelation(schema, store=self.store, name=name or self.name)

    def add_tuple(self, t: ProbabilisticTuple, acquire: bool = True) -> None:
        """Append a derived tuple, acquiring references to its ancestors."""
        if acquire:
            for lin in t.lineage.values():
                if lin:
                    self.store.acquire(lin)
        self.tuples.append(t)

    # -- inspection -------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Relation{label}({len(self.tuples)} tuples, {self.schema!r})"

    def pretty(self, limit: int = 20) -> str:
        """A small fixed-width rendering for examples and debugging."""
        header = list(self.schema.visible_attrs)
        lines = [" | ".join(header)]
        lines.append("-+-".join("-" * len(h) for h in header))
        for t in self.tuples[:limit]:
            cells = []
            for attr in header:
                if self.schema.is_uncertain(attr):
                    pdf = t.pdf_of_attr(attr)
                    cells.append("NULL" if pdf is None else repr(pdf))
                else:
                    value = t.certain.get(attr)
                    cells.append("NULL" if value is None else str(value))
            lines.append(" | ".join(cells))
        if len(self.tuples) > limit:
            lines.append(f"... ({len(self.tuples) - limit} more)")
        return "\n".join(lines)
