"""Aggregate operator: COUNT / SUM / AVG(expected) / MIN / MAX over a stream.

Aggregates over uncertain attributes return *distributions*: COUNT(*) is a
Poisson-binomial over existence events, SUM(attr) is a convolution (exact
or continuous-approximated per Section I's discussion), MIN/MAX come from
cdf products.  EXPECTED(attr) returns a certain scalar.

The operator materialises its input (aggregation is inherently blocking)
into a transient :class:`ProbabilisticRelation` and delegates the math to
:mod:`repro.core.aggregates`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from ...core import aggregates as agg
from ...core.history import HistoryStore
from ...core.model import (
    DEFAULT_CONFIG,
    Column,
    DataType,
    ModelConfig,
    ProbabilisticRelation,
    ProbabilisticSchema,
    ProbabilisticTuple,
)
from ...core.threshold import probability_of
from ...errors import QueryError, UnsupportedOperationError
from .base import Operator
from .batch import DEFAULT_BATCH_SIZE, TupleBatch, batched, flatten
from .spill import ExternalSorter, SpillManager

__all__ = ["AggSpec", "Aggregate", "GroupAggregate", "Distinct"]

_FUNCTIONS = ("count", "sum", "expected", "min", "max")


def _total_order_key(values) -> Optional[tuple]:
    """A totally ordered, picklable encoding of a grouping-key tuple.

    Two encodings compare equal exactly when the raw tuples are equal as
    Python dict keys: numerics (bool/int/float) become exact ``Fraction``s
    so ``1 == 1.0 == True`` grouping survives, None ranks first, strings
    last.  Returns ``None`` for values with no dict-compatible total order
    (NaN, exotic types) — callers fall back to the in-memory dict.
    """
    from fractions import Fraction

    out = []
    for v in values:
        if v is None:
            out.append((0, 0))
        elif isinstance(v, str):
            out.append((2, v))
        elif isinstance(v, (bool, int, float)):
            if isinstance(v, float):
                if v != v:
                    return None  # nan: nan != nan has no total order
                if v in (float("inf"), float("-inf")):
                    out.append((1, v))
                    continue
            out.append((1, Fraction(v)))
        else:
            return None
    return tuple(out)


@dataclass(frozen=True)
class AggSpec:
    """One aggregate item: function, argument column, output name."""

    func: str
    attr: Optional[str] = None
    alias: Optional[str] = None
    method: str = "auto"  # SUM only: exact | gaussian | histogram | auto

    def __post_init__(self) -> None:
        if self.func not in _FUNCTIONS:
            raise QueryError(f"unknown aggregate {self.func!r}; use one of {_FUNCTIONS}")
        if self.func != "count" and self.attr is None:
            raise QueryError(f"{self.func.upper()} needs a column argument")

    @property
    def output_name(self) -> str:
        if self.alias:
            return self.alias
        return self.func if self.attr is None else f"{self.func}_{self.attr}"


def _aggregate_tuple(specs, rel, store, config, certain) -> ProbabilisticTuple:
    """One output row: the group's ``certain`` key values plus one cell per
    aggregate item over the rows in ``rel``."""
    pdfs = {}
    lineage = {}
    for spec in specs:
        name = spec.output_name
        if spec.func == "expected":
            certain[name] = agg.expected_value(rel, spec.attr, config)
            continue
        if spec.func == "count":
            result = agg.count_distribution(rel, config)
        elif spec.func == "sum":
            result = agg.sum_distribution(
                rel, spec.attr, method=spec.method, config=config
            )
        elif spec.func == "min":
            result = agg.min_distribution(rel, spec.attr)
        else:  # max
            result = agg.max_distribution(rel, spec.attr)
        pdfs[frozenset({name})] = result.with_attrs([name])
        lineage[frozenset({name})] = frozenset()
    return ProbabilisticTuple(store.new_tuple_id(), certain, pdfs, lineage)


class Aggregate(Operator):
    """Blocking aggregation producing exactly one output tuple."""

    def __init__(
        self,
        child: Operator,
        specs: Sequence[AggSpec],
        store: HistoryStore,
        config: ModelConfig = DEFAULT_CONFIG,
    ):
        if not specs:
            raise QueryError("aggregate needs at least one item")
        self.child = child
        self.specs = list(specs)
        self.store = store
        self.config = config
        columns: List[Column] = []
        dependency = []
        for spec in self.specs:
            name = spec.output_name
            if spec.func == "expected":
                columns.append(Column(name, DataType.REAL))
            else:
                columns.append(Column(name, DataType.REAL))
                dependency.append({name})
        self.output_schema = ProbabilisticSchema(columns, dependency)

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        rel = ProbabilisticRelation(self.child.output_schema, store=self.store)
        for t in flatten(self.child.batches(size)):
            rel.add_tuple(t, acquire=False)
        yield TupleBatch(
            [_aggregate_tuple(self.specs, rel, self.store, self.config, {})]
        )

    def children(self) -> List[Operator]:
        return [self.child]

    def label(self) -> str:
        items = ", ".join(
            f"{s.func.upper()}({s.attr or '*'}) AS {s.output_name}" for s in self.specs
        )
        return f"Aggregate({items})"


class GroupAggregate(Operator):
    """GROUP BY over certain columns, with per-group aggregates.

    Emits one tuple per distinct grouping-key combination (keys with NULLs
    group together, as in SQL), carrying the group's certain key values and
    one (possibly distribution-valued) column per aggregate item.
    """

    def __init__(
        self,
        child: Operator,
        group_attrs: Sequence[str],
        specs: Sequence[AggSpec],
        store: HistoryStore,
        config: ModelConfig = DEFAULT_CONFIG,
    ):
        if not group_attrs:
            raise QueryError("GROUP BY needs at least one column")
        for attr in group_attrs:
            if not child.output_schema.has_column(attr):
                raise QueryError(f"GROUP BY column {attr!r} is unknown")
            if child.output_schema.is_uncertain(attr):
                raise QueryError(
                    f"GROUP BY needs certain columns; {attr!r} is uncertain "
                    "(grouping by uncertain values requires possible-worlds "
                    "semantics over group membership)"
                )
        self.child = child
        self.group_attrs = list(group_attrs)
        self.specs = list(specs)
        self.store = store
        self.config = config
        group_columns = [child.output_schema.column(a) for a in self.group_attrs]
        agg_columns: List[Column] = []
        dependency = []
        for spec in self.specs:
            agg_columns.append(Column(spec.output_name, DataType.REAL))
            if spec.func != "expected":
                dependency.append({spec.output_name})
        self.output_schema = ProbabilisticSchema(
            group_columns + agg_columns, dependency
        )

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        return batched(self._groups(flatten(self.child.batches(size))), size)

    def _groups(self, tuples) -> Iterator[ProbabilisticTuple]:
        """Dict grouping: keys are the Python values in ``t.certain``, groups
        come out in first-appearance order with their rows in input order."""
        groups: dict = {}
        for t in tuples:
            key = tuple(t.certain.get(a) for a in self.group_attrs)
            rel = groups.get(key)
            if rel is None:
                rel = groups[key] = ProbabilisticRelation(
                    self.child.output_schema, store=self.store
                )
            rel.add_tuple(t, acquire=False)
        for key, rel in groups.items():
            yield _aggregate_tuple(
                self.specs,
                rel,
                self.store,
                self.config,
                dict(zip(self.group_attrs, key)),
            )

    def children(self) -> List[Operator]:
        return [self.child]

    def label(self) -> str:
        items = ", ".join(
            f"{s.func.upper()}({s.attr or '*'})" for s in self.specs
        )
        return f"GroupAggregate(by {', '.join(self.group_attrs)}; {items})"


class Distinct(Operator):
    """SELECT DISTINCT over certain-valued rows (paper future work).

    Delegates to :func:`repro.core.distinct.distinct`; existence
    probabilities combine under verified historical independence, and the
    result rows carry their probability in a phantom dependency set.
    """

    def __init__(
        self,
        child: Operator,
        store: HistoryStore,
        config: ModelConfig = DEFAULT_CONFIG,
    ):
        from ...core.distinct import EXISTS_ATTR

        self.child = child
        self.store = store
        self.config = config
        self.output_schema = ProbabilisticSchema(
            child.output_schema.columns, [{EXISTS_ATTR}]
        )
        #: EXPLAIN ANALYZE: spilled runs merged by the external grouping path
        self.sort_runs = 0
        if child.output_schema.uncertain_attrs:
            raise QueryError(
                "SELECT DISTINCT needs certain output columns; project or "
                "aggregate the uncertain ones first (paper Section III-B "
                "leaves general duplicate elimination to future work)"
            )

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        source = flatten(self.child.batches(size))
        work_mem = self.config.work_mem or 0
        if work_mem:
            return batched(self._execute_external(source, work_mem), size)
        return batched(self._execute(source), size)

    def _execute(self, source) -> Iterator[ProbabilisticTuple]:
        from ...core.distinct import distinct as core_distinct

        rel = ProbabilisticRelation(self.child.output_schema, store=self.store)
        for t in source:
            rel.add_tuple(t, acquire=False)
        return iter(core_distinct(rel, self.config).tuples)

    def _execute_external(self, source, work_mem: int) -> Iterator[ProbabilisticTuple]:
        """Memory-bounded duplicate elimination via external sort-group.

        The input is externally sorted by a total-order encoding of the
        grouping key (exact ``Fraction`` for numerics, so cross-type
        ``1 == 1.0 == True`` equality matches the in-memory dict), groups
        stream adjacently with members in input order, and the per-group
        output specs — one per distinct row, output-sized — are emitted in
        first-appearance order with sequentially assigned tuple ids:
        bitwise identical to :func:`repro.core.distinct.distinct`.  NaN
        keys have no dict-compatible total order, so they replay the raw
        input (spooled to disk, memory stays bounded) through the
        in-memory reference.
        """
        from ...core.distinct import EXISTS_ATTR
        from ...core.distinct import distinct as core_distinct
        from ...core.history import historically_dependent
        from ...pdf.discrete import DiscretePdf

        columns = self.child.output_schema.visible_attrs
        with SpillManager(self.config.spill_dir, label="distinct") as mgr:
            raw = mgr.create_file("input")
            sorter = ExternalSorter(mgr, work_mem)
            bad_keys = False
            for seq, t in enumerate(source):
                raw.append(seq, t)
                if not bad_keys:
                    key = _total_order_key([t.certain.get(c) for c in columns])
                    if key is None:
                        bad_keys = True
                    else:
                        sorter.add(key, t)
            raw.finish()
            if bad_keys:
                rel = ProbabilisticRelation(
                    self.child.output_schema, store=self.store
                )
                for _seq, t, _ in raw.read():
                    rel.add_tuple(t, acquire=False)
                yield from iter(core_distinct(rel, self.config).tuples)
                return

            # (first-member seq, first-member certain values, exists prob,
            #  combined lineage) per distinct row — output-sized state.
            specs: List[tuple] = []
            cur_key = _SENTINEL = object()
            members: List[ProbabilisticTuple] = []

            def close_group() -> None:
                if not members:
                    return
                lineages = [
                    frozenset().union(*t.lineage.values()) if t.lineage else frozenset()
                    for t in members
                ]
                for i in range(len(members)):
                    for j in range(i + 1, len(members)):
                        if historically_dependent(lineages[i], lineages[j]):
                            raise UnsupportedOperationError(
                                "duplicate elimination over historically "
                                "dependent tuples is not supported (paper "
                                "Section III-B); rows "
                                f"{members[i].tuple_id} and "
                                f"{members[j].tuple_id} share ancestors"
                            )
                absent = 1.0
                for t in members:
                    absent *= 1.0 - probability_of(t, self.store, None, self.config)
                specs.append(
                    (
                        first_seq,
                        {c: members[0].certain.get(c) for c in columns},
                        1.0 - absent,
                        frozenset().union(*lineages),
                    )
                )

            first_seq = 0
            for key, seq, t, _ in sorter.sorted():
                if key != cur_key:
                    close_group()
                    cur_key = key
                    members = []
                    first_seq = seq
                members.append(t)
            close_group()
            self.sort_runs += sorter.run_count

        specs.sort(key=lambda spec: spec[0])
        dep = frozenset({EXISTS_ATTR})
        for _seq, certain, exists, combined in specs:
            out_t = ProbabilisticTuple(
                self.store.new_tuple_id(),
                certain,
                {dep: DiscretePdf({1.0: exists}, attr=EXISTS_ATTR)},
                {dep: combined},
            )
            # The in-memory path adds each output row to a derived relation,
            # acquiring its ancestor references; mirror that side effect.
            if combined:
                self.store.acquire(combined)
            yield out_t

    def explain_extras(self) -> List[str]:
        if not self.sort_runs:
            return []
        return [f"sort_runs={self.sort_runs}"]

    def children(self) -> List[Operator]:
        return [self.child]

    def label(self) -> str:
        return "Distinct"
