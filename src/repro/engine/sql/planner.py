"""Binder and planner: SQL ASTs to executor operator trees.

A deliberately small rule-based planner — one decision procedure, no
statistics, no cost model:

* every table is read by the synopsis-pruned sequential scan, which
  reads only the slots a probability-threshold index admits when range
  conjuncts bound a PROB-indexed uncertain column; in a single-table
  query a B+tree narrows it to a key range when a certain range/equality
  conjunct bounds an indexed column, and each scan applies the exact
  certain conjuncts over its own table, so the access path affects only
  cost, never answers;
* a multi-table FROM is a left-deep chain of hash joins from its first
  table: each step joins the first remaining table, in FROM order, that a
  certain ``col = col`` conjunct ties to the tables already joined, keyed
  on it (probed from the joined prefix, built from the new table), or else
  the first remaining table with no key;
* ``PROB(...)`` terms must be top-level conjuncts; they and the uncertain
  conjuncts plan into one Filter above the scan or join chain;
* every scan decodes only its table's read set (:func:`_read_sets`);
* the select list, GROUP BY and ORDER BY bind in one pass
  (:func:`_bind_select_list`): an unqualified ORDER BY key names an output
  column first, any other a FROM column, and the ``Sort`` runs above the
  ``Project`` when every key is an output column, else just below it.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ...core.model import (
    Column,
    DataType,
    ProbabilisticSchema,
)
from ...core.predicates import (
    And,
    Comparison,
    IsNull,
    Not,
    Or,
    Predicate,
    TruePredicate,
    col,
)
from ...errors import QueryError, SqlBindError
from ..catalog import Catalog
from ..executor import (
    DEFAULT_BATCH_SIZE,
    AggSpec,
    Aggregate,
    Distinct,
    Filter,
    HashJoin,
    Limit,
    Operator,
    Project,
    SeqScan,
    Sort,
)
from ..storage.synopsis import ScanPruner
from . import ast

__all__ = ["plan_select", "execute_plan", "Binder"]


def execute_plan(plan: Operator, config=None) -> List:
    """Materialise a plan's rows, ``DEFAULT_BATCH_SIZE`` tuples per batch.

    ``config`` is unused (each operator holds its own); the end-to-end
    harness in ``benchmarks/e2e`` still passes the database's.
    """
    return [t for batch in plan.batches(DEFAULT_BATCH_SIZE) for t in batch.tuples]


_DTYPES = {
    "int": DataType.INT,
    "real": DataType.REAL,
    "bool": DataType.BOOL,
    "text": DataType.TEXT,
}


class Binder:
    """Resolves column references against the FROM clause bindings."""

    def __init__(self, catalog: Catalog, tables: Sequence[ast.TableRef]):
        if not tables:
            raise SqlBindError("FROM clause is empty")
        self.catalog = catalog
        self.tables = list(tables)
        bindings = [t.binding for t in self.tables]
        if len(set(b.lower() for b in bindings)) != len(bindings):
            raise SqlBindError(f"duplicate table bindings in FROM: {bindings}")
        self.qualify = len(self.tables) > 1
        # binding -> list of visible column names
        self._columns: Dict[str, List[str]] = {}
        for ref in self.tables:
            table = catalog.get_table(ref.name)
            self._columns[ref.binding.lower()] = list(table.schema.visible_attrs)

    def attr_name(self, binding: str, column: str) -> str:
        """The executor-visible attribute name for a bound column."""
        return f"{binding}.{column}" if self.qualify else column

    def resolve(self, expr: ast.ColumnExpr) -> str:
        if expr.qualifier is not None:
            key = expr.qualifier.lower()
            if key not in self._columns:
                raise SqlBindError(f"unknown table or alias {expr.qualifier!r}")
            if expr.name not in self._columns[key]:
                raise SqlBindError(
                    f"table {expr.qualifier!r} has no column {expr.name!r}"
                )
            binding = next(t.binding for t in self.tables if t.binding.lower() == key)
            return self.attr_name(binding, expr.name)
        owners = [
            t.binding
            for t in self.tables
            if expr.name in self._columns[t.binding.lower()]
        ]
        if not owners:
            raise SqlBindError(f"unknown column {expr.name!r}")
        if len(owners) > 1:
            raise SqlBindError(
                f"ambiguous column {expr.name!r}; qualify it with one of {owners}"
            )
        return self.attr_name(owners[0], expr.name)

    def all_columns(self) -> List[str]:
        out = []
        for ref in self.tables:
            for name in self._columns[ref.binding.lower()]:
                out.append(self.attr_name(ref.binding, name))
        return out


def build_schema(stmt: ast.CreateTable) -> ProbabilisticSchema:
    """Translate a CREATE TABLE AST into a probabilistic schema."""
    columns = [Column(c.name, _DTYPES[c.dtype]) for c in stmt.columns]
    names = {c.name for c in stmt.columns}
    dependency: List[set] = []
    grouped: set = set()
    for group in stmt.dependencies:
        unknown = [a for a in group if a not in names]
        if unknown:
            raise QueryError(f"DEPENDENCY references unknown columns {unknown}")
        dependency.append(set(group))
        grouped |= set(group)
    for c in stmt.columns:
        if c.uncertain and c.name not in grouped:
            dependency.append({c.name})
    return ProbabilisticSchema(columns, dependency)


# ---------------------------------------------------------------------------
# Predicate conversion
# ---------------------------------------------------------------------------


def _convert_operand(binder: Binder, expr: ast.ValueExpr):
    if isinstance(expr, ast.ColumnExpr):
        return ("column", binder.resolve(expr))
    if isinstance(expr, ast.LiteralExpr):
        return ("literal", expr.value)
    raise QueryError(f"unsupported operand {expr!r}")


_FLIP = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def convert_predicate(binder: Binder, expr: ast.BoolExpr) -> Predicate:
    """Translate a boolean AST (without PROB terms) into a core predicate."""
    if isinstance(expr, ast.CompareExpr):
        left = _convert_operand(binder, expr.left)
        right = _convert_operand(binder, expr.right)
        if left[0] == "column" and right[0] == "column":
            return Comparison(left[1], expr.op, col(right[1]))
        if left[0] == "column":
            return Comparison(left[1], expr.op, right[1])
        if right[0] == "column":
            return Comparison(right[1], _FLIP[expr.op], left[1])
        raise QueryError("comparison between two literals is not supported")
    if isinstance(expr, ast.IsNullExpr):
        attr = binder.resolve(expr.column)
        return IsNull(attr, negated=expr.negated)
    if isinstance(expr, ast.AndExpr):
        return And([convert_predicate(binder, p) for p in expr.parts])
    if isinstance(expr, ast.OrExpr):
        return Or([convert_predicate(binder, p) for p in expr.parts])
    if isinstance(expr, ast.NotExpr):
        return Not(convert_predicate(binder, expr.inner))
    if isinstance(expr, ast.ProbExpr):
        raise QueryError(
            "PROB(...) may only appear as a top-level AND-connected condition"
        )
    raise QueryError(f"unsupported boolean expression {expr!r}")


def _flatten_conjuncts(expr: ast.BoolExpr) -> List[ast.BoolExpr]:
    """Recursively flatten nested ANDs (BETWEEN desugars into one)."""
    if isinstance(expr, ast.AndExpr):
        out: List[ast.BoolExpr] = []
        for part in expr.parts:
            out.extend(_flatten_conjuncts(part))
        return out
    return [expr]


def split_where(
    where: Optional[ast.BoolExpr],
) -> Tuple[List[ast.BoolExpr], List[ast.ProbExpr]]:
    """Split WHERE into value-level conjuncts and PROB conjuncts."""
    if where is None:
        return [], []
    value_terms: List[ast.BoolExpr] = []
    prob_terms: List[ast.ProbExpr] = []
    for term in _flatten_conjuncts(where):
        if isinstance(term, ast.ProbExpr):
            prob_terms.append(term)
        else:
            value_terms.append(term)
    return value_terms, prob_terms


# ---------------------------------------------------------------------------
# Access path selection
# ---------------------------------------------------------------------------


def _comparison_bound(term: ast.BoolExpr, binder: Binder):
    """(attr, op, literal) for a column-vs-literal comparison, else None."""
    if not isinstance(term, ast.CompareExpr):
        return None
    left, right = term.left, term.right
    if isinstance(left, ast.ColumnExpr) and isinstance(right, ast.LiteralExpr):
        if isinstance(right.value, (int, float)) and not isinstance(right.value, bool):
            return binder.resolve(left), term.op, float(right.value)
    if isinstance(right, ast.ColumnExpr) and isinstance(left, ast.LiteralExpr):
        if isinstance(left.value, (int, float)) and not isinstance(left.value, bool):
            return binder.resolve(right), _FLIP[term.op], float(left.value)
    return None


def _range_of(bounds: list, attr: str):
    """The [lo, hi] interval the conjuncts' bounds imply for one attribute."""
    lo, hi = float("-inf"), float("inf")
    found = False
    for bound in bounds:
        if bound is None or bound[0] != attr:
            continue
        _, op, value = bound
        if op in (">", ">="):
            lo = max(lo, value)
            found = True
        elif op in ("<", "<="):
            hi = min(hi, value)
            found = True
        elif op == "=":
            lo, hi = max(lo, value), min(hi, value)
            found = True
    return (lo, hi) if found else None


def _bounds_of(terms: List[ast.BoolExpr], binder: Binder) -> list:
    """One :func:`_comparison_bound` (or None) per conjunct."""
    return [_comparison_bound(term, binder) for term in terms]


def _inner_bounds(prob: ast.ProbExpr, binder: Binder) -> list:
    """The bounds of a PROB term's inner conjuncts, nested ANDs flattened
    (BETWEEN and parentheses both nest one)."""
    return _bounds_of(_flatten_conjuncts(prob.inner), binder)


def _prunes(prob: ast.ProbExpr) -> bool:
    """Whether a ``PROB`` term may prune rows: only when it forces P > 0
    (``> p`` with p >= 0, ``>= p`` with p > 0).  Any other term holds for
    rows whose pdf misses its range, or is NULL, so neither the scan's row
    test nor an index may drop them."""
    if prob.op == ">":
        return prob.threshold >= 0.0
    return prob.op == ">=" and prob.threshold > 0.0


def _build_pruner(
    table,
    ref: ast.TableRef,
    binder: Binder,
    value_bounds: list,
    prob_terms: List[ast.ProbExpr],
) -> ScanPruner:
    """The :class:`ScanPruner` the WHERE conjuncts imply for one table.

    Range keys are the table's *bare* attribute names (page synopses and
    record prefixes know nothing about FROM-clause bindings), so range
    pruning also applies to the inputs of a join.  PROB-derived tests and
    the PROB index are single-table only.  The index test is that of the
    first PROB-indexed column, by name, which value conjuncts bound (at threshold 0)
    or, failing those, the inner conjuncts of a ``PROB(...) >(=) p`` term
    that :func:`_prunes` bound alone (at ``p``).
    """
    schema = table.schema
    certain_ranges: Dict[str, Tuple[float, float]] = {}
    uncertain_ranges: Dict[str, Tuple[float, float]] = {}

    def merge(attr: str, bounds: Tuple[float, float]) -> None:
        target = uncertain_ranges if schema.is_uncertain(attr) else certain_ranges
        old = target.get(attr)
        target[attr] = (
            bounds if old is None else (max(old[0], bounds[0]), min(old[1], bounds[1]))
        )

    for attr in schema.visible_attrs:
        bounds = _range_of(value_bounds, binder.attr_name(ref.binding, attr))
        if bounds is not None:
            merge(attr, bounds)

    attr_thresholds: Dict[str, List[Tuple[str, float]]] = {}
    exist_thresholds: List[Tuple[str, float]] = []
    index = None
    if not binder.qualify:
        for attr in sorted(table.ptis):
            bounds, threshold = _range_of(value_bounds, attr), 0.0
            if bounds is None:
                for prob in prob_terms:
                    if prob.inner is None or not _prunes(prob):
                        continue
                    inner = _inner_bounds(prob, binder)
                    if all(b is not None and b[0] == attr for b in inner):
                        bounds, threshold = _range_of(inner, attr), prob.threshold
                        if bounds is not None:
                            break
            if bounds is not None and bounds != (float("-inf"), float("inf")):
                index = (attr, bounds[0], bounds[1], threshold)
                break
        for prob in prob_terms:
            if not _prunes(prob):
                continue
            if prob.inner is None:
                exist_thresholds.append((prob.op, prob.threshold))
                continue
            # The dependency-set mass upper-bounds P(pred AND exists) for
            # every uncertain attribute the inner predicate touches.
            try:
                inner_attrs = convert_predicate(binder, prob.inner).attrs()
            except QueryError:
                inner_attrs = frozenset()
            for attr in inner_attrs:
                if schema.has_column(attr) and schema.is_uncertain(attr):
                    attr_thresholds.setdefault(attr, []).append(
                        (prob.op, prob.threshold)
                    )
            # Each comparison conjunct of the inner predicate is individually
            # necessary for P(inner) > 0, so its range prunes like a value
            # conjunct (same support-hull caveat as the PTI).
            inner = _inner_bounds(prob, binder)
            for attr in {b[0] for b in inner if b is not None}:
                bounds = _range_of(inner, attr)
                if bounds is not None and schema.has_column(attr):
                    merge(attr, bounds)
    return ScanPruner(
        certain_ranges, uncertain_ranges, attr_thresholds, exist_thresholds, index=index
    )


def choose_scan(
    catalog: Catalog,
    ref: ast.TableRef,
    binder: Binder,
    value_terms: List[ast.BoolExpr],
    prob_terms: List[ast.ProbExpr],
    read_sets: Optional[frozenset] = None,
) -> SeqScan:
    """The access path for one table: the synopsis-pruned ``SeqScan`` (with
    the PROB index's test, see :func:`_build_pruner`), narrowed by a B+tree
    when a value conjunct bounds an indexed certain column.

    Both tests only drop rows the plan's own predicates would drop, so the
    choice affects cost, never answers.  The B+tree serves single-table
    queries only: a table of a multi-table FROM is a ``SeqScan`` that
    decodes its rows under the binding's qualified names.  The scan decodes
    ``read_sets`` (see :func:`_read_sets`; ``None``, the default, reads
    whole records).
    """
    table = catalog.get_table(ref.name)
    value_bounds = _bounds_of(value_terms, binder)
    pruner = _build_pruner(table, ref, binder, value_bounds, prob_terms)
    if binder.qualify:
        schema = table.schema
        mapping = {
            name: binder.attr_name(ref.binding, name)
            for name in list(schema.visible_attrs) + sorted(schema.phantom_attrs)
        }
        return SeqScan(table, pruner, read_sets, binding=(ref.binding, mapping))
    for attr in table.btrees:
        bounds = _range_of(value_bounds, attr)
        if bounds is not None:
            pruner.btree, pruner.index = (attr, *bounds), None  # no page or row test runs
            break
    return SeqScan(table, pruner, read_sets)


def _read_sets(
    catalog: Catalog,
    binder: Binder,
    stmt: ast.Select,
    value_terms: List[ast.BoolExpr],
    prob_terms: List[ast.ProbExpr],
    named: frozenset,
) -> List[Optional[frozenset]]:
    """Per FROM table, its *read set*: the dependency sets the statement can
    observe, the only ones its scan decodes (``None``: every set).

    ``SELECT *``, ``PROB(...)``, ``ORDER BY PROB(*)`` and ``DISTINCT``
    compare or emit a per-row probability, which a one-ulp move could push
    across a threshold: they read every set.  Any other statement,
    aggregates included, reads the sets holding an attribute it names
    (``named``, the FROM columns :func:`_bind_select_list` bound, and
    ``WHERE``) plus every set in ``Table.partial_sets``, so ``COUNT(*)``
    reads exactly the partial sets.  What it skips is an unnamed set no
    stored row held partial, which the paper's projection (§III-B) drops
    anyway.  "Partial" is :func:`~repro.core.project.is_partial`'s (mass <
    1 - 1e-9), so an aggregate's existence probabilities can move by less
    than 1e-9 (TPC-H ``COUNT`` cells: 3.9e-16).
    """
    if (
        prob_terms
        or stmt.distinct
        or stmt.order_by_prob
        or any(item.star for item in stmt.items)
    ):
        return [None] * len(stmt.tables)
    named = set(named)
    for term in value_terms:
        named |= convert_predicate(binder, term).attrs()
    tables = [(ref.binding, catalog.get_table(ref.name)) for ref in stmt.tables]
    return [
        frozenset(
            dep
            for dep in table.schema.dependency
            if dep in table.partial_sets
            or any(binder.attr_name(binding, a) in named for a in dep)
        )
        for binding, table in tables
    ]


# ---------------------------------------------------------------------------
# SELECT planning
# ---------------------------------------------------------------------------


def plan_select(catalog: Catalog, stmt: ast.Select) -> Operator:
    """Build the operator tree for a SELECT statement."""
    binder = Binder(catalog, stmt.tables)
    value_terms, prob_terms = split_where(stmt.where)
    config = catalog.config
    store = catalog.store
    bound = _bind_select_list(binder, stmt)

    scans = [
        choose_scan(catalog, ref, binder, value_terms, prob_terms, read_sets)
        for ref, read_sets in zip(
            stmt.tables,
            _read_sets(catalog, binder, stmt, value_terms, prob_terms, bound.named),
        )
    ]

    # Conjuncts touching only certain attributes run first (cheap Case 1
    # filtering); uncertain conjuncts run last so certain join keys are not
    # needlessly absorbed into merged dependency sets.  A certain conjunct
    # over one table's columns runs in that table's scan, on each record
    # prefix (stored names): rows it rejects are neither decoded nor joined.
    uncertain_attrs = set()
    for scan in scans:
        uncertain_attrs |= set(scan.output_schema.uncertain_attrs)
    certain_preds: List[Predicate] = []
    uncertain_preds: List[Predicate] = []
    scan_preds: List[List[Predicate]] = [[] for _ in scans]
    for term in value_terms:
        pred = convert_predicate(binder, term)
        if pred.attrs() & uncertain_attrs:
            uncertain_preds.append(pred)
            continue
        for ref, scan, preds in zip(stmt.tables, scans, scan_preds):
            if pred.attrs() <= set(scan.output_schema.visible_attrs):
                preds.append(convert_predicate(Binder(catalog, [ref]), term))
                scan.pruner.certain_predicate = _conjoin(preds)
                break
        else:
            certain_preds.append(pred)

    plan = _join_chain(binder, value_terms, scans, certain_preds, store, config)
    probs = []
    for prob in prob_terms:
        inner = None if prob.inner is None else convert_predicate(binder, prob.inner)
        probs.append((inner, prob.op, prob.threshold))
    if uncertain_preds or probs:
        value_pred = _conjoin(uncertain_preds) if uncertain_preds else None
        plan = Filter(plan, value_pred, store, config, probs)

    if bound.specs:
        plan = Aggregate(plan, bound.specs, store, config, bound.group_attrs)
    if bound.below:
        plan = Sort(plan, bound.keys, stmt.order_desc, config, store)
    # ``SELECT *`` in FROM order and an aggregate's own columns need no Project.
    if not (bound.specs or all(item.star for item in stmt.items)) or bound.items != [
        (None, a, a) for a in plan.output_schema.visible_attrs
    ]:
        plan = Project(plan, bound.items, config)
    if stmt.distinct:
        plan = Distinct(plan, store, config)
    if (stmt.order_by or stmt.order_by_prob) and not bound.below:
        plan = Sort(plan, bound.keys, stmt.order_desc, config, store)
    if stmt.limit is not None:
        plan = Limit(plan, stmt.limit, offset=stmt.offset)
    return plan


def _conjoin(preds: List[Predicate]) -> Predicate:
    if not preds:
        return TruePredicate()
    return preds[0] if len(preds) == 1 else And(preds)


def _join_chain(
    binder: Binder,
    value_terms: List[ast.BoolExpr],
    scans: List[SeqScan],
    certain_preds: List[Predicate],
    store,
    config,
) -> Operator:
    """The left-deep chain of :class:`HashJoin` the module docstring's rule
    builds (``scans[0]`` alone for one table); each certain conjunct
    spanning tables filters on the first step that binds all of its
    columns."""
    plan, remaining, pending = scans[0], scans[1:], certain_preds
    while remaining:
        scan, keys = remaining[0], (None, None)
        for candidate in remaining:
            found = _equi_join_keys(
                binder, value_terms, plan.output_schema, candidate.output_schema
            )
            if found is not None:
                scan, keys = candidate, found
                break
        remaining.remove(scan)
        bound = set(plan.output_schema.visible_attrs) | set(scan.output_schema.visible_attrs)
        step = [p for p in pending if p.attrs() <= bound]
        pending = [p for p in pending if not p.attrs() <= bound]
        plan = HashJoin(plan, scan, *keys, _conjoin(step), store, config)
    return plan


def _equi_join_keys(
    binder: Binder,
    value_terms: List[ast.BoolExpr],
    left_schema: ProbabilisticSchema,
    right_schema: ProbabilisticSchema,
) -> Optional[Tuple[str, str]]:
    """Certain equi-join keys (left_attr, right_attr): the first certain
    ``col = col`` conjunct between the two schemas, else ``None``."""
    for term in value_terms:
        if not isinstance(term, ast.CompareExpr) or term.op != "=":
            continue
        if not (
            isinstance(term.left, ast.ColumnExpr)
            and isinstance(term.right, ast.ColumnExpr)
        ):
            continue
        a = binder.resolve(term.left)
        b = binder.resolve(term.right)
        for left_attr, right_attr in ((a, b), (b, a)):
            if (
                left_schema.has_column(left_attr)
                and not left_schema.is_uncertain(left_attr)
                and right_schema.has_column(right_attr)
                and not right_schema.is_uncertain(right_attr)
            ):
                return left_attr, right_attr
    return None


class SelectList(NamedTuple):
    """What :func:`_bind_select_list` bound: the ``Aggregate`` (no specs, no
    node), the ``Project`` items, the ``Sort`` keys (``None``: ``PROB(*)``),
    whether the ``Sort`` runs below the ``Project``, and the FROM columns named."""

    specs: List[AggSpec]
    group_attrs: List[str]
    items: List[tuple]
    keys: Optional[List[str]]
    below: bool
    named: frozenset


def _bind_select_list(binder: Binder, stmt: ast.Select) -> SelectList:
    """Bind the select list, GROUP BY and ORDER BY in one pass, by the
    module docstring's rules."""
    group_attrs = [binder.resolve(c) for c in stmt.group_by]
    grouped = bool(group_attrs) or any(item.aggregate for item in stmt.items)
    if grouped and stmt.distinct:
        raise QueryError("SELECT DISTINCT cannot be combined with aggregates")
    specs: List[AggSpec] = []
    items: List[tuple] = []  # Project's (func, column, name) triples
    named = set(group_attrs)
    for item in stmt.items:
        taken = {a if f is None else n for f, a, n in items}
        if item.star:
            if grouped:
                raise QueryError("SELECT * cannot be combined with aggregates or GROUP BY")
            items += [(None, a, a) for a in binder.all_columns() if a not in taken]
            continue
        if item.aggregate is not None:
            call = item.aggregate
            attr = None if call.column is None else binder.resolve(call.column)
            specs.append(AggSpec(call.func, attr, item.alias, call.method or "auto"))
            items.append((None, specs[-1].output_name, specs[-1].output_name))
        elif item.scalar is not None:
            if grouped:
                raise QueryError(
                    "cannot mix aggregates or GROUP BY with per-row MEAN/VARIANCE/MASS"
                )
            attr = binder.resolve(item.scalar.column)
            name = item.alias or f"{item.scalar.func}_{attr}".replace(".", "_")
            items.append((item.scalar.func, attr, name))
        else:
            attr = binder.resolve(item.column)
            if grouped and attr not in group_attrs:
                raise QueryError(f"column {attr!r} must appear in GROUP BY or an aggregate")
            if attr in taken:
                raise QueryError(f"column {attr!r} selected twice")
            items.append((None, attr, item.alias or attr))
        named.add(attr)
    if group_attrs and not specs:
        raise QueryError("GROUP BY without aggregates; use SELECT DISTINCT")

    keys, inputs = [], []  # per ORDER BY key: its output name (or None), its input
    for key in stmt.order_by:
        item = next((i for i in items if key.qualifier is None and i[2] == key.name), None)
        if item is None:
            attr = binder.resolve(key)
            named.add(attr)
            item = next((i for i in items if i[:2] == (None, attr)), (None, attr, None))
        func, attr, name = item
        keys.append(name)
        inputs.append(None if func else attr)
    below = None in keys
    if below and (stmt.distinct or None in inputs):
        raise QueryError(
            "ORDER BY takes only selected columns under DISTINCT or beside MEAN/VARIANCE/MASS"
        )
    keys = None if stmt.order_by_prob else inputs if below else keys
    return SelectList(specs, group_attrs, items, keys, below, frozenset(named - {None}))
