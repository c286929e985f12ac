"""The user-facing Database facade: SQL in, probabilistic rows out.

This plays the role PostgreSQL+Orion played for the paper: a complete,
queryable system with uncertainty as a first-class citizen.

::

    db = Database()
    db.execute("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)")
    db.execute("INSERT INTO readings VALUES (1, GAUSSIAN(20, 5))")
    result = db.execute("SELECT rid FROM readings WHERE value > 18 AND value < 22")
    for row in result.to_dicts():
        print(row)
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Union

from ..core.model import (
    DEFAULT_CONFIG,
    ModelConfig,
    ProbabilisticSchema,
    ProbabilisticTuple,
)
from ..core.threshold import probability_of
from ..errors import QueryError, SqlBindError
from ..pdf.base import Pdf
from .catalog import Catalog
from .sql import ast
from .sql.parser import parse
from .sql.planner import (
    Binder,
    build_schema,
    choose_scan,
    convert_predicate,
    execute_plan,
    plan_select,
    split_where,
)
from .storage.disk import MemoryDisk
from .table import Table

__all__ = ["Database", "QueryResult"]


def _enable_counting(op) -> None:
    """EXPLAIN ANALYZE: make every operator of a plan tally the rows it emits."""
    run = op.batches

    def counted(size):
        for batch in run(size):
            op.actual_rows += len(batch)
            yield batch

    op.actual_rows = 0
    op.batches = counted
    for child in op.children():
        _enable_counting(child)


@dataclass
class QueryResult:
    """The outcome of one statement.

    ``rows`` hold full probabilistic tuples; ``columns`` is the visible
    output schema.  :meth:`to_dicts` flattens to plain dictionaries with
    pdf objects for uncertain attributes.
    """

    columns: List[str] = field(default_factory=list)
    rows: List[ProbabilisticTuple] = field(default_factory=list)
    schema: Optional[ProbabilisticSchema] = None
    rowcount: int = 0
    message: str = "OK"
    plan_text: Optional[str] = None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def to_dicts(self) -> List[Dict[str, Union[object, Pdf, None]]]:
        """Rows as dicts: certain values, pdf objects, or None for NULL."""
        if self.schema is None:
            return []
        out = []
        for t in self.rows:
            row: Dict[str, Union[object, Pdf, None]] = {}
            for attr in self.schema.visible_attrs:
                if self.schema.is_uncertain(attr):
                    row[attr] = t.pdf_of_attr(attr)
                else:
                    row[attr] = t.certain.get(attr)
            out.append(row)
        return out

    def scalar(self):
        """The single value of a 1x1 result (certain value or pdf)."""
        if len(self.rows) != 1 or self.schema is None or len(self.columns) != 1:
            raise QueryError(
                f"scalar() needs a 1x1 result, got {len(self.rows)}x{len(self.columns)}"
            )
        return self.to_dicts()[0][self.columns[0]]

    def pretty(self, limit: int = 20) -> str:
        """Fixed-width rendering of the result."""
        if self.schema is None:
            return self.message
        header = list(self.columns)
        cells = [header]
        for t in self.rows[:limit]:
            row = []
            for attr in header:
                if self.schema.is_uncertain(attr):
                    pdf = t.pdf_of_attr(attr)
                    row.append("NULL" if pdf is None else repr(pdf))
                else:
                    value = t.certain.get(attr)
                    row.append("NULL" if value is None else str(value))
            cells.append(row)
        widths = [max(len(r[i]) for r in cells) for i in range(len(header))]
        lines = [" | ".join(h.ljust(w) for h, w in zip(cells[0], widths))]
        lines.append("-+-".join("-" * w for w in widths))
        for row in cells[1:]:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        if len(self.rows) > limit:
            lines.append(f"... ({len(self.rows) - limit} more rows)")
        return "\n".join(lines)


#: statements that mutate state and therefore run inside a transaction
_MUTATING_STATEMENTS = (
    ast.CreateTable,
    ast.CreateTableAs,
    ast.DropTable,
    ast.CreateIndex,
    ast.Insert,
    ast.Delete,
    ast.Update,
)


class Database:
    """A complete probabilistic database instance.

    With ``path`` set, the database is *durable*: the directory holds a
    checkpoint (``data.ckpt``) and a write-ahead log (``wal.log``); opening
    runs crash recovery, every committed statement is logged, and
    ``group_commit`` batches fsyncs (1 = fsync on every commit).  Without
    ``path`` the same transaction machinery runs purely in memory.
    """

    def __init__(
        self,
        disk: Optional[MemoryDisk] = None,
        buffer_capacity: int = 256,
        config: ModelConfig = DEFAULT_CONFIG,
        store_lineage: bool = True,
        path: Optional[str] = None,
        group_commit: int = 1,
        checkpoint_every: Optional[int] = None,
    ):
        self.path = path
        self.checkpoint_every = checkpoint_every
        self._wal = None
        self._commits_since_checkpoint = 0
        if path is None:
            self.catalog = Catalog(
                disk=disk,
                buffer_capacity=buffer_capacity,
                config=config,
                store_lineage=store_lineage,
            )
        else:
            from .wal import open_durable

            # Spill files are scratch state; open_durable sweeps what a
            # crash left in <path>/spill.
            config = replace(config, spill_dir=os.path.join(path, "spill"))
            recovered, wal = open_durable(
                path,
                buffer_capacity=buffer_capacity,
                config=config,
                store_lineage=store_lineage,
                group_commit=group_commit,
            )
            self.catalog = recovered.catalog
            self._wal = wal
            self.catalog.txn.wal = wal

    def __enter__(self) -> "Database":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- convenience accessors -------------------------------------------------

    @property
    def config(self) -> ModelConfig:
        return self.catalog.config

    @property
    def io_counters(self):
        """Physical I/O counters of the underlying disk."""
        return self.catalog.pool.disk.counters

    @property
    def buffer_stats(self):
        return self.catalog.pool.stats

    def reset_io_stats(self) -> None:
        self.catalog.pool.reset_stats()

    def table(self, name: str) -> Table:
        return self.catalog.get_table(name)

    # -- transactions -----------------------------------------------------------

    def begin(self) -> None:
        """Start an explicit transaction (suspends per-statement autocommit)."""
        self.catalog.txn.begin()

    def commit(self) -> None:
        """Commit the explicit transaction (fsynced per the group-commit window)."""
        self.catalog.txn.commit()
        self._after_commit()

    def abort(self) -> None:
        """Roll the explicit transaction back; precise undo restores state."""
        self.catalog.txn.abort()

    rollback = abort

    @contextmanager
    def transaction(self):
        """Run the block as one transaction, unless one is already open.

        Every mutating statement autocommits through this; direct ``Table``
        API callers (bulk loads) use it to make their writes durable.
        """
        txn = self.catalog.txn
        if txn.active:
            yield  # explicit BEGIN ... COMMIT in progress
            return
        txn.begin()
        try:
            yield
        except Exception:
            # InjectedCrash is a BaseException and deliberately skips this
            # handler: a simulated power cut must not run undo.
            txn.abort()
            raise
        txn.commit()
        self._after_commit()

    def _after_commit(self) -> None:
        if self._wal is None or not self.checkpoint_every:
            return
        self._commits_since_checkpoint += 1
        if self._commits_since_checkpoint >= self.checkpoint_every:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Fold the WAL into ``data.ckpt`` and reset the log (durable only;
        refused inside an open transaction, as :meth:`save` is)."""
        from .wal import write_checkpoint

        write_checkpoint(self)
        self._commits_since_checkpoint = 0

    def close(self) -> None:
        """Flush and close the write-ahead log (no-op for in-memory databases)."""
        if self._wal is not None:
            self._wal.close()

    # -- statement execution ------------------------------------------------------

    def execute(self, sql: str) -> QueryResult:
        """Parse, plan, and run one SQL statement.

        Mutating statements autocommit unless an explicit transaction is
        open; on a durable database each commit is WAL-logged before the
        statement is acknowledged.
        """
        stmt = parse(sql)
        if isinstance(stmt, ast.Begin):
            self.begin()
            return QueryResult(message="BEGIN")
        if isinstance(stmt, ast.Commit):
            self.commit()
            return QueryResult(message="COMMIT")
        if isinstance(stmt, ast.Rollback):
            self.abort()
            return QueryResult(message="ROLLBACK")
        if isinstance(stmt, _MUTATING_STATEMENTS):
            with self.transaction():
                return self._run_statement(stmt)
        return self._run_statement(stmt)

    def _run_statement(self, stmt: ast.Statement) -> QueryResult:
        if isinstance(stmt, ast.CreateTable):
            self.catalog.create_table(stmt.name, build_schema(stmt))
            return QueryResult(message=f"CREATE TABLE {stmt.name}")
        if isinstance(stmt, ast.DropTable):
            self.catalog.drop_table(stmt.name)
            return QueryResult(message=f"DROP TABLE {stmt.name}")
        if isinstance(stmt, ast.CreateIndex):
            table = self.catalog.get_table(stmt.table)
            if stmt.kind == "pti":
                table.create_pti_index(stmt.column)
            else:
                table.create_btree_index(stmt.column)
            return QueryResult(message=f"CREATE INDEX ON {stmt.table}({stmt.column})")
        if isinstance(stmt, ast.CreateTableAs):
            count = self._execute_create_as(stmt)
            return QueryResult(
                rowcount=count, message=f"CREATE TABLE {stmt.name} ({count} rows)"
            )
        if isinstance(stmt, ast.Insert):
            count = self._execute_insert(stmt)
            return QueryResult(rowcount=count, message=f"INSERT {count}")
        if isinstance(stmt, ast.Delete):
            count = self._execute_delete(stmt)
            return QueryResult(rowcount=count, message=f"DELETE {count}")
        if isinstance(stmt, ast.Update):
            count = self._execute_update(stmt)
            return QueryResult(rowcount=count, message=f"UPDATE {count}")
        if isinstance(stmt, ast.Explain):
            plan = plan_select(self.catalog, stmt.query)
            if not stmt.analyze:
                return QueryResult(message="EXPLAIN", plan_text=plan.explain())
            _enable_counting(plan)
            execute_plan(plan)
            return QueryResult(message="EXPLAIN ANALYZE", plan_text=plan.explain())
        if isinstance(stmt, ast.Select):
            plan = plan_select(self.catalog, stmt)
            rows = execute_plan(plan)
            schema = plan.output_schema
            return QueryResult(
                columns=list(schema.visible_attrs),
                rows=rows,
                schema=schema,
                rowcount=len(rows),
                message=f"SELECT {len(rows)}",
                plan_text=plan.explain(),
            )
        raise QueryError(f"unsupported statement {type(stmt).__name__}")

    # -- INSERT -----------------------------------------------------------------------

    def _execute_insert(self, stmt: ast.Insert) -> int:
        table = self.catalog.get_table(stmt.table)
        schema = table.schema
        table.insert_many(
            [self._bind_insert_row(schema, stmt.columns, row) for row in stmt.rows]
        )
        return len(stmt.rows)

    def _bind_insert_row(
        self,
        schema: ProbabilisticSchema,
        columns: Optional[List[str]],
        row: Sequence[ast.ValueExpr],
    ):
        """Pair positional/named literals with columns and dependency sets.

        Positional rows walk the declared columns; an uncertain column that
        is the *first* member (in declaration order) of its dependency set
        consumes one pdf literal covering the whole set, and the set's other
        columns consume nothing.
        """
        certain: Dict[str, object] = {}
        uncertain: Dict[object, Optional[Pdf]] = {}

        def dep_columns(dep: frozenset) -> List[str]:
            return [c for c in schema.visible_attrs if c in dep]

        if columns is None:
            consumed: set = set()
            values = list(row)
            for name in schema.visible_attrs:
                if name in consumed:
                    continue
                dep = schema.dependency_set_of(name)
                if not values:
                    raise QueryError(f"INSERT is missing a value for column {name!r}")
                expr = values.pop(0)
                if dep is None:
                    certain[name] = self._certain_value(expr, name)
                else:
                    ordered = dep_columns(dep)
                    consumed.update(ordered)
                    uncertain[tuple(ordered)] = self._pdf_value(expr, name, len(ordered))
            if values:
                raise QueryError(f"INSERT has {len(values)} extra value(s)")
        else:
            if len(columns) != len(row):
                raise QueryError(
                    f"INSERT names {len(columns)} columns but supplies {len(row)} values"
                )
            for name, expr in zip(columns, row):
                if not schema.has_column(name):
                    raise SqlBindError(f"unknown column {name!r}")
                dep = schema.dependency_set_of(name)
                if dep is None:
                    certain[name] = self._certain_value(expr, name)
                else:
                    ordered = dep_columns(dep)
                    if ordered[0] != name:
                        raise QueryError(
                            f"supply the joint pdf for {sorted(dep)} via its first "
                            f"column {ordered[0]!r}"
                        )
                    uncertain[tuple(ordered)] = self._pdf_value(expr, name, len(ordered))
        return certain, uncertain

    def _certain_value(self, expr: ast.ValueExpr, name: str):
        if isinstance(expr, ast.PdfLiteral):
            raise QueryError(
                f"column {name!r} is certain; declare it UNCERTAIN to store a pdf"
            )
        assert isinstance(expr, ast.LiteralExpr)
        return expr.value

    def _pdf_value(self, expr: ast.ValueExpr, name: str, arity: int) -> Optional[Pdf]:
        if isinstance(expr, ast.LiteralExpr):
            if expr.value is None:
                return None
            if isinstance(expr.value, str):
                from ..pdf.discrete import CategoricalPdf

                return CategoricalPdf({expr.value: 1.0})
            if isinstance(expr.value, bool):
                from ..pdf.discrete import DiscretePdf

                return DiscretePdf({1.0 if expr.value else 0.0: 1.0})
            from ..pdf.discrete import DiscretePdf

            return DiscretePdf({float(expr.value): 1.0})
        assert isinstance(expr, ast.PdfLiteral)
        pdf = expr.pdf
        if pdf is not None and pdf.arity != arity:
            raise QueryError(
                f"pdf literal for {name!r} has arity {pdf.arity}, "
                f"but its dependency set has {arity} columns"
            )
        return pdf

    # -- DELETE / UPDATE ----------------------------------------------------------------

    def _matching_rows(self, stmt: Union[ast.Delete, ast.Update]) -> list:
        """The ``(rid, tuple)`` rows a DELETE / UPDATE touches, in RID order.

        They come from the scan a SELECT with the same WHERE would get
        (:func:`choose_scan`), which tests each record prefix against the
        whole predicate and decodes only the records that match.
        """
        verb = "DELETE" if isinstance(stmt, ast.Delete) else "UPDATE"
        table = self.catalog.get_table(stmt.table)
        ref = ast.TableRef(stmt.table)
        binder = Binder(self.catalog, [ref])
        predicate = None
        if stmt.where is not None:
            predicate = convert_predicate(binder, stmt.where)
            for attr in predicate.attrs():
                if table.schema.is_uncertain(attr):
                    raise QueryError(
                        f"{verb} predicates must use certain columns only "
                        f"({attr!r} is uncertain)"
                    )
        scan = choose_scan(self.catalog, ref, binder, *split_where(stmt.where))
        scan.pruner.certain_predicate = predicate
        return sorted(table.scan(scan.pruner), key=itemgetter(0))

    def _execute_delete(self, stmt: ast.Delete) -> int:
        table = self.catalog.get_table(stmt.table)
        doomed = self._matching_rows(stmt)
        for rid, t in doomed:
            table.delete(rid, t)
        return len(doomed)

    def _execute_update(self, stmt: ast.Update) -> int:
        """UPDATE with certain-only predicates.

        Updated tuples are re-inserted as *new base tuples*: an updated pdf
        is fresh evidence, so it becomes its own top-level ancestor, and the
        old pdfs are released (turning phantom if derived data references
        them).  Indexes are maintained through the delete/insert pair.
        """
        table = self.catalog.get_table(stmt.table)
        schema = table.schema
        matches = self._matching_rows(stmt)
        for name, _ in stmt.assignments:
            if not schema.has_column(name):
                raise SqlBindError(f"unknown column {name!r}")

        def dep_columns(dep: frozenset) -> list:
            return [c for c in schema.visible_attrs if c in dep]

        for rid, t in matches:
            certain = {
                k: v for k, v in t.certain.items()
            }
            uncertain: Dict[object, Optional[Pdf]] = {}
            # Carry over untouched pdfs (re-registered as fresh ancestors;
            # see the docstring above for why an UPDATE severs history).
            assigned = {name for name, _ in stmt.assignments}
            for dep, pdf in t.pdfs.items():
                if dep & assigned:
                    continue
                ordered = dep_columns(dep)
                if ordered:
                    uncertain[tuple(ordered)] = pdf
            for name, expr in stmt.assignments:
                dep = schema.dependency_set_of(name)
                if dep is None:
                    certain[name] = self._certain_value(expr, name)
                else:
                    ordered = dep_columns(dep)
                    if ordered[0] != name:
                        raise QueryError(
                            f"assign the joint pdf for {sorted(dep)} via its "
                            f"first column {ordered[0]!r}"
                        )
                    uncertain[tuple(ordered)] = self._pdf_value(
                        expr, name, len(ordered)
                    )
            table.delete(rid, t)
            table.insert(certain=certain, uncertain=uncertain)
        return len(matches)

    # -- CREATE TABLE AS -----------------------------------------------------------------

    def _execute_create_as(self, stmt: ast.CreateTableAs) -> int:
        """Materialise a query result as a stored table.

        Result tuples keep their lineage, so the new table's rows remain
        historically linked to their base data — further queries over the
        materialised table stay PWS-consistent.
        """
        plan = plan_select(self.catalog, stmt.query)
        rows = execute_plan(plan)
        table = self.catalog.create_table(stmt.name, plan.output_schema)
        for t in rows:
            table.insert_tuple(t)
        return len(rows)

    # -- state fingerprinting ----------------------------------------------------------------

    def dump_state(self) -> Dict:
        """A canonical, comparison-stable dump of all logical state.

        Used by the crash-safety suite: a recovered database must dump
        bit-identically to a never-crashed oracle that replayed the same
        committed statements.  Covers certain values, pdf encodings,
        dependency sets, lineage, index definitions, and the history store's
        reference counts and phantoms.  Deliberately excluded: page layout
        (dead slots differ after undo) and the next-tuple-id watermark
        (SELECTs consume ids for transient tuples without logging them).
        """
        from .storage.serialize import encode_pdf

        tables: Dict[str, Dict] = {}
        for key in sorted(self.catalog.tables):
            table = self.catalog.tables[key]
            rows = []
            for _rid, t in table.scan():
                rows.append(
                    {
                        "tuple_id": t.tuple_id,
                        "certain": {k: t.certain[k] for k in sorted(t.certain)},
                        "pdfs": {
                            ",".join(sorted(dep)): (
                                None if pdf is None else encode_pdf(pdf).hex()
                            )
                            for dep, pdf in t.pdfs.items()
                        },
                        "lineage": {
                            ",".join(sorted(dep)): sorted(
                                repr(link) for link in lin
                            )
                            for dep, lin in t.lineage.items()
                        },
                    }
                )
            rows.sort(key=lambda r: r["tuple_id"])
            tables[key] = {
                "columns": [
                    (c.name, c.dtype.value) for c in table.schema.columns
                ],
                "dependencies": sorted(
                    sorted(dep) for dep in table.schema.dependency
                ),
                "rows": rows,
                "btrees": sorted(table.btrees),
                "ptis": sorted(table.ptis),
            }
        store = self.catalog.store
        phantoms = store._phantoms
        history = sorted(
            (
                {
                    "ref": repr(ref),
                    "refcount": refcount,
                    "phantom": encode_pdf(phantoms[ref]).hex() if ref in phantoms else None,
                }
                for ref, refcount in store._refcounts.items()
            ),
            key=lambda e: e["ref"],
        )
        return {"tables": tables, "history": history}

    # -- persistence -----------------------------------------------------------------------

    def save(self, path: str) -> None:
        """Snapshot the whole database (catalog, pages, histories) to a file.

        The file records the last committed LSN (0 without a log), so it
        is also a valid ``data.ckpt`` of this moment; inside an open
        transaction it raises :class:`TransactionError` and writes nothing."""
        from .snapshot import save_database

        save_database(self, path, self._wal.next_lsn - 1 if self._wal else 0)

    @classmethod
    def open(cls, path: str, buffer_capacity: int = 256, config=None) -> "Database":
        """Reopen a database saved with :meth:`save`; B+trees are rebuilt,
        page synopses are built by the first pruned scan of each page."""
        from .snapshot import load_database

        return load_database(path, buffer_capacity=buffer_capacity, config=config)

    # -- probability helper ----------------------------------------------------------------

    def existence_probability(self, t: ProbabilisticTuple) -> float:
        """Pr(tuple exists) against this database's history store."""
        return probability_of(t, self.catalog.store, None, self.config)
