"""AST node definitions for the SQL dialect.

The dialect is classic SQL plus the uncertainty extensions the paper's
Orion prototype added to PostgreSQL:

* ``UNCERTAIN`` column modifier and table-level ``DEPENDENCY (a, b)``
  clauses declaring joint dependency sets,
* distribution literals in ``INSERT`` (``GAUSSIAN(20, 5)``,
  ``DISCRETE(0:0.1, 1:0.9)``, ``HISTOGRAM(0,10,20 ; 0.3,0.7)``, ...),
* ``PROB(<predicate>) >= p`` threshold conditions in ``WHERE``,
* distribution-valued aggregates (``SUM``, ``MIN``, ``MAX``, ``COUNT``)
  and ``EXPECTED(col)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

from ...pdf.base import Pdf

__all__ = [
    "Statement",
    "ColumnDef",
    "CreateTable",
    "CreateTableAs",
    "DropTable",
    "CreateIndex",
    "Insert",
    "Delete",
    "Update",
    "Select",
    "Explain",
    "Begin",
    "Commit",
    "Rollback",
    "TableRef",
    "ColumnExpr",
    "LiteralExpr",
    "PdfLiteral",
    "CompareExpr",
    "IsNullExpr",
    "ProbExpr",
    "AndExpr",
    "OrExpr",
    "NotExpr",
    "SelectItem",
    "AggregateCall",
    "ScalarCall",
    "BoolExpr",
    "ValueExpr",
]


class Statement:
    """Base class of parsed statements."""


# -- DDL -------------------------------------------------------------------


@dataclass
class ColumnDef:
    name: str
    dtype: str  # "int" | "real" | "bool" | "text"
    uncertain: bool = False


@dataclass
class CreateTable(Statement):
    name: str
    columns: List[ColumnDef]
    dependencies: List[List[str]] = field(default_factory=list)


@dataclass
class DropTable(Statement):
    name: str


@dataclass
class CreateIndex(Statement):
    table: str
    column: str
    kind: str = "btree"  # btree | pti


# -- expressions -----------------------------------------------------------------


class ValueExpr:
    """Base of scalar expressions (column refs and literals)."""


@dataclass
class ColumnExpr(ValueExpr):
    name: str
    qualifier: Optional[str] = None

    @property
    def display(self) -> str:
        return f"{self.qualifier}.{self.name}" if self.qualifier else self.name


@dataclass
class LiteralExpr(ValueExpr):
    value: Union[int, float, str, bool, None]


@dataclass
class PdfLiteral(ValueExpr):
    """A distribution literal, already constructed as a Pdf."""

    pdf: Optional[Pdf]  # None encodes the NULL pdf
    source: str = ""


class BoolExpr:
    """Base of boolean (WHERE) expressions."""


@dataclass
class CompareExpr(BoolExpr):
    left: ValueExpr
    op: str
    right: ValueExpr


@dataclass
class IsNullExpr(BoolExpr):
    column: ColumnExpr
    negated: bool = False


@dataclass
class ProbExpr(BoolExpr):
    """``PROB(<inner predicate>) op threshold``.

    ``inner=None`` encodes ``PROB(*)`` — the tuple existence probability.
    """

    inner: Optional[BoolExpr]
    op: str
    threshold: float


@dataclass
class AndExpr(BoolExpr):
    parts: List[BoolExpr]


@dataclass
class OrExpr(BoolExpr):
    parts: List[BoolExpr]


@dataclass
class NotExpr(BoolExpr):
    inner: BoolExpr


# -- queries -----------------------------------------------------------------------


@dataclass
class TableRef:
    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass
class AggregateCall:
    func: str  # count | sum | expected | min | max
    column: Optional[ColumnExpr]  # None for COUNT(*)
    method: Optional[str] = None  # SUM(col, 'exact') etc.
    alias: Optional[str] = None


@dataclass
class ScalarCall:
    """A per-row scalarisation of a pdf column: MEAN / VARIANCE / MASS."""

    func: str  # mean | variance | mass
    column: ColumnExpr
    alias: Optional[str] = None


@dataclass
class SelectItem:
    """A column, ``*``, an aggregate call, or a per-row scalar call."""

    star: bool = False
    column: Optional[ColumnExpr] = None
    aggregate: Optional[AggregateCall] = None
    scalar: Optional[ScalarCall] = None
    alias: Optional[str] = None


@dataclass
class Select(Statement):
    items: List[SelectItem]
    tables: List[TableRef]
    where: Optional[BoolExpr] = None
    group_by: List[ColumnExpr] = field(default_factory=list)
    order_by: List[ColumnExpr] = field(default_factory=list)
    order_desc: bool = False
    #: ORDER BY PROB(*): rank tuples by existence probability (top-k).
    order_by_prob: bool = False
    limit: Optional[int] = None
    offset: int = 0
    distinct: bool = False


@dataclass
class Explain(Statement):
    query: Select
    #: EXPLAIN ANALYZE: run the query and annotate actual row counts
    analyze: bool = False


# -- DML -----------------------------------------------------------------------------


@dataclass
class Insert(Statement):
    table: str
    columns: Optional[List[str]]  # None = positional
    rows: List[List[ValueExpr]] = field(default_factory=list)


@dataclass
class Delete(Statement):
    table: str
    where: Optional[BoolExpr] = None


@dataclass
class Update(Statement):
    table: str
    assignments: List[Tuple[str, ValueExpr]]
    where: Optional[BoolExpr] = None


@dataclass
class CreateTableAs(Statement):
    name: str
    query: "Select"


# -- transactions ---------------------------------------------------------------------


@dataclass
class Begin(Statement):
    """BEGIN [TRANSACTION]: suspend autocommit until COMMIT/ROLLBACK."""


@dataclass
class Commit(Statement):
    """COMMIT: make the open transaction durable."""


@dataclass
class Rollback(Statement):
    """ROLLBACK: undo the open transaction."""
