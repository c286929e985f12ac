"""Recursive-descent parser for the SQL dialect.

Grammar sketch (case-insensitive keywords)::

    statement   := create_table | drop_table | create_index
                 | insert | delete | select | EXPLAIN select
    create_table:= CREATE TABLE name '(' column_def (',' column_def)*
                   (',' DEPENDENCY '(' name (',' name)* ')')* ')'
    column_def  := name type [UNCERTAIN]
    create_index:= CREATE [PROB] INDEX ON name '(' name ')'
    insert      := INSERT INTO name ['(' names ')'] VALUES row (',' row)*
    row         := '(' value (',' value)* ')'
    value       := literal | pdf_literal | NULL
    select      := SELECT items FROM table_ref (',' table_ref)*
                   [WHERE bool] [ORDER BY cols [ASC|DESC]] [LIMIT n]
    bool        := and_expr (OR and_expr)*
    and_expr    := not_expr (AND not_expr)*
    not_expr    := NOT not_expr | primary
    primary     := '(' bool ')' | comparison
                 | PROB '(' bool | '*' ')' cmp number
    comparison  := operand cmp operand

Distribution literals::

    GAUSSIAN(20, 5)   UNIFORM(0, 10)   TRIANGULAR(0, 1, 2)
    BERNOULLI(0.5)    BINOMIAL(10, 0.3)  POISSON(4)       GEOMETRIC(0.2)
    DISCRETE(0: 0.1, 1: 0.9)           CATEGORICAL('cat': 0.7, 'dog': 0.3)
    HISTOGRAM(0, 10, 20 ; 0.4, 0.6)
    JOINT_GAUSSIAN([0, 0], [[1, 0.5], [0.5, 1]])
    JOINT_DISCRETE((4, 5): 0.9, (2, 3): 0.1)
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ...errors import SqlParseError
from ...pdf import (
    BernoulliPdf,
    BinomialPdf,
    CategoricalPdf,
    DiscretePdf,
    GaussianPdf,
    GeometricPdf,
    HistogramPdf,
    JointDiscretePdf,
    JointGaussianPdf,
    PoissonPdf,
    TriangularPdf,
    UniformPdf,
)
from . import ast
from .lexer import Token, tokenize

__all__ = ["parse"]

_TYPE_MAP = {
    "INT": "int",
    "INTEGER": "int",
    "REAL": "real",
    "FLOAT": "real",
    "DOUBLE": "real",
    "BOOL": "bool",
    "BOOLEAN": "bool",
    "TEXT": "text",
    "VARCHAR": "text",
}

_SIMPLE_PDFS: Dict[str, Tuple[type, int]] = {
    "GAUSSIAN": (GaussianPdf, 2),
    "GAUS": (GaussianPdf, 2),
    "UNIFORM": (UniformPdf, 2),
    "TRIANGULAR": (TriangularPdf, 3),
    "BERNOULLI": (BernoulliPdf, 1),
    "BINOMIAL": (BinomialPdf, 2),
    "POISSON": (PoissonPdf, 1),
    "GEOMETRIC": (GeometricPdf, 1),
}

_AGG_FUNCS = {"COUNT", "SUM", "EXPECTED", "MIN", "MAX"}
_SCALAR_FUNCS = {"MEAN", "VARIANCE", "MASS"}


class _Parser:
    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.index = 0

    # -- token plumbing ------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.index + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.peek()
        if token.kind != "EOF":
            self.index += 1
        return token

    def error(self, message: str) -> SqlParseError:
        token = self.peek()
        return SqlParseError(f"{message} (near {token.value!r})", token.position)

    def accept(self, kind: str, value: str = "") -> Optional[Token]:
        if self.peek().matches(kind, value):
            return self.advance()
        return None

    def expect(self, kind: str, value: str = "") -> Token:
        token = self.accept(kind, value)
        if token is None:
            expected = value or kind
            raise self.error(f"expected {expected}")
        return token

    def accept_keyword(self, *words: str) -> Optional[Token]:
        for word in words:
            if self.peek().matches("KEYWORD", word):
                return self.advance()
        return None

    def expect_keyword(self, word: str) -> Token:
        token = self.accept_keyword(word)
        if token is None:
            raise self.error(f"expected {word}")
        return token

    def expect_name(self) -> str:
        token = self.peek()
        if token.kind == "NAME":
            return self.advance().value
        raise self.error("expected identifier")

    def parse_number(self) -> float:
        sign = 1.0
        if self.accept("PUNCT", "-"):
            sign = -1.0
        elif self.accept("PUNCT", "+"):
            pass
        token = self.expect("NUMBER")
        return sign * float(token.value)

    def parse_int(self, what: str) -> int:
        """A number coerced to int; rejects non-finite lexemes like 1e999."""
        value = self.parse_number()
        if not math.isfinite(value):
            raise self.error(f"{what} must be a finite integer")
        return int(value)

    # -- entry ------------------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        if self.accept_keyword("BEGIN"):
            self.accept_keyword("TRANSACTION")
            return ast.Begin()
        if self.accept_keyword("COMMIT"):
            return ast.Commit()
        if self.accept_keyword("ROLLBACK"):
            return ast.Rollback()
        if self.accept_keyword("EXPLAIN"):
            analyze = self.accept_keyword("ANALYZE") is not None
            return ast.Explain(self.parse_select(), analyze=analyze)
        if self.peek().matches("KEYWORD", "CREATE"):
            return self.parse_create()
        if self.peek().matches("KEYWORD", "DROP"):
            self.advance()
            self.expect_keyword("TABLE")
            return ast.DropTable(self.expect_name())
        if self.peek().matches("KEYWORD", "INSERT"):
            return self.parse_insert()
        if self.peek().matches("KEYWORD", "DELETE"):
            return self.parse_delete()
        if self.peek().matches("KEYWORD", "UPDATE"):
            return self.parse_update()
        if self.peek().matches("KEYWORD", "SELECT"):
            return self.parse_select()
        raise self.error("expected a statement")

    def parse(self) -> ast.Statement:
        statement = self.parse_statement()
        self.accept("PUNCT", ";")
        if self.peek().kind != "EOF":
            raise self.error("trailing input after statement")
        return statement

    # -- DDL ---------------------------------------------------------------------

    def parse_create(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        if self.accept_keyword("TABLE"):
            # CREATE TABLE name AS SELECT ... | CREATE TABLE name (...)
            name = self.expect_name()
            if self.accept_keyword("AS"):
                return ast.CreateTableAs(name, self.parse_select())
            return self.parse_create_table_body(name)
        kind = "pti" if self.accept_keyword("PROB") else "btree"
        self.expect_keyword("INDEX")
        self.expect_keyword("ON")
        table = self.expect_name()
        self.expect("PUNCT", "(")
        column = self.expect_name()
        self.expect("PUNCT", ")")
        return ast.CreateIndex(table, column, kind)

    def parse_create_table_body(self, name: str) -> ast.CreateTable:
        self.expect("PUNCT", "(")
        columns: List[ast.ColumnDef] = []
        dependencies: List[List[str]] = []
        while True:
            if self.accept_keyword("DEPENDENCY"):
                self.expect("PUNCT", "(")
                group = [self.expect_name()]
                while self.accept("PUNCT", ","):
                    group.append(self.expect_name())
                self.expect("PUNCT", ")")
                dependencies.append(group)
            else:
                col_name = self.expect_name()
                type_token = self.peek()
                if type_token.kind != "KEYWORD" or type_token.value.upper() not in _TYPE_MAP:
                    raise self.error("expected a column type")
                self.advance()
                dtype = _TYPE_MAP[type_token.value.upper()]
                uncertain = bool(self.accept_keyword("UNCERTAIN"))
                columns.append(ast.ColumnDef(col_name, dtype, uncertain))
            if not self.accept("PUNCT", ","):
                break
        self.expect("PUNCT", ")")
        return ast.CreateTable(name, columns, dependencies)

    # -- DML -----------------------------------------------------------------------

    def parse_insert(self) -> ast.Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_name()
        columns: Optional[List[str]] = None
        if self.accept("PUNCT", "("):
            columns = [self.expect_name()]
            while self.accept("PUNCT", ","):
                columns.append(self.expect_name())
            self.expect("PUNCT", ")")
        self.expect_keyword("VALUES")
        rows = [self.parse_value_row()]
        while self.accept("PUNCT", ","):
            rows.append(self.parse_value_row())
        return ast.Insert(table, columns, rows)

    def parse_value_row(self) -> List[ast.ValueExpr]:
        self.expect("PUNCT", "(")
        values = [self.parse_insert_value()]
        while self.accept("PUNCT", ","):
            values.append(self.parse_insert_value())
        self.expect("PUNCT", ")")
        return values

    def parse_insert_value(self) -> ast.ValueExpr:
        token = self.peek()
        if token.kind == "KEYWORD" and token.value.upper() == "NULL":
            self.advance()
            return ast.LiteralExpr(None)
        if token.kind == "KEYWORD" and token.value.upper() in ("TRUE", "FALSE"):
            self.advance()
            return ast.LiteralExpr(token.value.upper() == "TRUE")
        if token.kind == "STRING":
            self.advance()
            return ast.LiteralExpr(token.value)
        if token.kind == "NAME" and token.value.upper() in _SIMPLE_PDFS or (
            token.kind == "NAME"
            and token.value.upper()
            in ("DISCRETE", "CATEGORICAL", "HISTOGRAM", "JOINT_GAUSSIAN", "JOINT_DISCRETE")
        ):
            return self.parse_pdf_literal()
        value = self.parse_number()
        # Check the lexeme before int(value): ``1e999`` parses to inf, and
        # int(inf) raises OverflowError.
        if "." not in token.value and "e" not in token.value.lower() and value == int(value):
            return ast.LiteralExpr(int(value))
        return ast.LiteralExpr(value)

    def parse_pdf_literal(self) -> ast.PdfLiteral:
        start = self.peek().position
        name = self.expect_name().upper()
        self.expect("PUNCT", "(")
        if name in _SIMPLE_PDFS:
            cls, arity = _SIMPLE_PDFS[name]
            args = [self.parse_number()]
            while self.accept("PUNCT", ","):
                args.append(self.parse_number())
            if len(args) != arity:
                raise self.error(f"{name} takes {arity} parameters, got {len(args)}")
            pdf = cls(*args)
        elif name == "DISCRETE":
            pairs = {}
            while True:
                value = self.parse_number()
                if value in pairs:
                    raise self.error(f"DISCRETE repeats the value {value:g}")
                self.expect("PUNCT", ":")
                pairs[value] = self.parse_number()
                if not self.accept("PUNCT", ","):
                    break
            pdf = DiscretePdf(pairs)
        elif name == "CATEGORICAL":
            label_pairs = {}
            while True:
                label = self.expect("STRING").value
                if label in label_pairs:
                    raise self.error(f"CATEGORICAL repeats the label {label!r}")
                self.expect("PUNCT", ":")
                label_pairs[label] = self.parse_number()
                if not self.accept("PUNCT", ","):
                    break
            pdf = CategoricalPdf(label_pairs)
        elif name == "HISTOGRAM":
            edges = [self.parse_number()]
            while self.accept("PUNCT", ","):
                edges.append(self.parse_number())
            self.expect("PUNCT", ";")
            masses = [self.parse_number()]
            while self.accept("PUNCT", ","):
                masses.append(self.parse_number())
            pdf = HistogramPdf(edges, masses)
        elif name == "JOINT_GAUSSIAN":
            mean = self.parse_bracket_list()
            self.expect("PUNCT", ",")
            self.expect("PUNCT", "[")
            rows = [self.parse_bracket_list()]
            while self.accept("PUNCT", ","):
                rows.append(self.parse_bracket_list())
            self.expect("PUNCT", "]")
            # scipy's multivariate_normal raises a bare ValueError on
            # non-finite parameters (e.g. a 1e999 literal); reject here so
            # any malformed SQL still surfaces as a parse error.
            if not all(math.isfinite(v) for v in mean) or not all(
                math.isfinite(v) for row in rows for v in row
            ):
                raise self.error(f"{name} parameters must be finite")
            attrs = [f"x{i}" for i in range(len(mean))]
            pdf = JointGaussianPdf(attrs, mean, rows)
        elif name == "JOINT_DISCRETE":
            table = {}
            width = None
            while True:
                self.expect("PUNCT", "(")
                key = [self.parse_number()]
                while self.accept("PUNCT", ","):
                    key.append(self.parse_number())
                self.expect("PUNCT", ")")
                if tuple(key) in table:
                    shown = ", ".join(f"{v:g}" for v in key)
                    raise self.error(f"JOINT_DISCRETE repeats the key ({shown})")
                self.expect("PUNCT", ":")
                prob = self.parse_number()
                if width is None:
                    width = len(key)
                elif len(key) != width:
                    raise self.error("JOINT_DISCRETE keys must have equal arity")
                table[tuple(key)] = prob
                if not self.accept("PUNCT", ","):
                    break
            attrs = [f"x{i}" for i in range(width or 1)]
            pdf = JointDiscretePdf(attrs, table)
        else:  # pragma: no cover - guarded by caller
            raise self.error(f"unknown distribution {name}")
        self.expect("PUNCT", ")")
        return ast.PdfLiteral(pdf, source=self.sql[start : self.peek().position])

    def parse_bracket_list(self) -> List[float]:
        self.expect("PUNCT", "[")
        values = [self.parse_number()]
        while self.accept("PUNCT", ","):
            values.append(self.parse_number())
        self.expect("PUNCT", "]")
        return values

    def parse_delete(self) -> ast.Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_name()
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_bool()
        return ast.Delete(table, where)

    def parse_update(self) -> ast.Update:
        self.expect_keyword("UPDATE")
        table = self.expect_name()
        self.expect_keyword("SET")
        assignments = [self.parse_assignment()]
        while self.accept("PUNCT", ","):
            assignments.append(self.parse_assignment())
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_bool()
        return ast.Update(table, assignments, where)

    def parse_assignment(self):
        column = self.expect_name()
        self.expect("OP", "=")
        return (column, self.parse_insert_value())

    # -- SELECT ------------------------------------------------------------------------

    def parse_select(self) -> ast.Select:
        self.expect_keyword("SELECT")
        distinct = bool(self.accept_keyword("DISTINCT"))
        items = [self.parse_select_item()]
        while self.accept("PUNCT", ","):
            items.append(self.parse_select_item())
        self.expect_keyword("FROM")
        tables = [self.parse_table_ref()]
        while self.accept("PUNCT", ","):
            tables.append(self.parse_table_ref())
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_bool()
        group_by: List[ast.ColumnExpr] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_column_ref())
            while self.accept("PUNCT", ","):
                group_by.append(self.parse_column_ref())
        order_by: List[ast.ColumnExpr] = []
        order_desc = False
        order_by_prob = False
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            if self.accept_keyword("PROB"):
                self.expect("PUNCT", "(")
                self.expect("PUNCT", "*")
                self.expect("PUNCT", ")")
                order_by_prob = True
            else:
                order_by.append(self.parse_column_ref())
                while self.accept("PUNCT", ","):
                    order_by.append(self.parse_column_ref())
            if self.accept_keyword("DESC"):
                order_desc = True
            else:
                self.accept_keyword("ASC")
        limit = None
        offset = 0
        if self.accept_keyword("LIMIT"):
            limit = self.parse_int("LIMIT")
            if self.accept_keyword("OFFSET"):
                offset = self.parse_int("OFFSET")
        return ast.Select(
            items,
            tables,
            where=where,
            group_by=group_by,
            order_by=order_by,
            order_desc=order_desc,
            order_by_prob=order_by_prob,
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def parse_select_item(self) -> ast.SelectItem:
        if self.accept("PUNCT", "*"):
            return ast.SelectItem(star=True)
        token = self.peek()
        if token.kind == "KEYWORD" and token.value.upper() in _AGG_FUNCS:
            item = ast.SelectItem(aggregate=self.parse_aggregate())
        elif token.kind == "KEYWORD" and token.value.upper() in _SCALAR_FUNCS:
            func = self.advance().value.lower()
            self.expect("PUNCT", "(")
            item = ast.SelectItem(scalar=ast.ScalarCall(func, self.parse_column_ref()))
            self.expect("PUNCT", ")")
        else:
            item = ast.SelectItem(column=self.parse_column_ref())
        if self.accept_keyword("AS"):
            item.alias = self.expect_name()
        return item

    def parse_aggregate(self) -> ast.AggregateCall:
        func = self.advance().value.lower()
        self.expect("PUNCT", "(")
        if func == "count":
            self.expect("PUNCT", "*")
            self.expect("PUNCT", ")")
            return ast.AggregateCall("count", None)
        column = self.parse_column_ref()
        method = None
        if self.accept("PUNCT", ","):
            method = self.expect("STRING").value
        self.expect("PUNCT", ")")
        return ast.AggregateCall(func, column, method)

    def parse_table_ref(self) -> ast.TableRef:
        name = self.expect_name()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_name()
        elif self.peek().kind == "NAME":
            alias = self.advance().value
        return ast.TableRef(name, alias)

    def parse_column_ref(self) -> ast.ColumnExpr:
        first = self.expect_name()
        if self.accept("PUNCT", "."):
            return ast.ColumnExpr(self.expect_name(), qualifier=first)
        return ast.ColumnExpr(first)

    # -- boolean expressions ----------------------------------------------------------------

    def parse_bool(self) -> ast.BoolExpr:
        parts = [self.parse_and()]
        while self.accept_keyword("OR"):
            parts.append(self.parse_and())
        return parts[0] if len(parts) == 1 else ast.OrExpr(parts)

    def parse_and(self) -> ast.BoolExpr:
        parts = [self.parse_not()]
        while self.accept_keyword("AND"):
            parts.append(self.parse_not())
        return parts[0] if len(parts) == 1 else ast.AndExpr(parts)

    def parse_not(self) -> ast.BoolExpr:
        if self.accept_keyword("NOT"):
            return ast.NotExpr(self.parse_not())
        return self.parse_primary_bool()

    def parse_primary_bool(self) -> ast.BoolExpr:
        if self.accept_keyword("PROB"):
            self.expect("PUNCT", "(")
            if self.accept("PUNCT", "*"):
                inner: Optional[ast.BoolExpr] = None
            else:
                inner = self.parse_bool()
            self.expect("PUNCT", ")")
            op = self.expect("OP").value
            threshold = self.parse_number()
            return ast.ProbExpr(inner, op, threshold)
        if self.accept("PUNCT", "("):
            expr = self.parse_bool()
            self.expect("PUNCT", ")")
            return expr
        return self.parse_comparison()

    def parse_comparison(self) -> ast.BoolExpr:
        left = self.parse_operand()
        if self.accept_keyword("IS"):
            negated = bool(self.accept_keyword("NOT"))
            self.expect_keyword("NULL")
            if not isinstance(left, ast.ColumnExpr):
                raise self.error("IS NULL applies to a column")
            return ast.IsNullExpr(left, negated)
        if self.accept_keyword("BETWEEN"):
            lo = self.parse_operand()
            self.expect_keyword("AND")
            hi = self.parse_operand()
            return ast.AndExpr(
                [ast.CompareExpr(left, ">=", lo), ast.CompareExpr(left, "<=", hi)]
            )
        if self.accept_keyword("IN"):
            self.expect("PUNCT", "(")
            options = [self.parse_operand()]
            while self.accept("PUNCT", ","):
                options.append(self.parse_operand())
            self.expect("PUNCT", ")")
            parts = [ast.CompareExpr(left, "=", opt) for opt in options]
            return parts[0] if len(parts) == 1 else ast.OrExpr(parts)
        op = self.expect("OP").value
        right = self.parse_operand()
        return ast.CompareExpr(left, op, right)

    def parse_operand(self) -> ast.ValueExpr:
        token = self.peek()
        if token.kind == "NAME":
            return self.parse_column_ref()
        if token.kind == "STRING":
            self.advance()
            return ast.LiteralExpr(token.value)
        if token.kind == "KEYWORD" and token.value.upper() in ("TRUE", "FALSE"):
            self.advance()
            return ast.LiteralExpr(token.value.upper() == "TRUE")
        return ast.LiteralExpr(self.parse_number())


def parse(sql: str) -> ast.Statement:
    """Parse one SQL statement into its AST."""
    return _Parser(sql).parse()
