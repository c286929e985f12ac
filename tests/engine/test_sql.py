"""SQL front-end tests: lexer, parser, and statement shapes."""

import pytest

from repro.engine.database import Database
from repro.engine.sql import ast
from repro.engine.sql.lexer import tokenize
from repro.engine.sql.parser import parse
from repro.errors import InvalidDistributionError, SqlLexError, SqlParseError
from repro.pdf import (
    CategoricalPdf,
    DiscretePdf,
    GaussianPdf,
    HistogramPdf,
    JointDiscretePdf,
    JointGaussianPdf,
    label_code,
)


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("SELECT a FROM t WHERE x >= 1.5")
        kinds = [t.kind for t in tokens]
        assert kinds == ["KEYWORD", "NAME", "KEYWORD", "NAME", "KEYWORD", "NAME", "OP", "NUMBER", "EOF"]

    def test_keywords_case_insensitive(self):
        assert tokenize("select")[0].kind == "KEYWORD"
        assert tokenize("SeLeCt")[0].kind == "KEYWORD"

    def test_string_escaping(self):
        (tok, _) = tokenize("'it''s'")
        assert tok.kind == "STRING" and tok.value == "it's"

    def test_comments_stripped(self):
        tokens = tokenize("SELECT -- comment here\n1")
        assert [t.kind for t in tokens] == ["KEYWORD", "NUMBER", "EOF"]

    def test_scientific_numbers(self):
        assert tokenize("1.5e-3")[0].value == "1.5e-3"

    def test_ne_spellings(self):
        assert tokenize("<>")[0].value == "!="
        assert tokenize("!=")[0].value == "!="

    def test_unknown_char(self):
        with pytest.raises(SqlLexError):
            tokenize("SELECT ¤")


class TestCreateTable:
    def test_basic(self):
        stmt = parse(
            "CREATE TABLE readings (rid INT, value REAL UNCERTAIN)"
        )
        assert isinstance(stmt, ast.CreateTable)
        assert stmt.name == "readings"
        assert stmt.columns[0] == ast.ColumnDef("rid", "int", False)
        assert stmt.columns[1] == ast.ColumnDef("value", "real", True)

    def test_dependency_clause(self):
        stmt = parse(
            "CREATE TABLE objects (oid INT, x REAL, y REAL, DEPENDENCY (x, y))"
        )
        assert stmt.dependencies == [["x", "y"]]

    def test_type_aliases(self):
        stmt = parse("CREATE TABLE t (a INTEGER, b DOUBLE, c VARCHAR, d BOOLEAN)")
        assert [c.dtype for c in stmt.columns] == ["int", "real", "text", "bool"]

    def test_missing_type_rejected(self):
        with pytest.raises(SqlParseError):
            parse("CREATE TABLE t (a)")


class TestInsert:
    def test_simple_values(self):
        stmt = parse("INSERT INTO t VALUES (1, 2.5, 'text', TRUE, NULL)")
        row = stmt.rows[0]
        assert [v.value for v in row] == [1, 2.5, "text", True, None]
        assert isinstance(row[0].value, int)
        assert isinstance(row[1].value, float)

    def test_negative_numbers(self):
        stmt = parse("INSERT INTO t VALUES (-5, -2.5)")
        assert [v.value for v in stmt.rows[0]] == [-5, -2.5]

    def test_named_columns(self):
        stmt = parse("INSERT INTO t (a, b) VALUES (1, 2)")
        assert stmt.columns == ["a", "b"]

    def test_multi_row(self):
        stmt = parse("INSERT INTO t VALUES (1), (2), (3)")
        assert len(stmt.rows) == 3

    def test_gaussian_literal(self):
        stmt = parse("INSERT INTO t VALUES (GAUSSIAN(20, 5))")
        pdf = stmt.rows[0][0].pdf
        assert isinstance(pdf, GaussianPdf)
        assert pdf.params == {"mean": 20.0, "variance": 5.0}

    def test_gaus_alias(self):
        stmt = parse("INSERT INTO t VALUES (GAUS(20, 5))")
        assert isinstance(stmt.rows[0][0].pdf, GaussianPdf)

    def test_discrete_literal(self):
        stmt = parse("INSERT INTO t VALUES (DISCRETE(0: 0.1, 1: 0.9))")
        pdf = stmt.rows[0][0].pdf
        assert isinstance(pdf, DiscretePdf)
        assert float(pdf.pdf_at(1)) == pytest.approx(0.9)

    def test_categorical_literal(self):
        stmt = parse("INSERT INTO t VALUES (CATEGORICAL('cat': 0.7, 'dog': 0.3))")
        pdf = stmt.rows[0][0].pdf
        assert isinstance(pdf, CategoricalPdf)
        assert float(pdf.pdf_at(label_code("cat"))) == pytest.approx(0.7)

    def test_histogram_literal(self):
        stmt = parse("INSERT INTO t VALUES (HISTOGRAM(0, 10, 20 ; 0.4, 0.6))")
        pdf = stmt.rows[0][0].pdf
        assert isinstance(pdf, HistogramPdf)
        assert pdf.num_buckets == 2

    def test_joint_gaussian_literal(self):
        stmt = parse(
            "INSERT INTO t VALUES (JOINT_GAUSSIAN([0, 0], [[1, 0.5], [0.5, 1]]))"
        )
        pdf = stmt.rows[0][0].pdf
        assert isinstance(pdf, JointGaussianPdf)
        assert pdf.cov[0][1] == pytest.approx(0.5)

    def test_joint_discrete_literal(self):
        stmt = parse("INSERT INTO t VALUES (JOINT_DISCRETE((4, 5): 0.9, (2, 3): 0.1))")
        pdf = stmt.rows[0][0].pdf
        assert isinstance(pdf, JointDiscretePdf)
        assert pdf.mass() == pytest.approx(1.0)

    def test_symbolic_discrete_literals(self):
        stmt = parse(
            "INSERT INTO t VALUES (POISSON(4), BINOMIAL(10, 0.3), BERNOULLI(0.5))"
        )
        names = [type(v.pdf).__name__ for v in stmt.rows[0]]
        assert names == ["PoissonPdf", "BinomialPdf", "BernoulliPdf"]

    @pytest.mark.parametrize(
        "literal",
        ["BINOMIAL(2.5, 0.3)", "BINOMIAL(-0.5, 0.3)", "BINOMIAL(1e30, 0.3)", "POISSON(1e300)"],
    )
    def test_bad_symbolic_discrete_literals_rejected(self, literal):
        """A count that is fractional, negative or too large to enumerate is
        refused as written, never truncated, and the table keeps its rows."""
        db = Database()
        db.execute("CREATE TABLE t (id INT, v REAL UNCERTAIN)")
        db.execute("INSERT INTO t VALUES (1, BINOMIAL(4, 0.3))")
        with pytest.raises(InvalidDistributionError):
            db.execute(f"INSERT INTO t VALUES (2, {literal})")
        rows = list(db.execute("SELECT * FROM t"))
        assert [r.certain["id"] for r in rows] == [1]
        assert [repr(r.pdfs[frozenset({"v"})]) for r in rows] == ["BINOMIAL(4, 0.3)@v"]

    def test_wrong_arity_rejected(self):
        with pytest.raises(SqlParseError):
            parse("INSERT INTO t VALUES (GAUSSIAN(20))")


class TestSelect:
    def test_star(self):
        stmt = parse("SELECT * FROM t")
        assert stmt.items[0].star

    def test_columns_and_aliases(self):
        stmt = parse("SELECT a, b AS bee FROM t")
        assert stmt.items[0].column.name == "a"
        assert stmt.items[1].alias == "bee"

    def test_qualified_columns(self):
        stmt = parse("SELECT t1.a FROM t AS t1")
        assert stmt.items[0].column.qualifier == "t1"

    def test_table_aliases(self):
        stmt = parse("SELECT a FROM long_name x, other AS y")
        assert stmt.tables[0].binding == "x"
        assert stmt.tables[1].binding == "y"

    def test_where_precedence(self):
        stmt = parse("SELECT a FROM t WHERE a > 1 AND b < 2 OR c = 3")
        assert isinstance(stmt.where, ast.OrExpr)
        assert isinstance(stmt.where.parts[0], ast.AndExpr)

    def test_parenthesized(self):
        stmt = parse("SELECT a FROM t WHERE a > 1 AND (b < 2 OR c = 3)")
        assert isinstance(stmt.where, ast.AndExpr)

    def test_not(self):
        stmt = parse("SELECT a FROM t WHERE NOT a = 1")
        assert isinstance(stmt.where, ast.NotExpr)

    def test_prob_predicate(self):
        stmt = parse("SELECT a FROM t WHERE PROB(x > 5) >= 0.5")
        assert isinstance(stmt.where, ast.ProbExpr)
        assert stmt.where.threshold == 0.5
        assert stmt.where.op == ">="

    def test_prob_star(self):
        stmt = parse("SELECT a FROM t WHERE PROB(*) > 0.9")
        assert stmt.where.inner is None

    def test_order_limit(self):
        stmt = parse("SELECT a FROM t ORDER BY a DESC LIMIT 10")
        assert stmt.order_desc and stmt.limit == 10

    def test_aggregates(self):
        stmt = parse("SELECT COUNT(*), SUM(v), EXPECTED(v), MIN(v), MAX(v) FROM t")
        funcs = [item.aggregate.func for item in stmt.items]
        assert funcs == ["count", "sum", "expected", "min", "max"]

    def test_sum_method(self):
        stmt = parse("SELECT SUM(v, 'exact') FROM t")
        assert stmt.items[0].aggregate.method == "exact"

    def test_column_vs_column(self):
        stmt = parse("SELECT a FROM t WHERE a < b")
        cmp = stmt.where
        assert isinstance(cmp.right, ast.ColumnExpr)


class TestOtherStatements:
    def test_delete(self):
        stmt = parse("DELETE FROM t WHERE id = 3")
        assert isinstance(stmt, ast.Delete)

    def test_drop(self):
        assert isinstance(parse("DROP TABLE t"), ast.DropTable)

    def test_create_index(self):
        stmt = parse("CREATE INDEX ON t (a)")
        assert isinstance(stmt, ast.CreateIndex) and not stmt.probabilistic

    def test_create_prob_index(self):
        stmt = parse("CREATE PROB INDEX ON t (v)")
        assert stmt.probabilistic

    def test_explain(self):
        stmt = parse("EXPLAIN SELECT * FROM t")
        assert isinstance(stmt, ast.Explain)

    def test_trailing_semicolon_ok(self):
        parse("SELECT * FROM t;")

    def test_trailing_junk_rejected(self):
        with pytest.raises(SqlParseError):
            parse("SELECT * FROM t garbage garbage")

    def test_empty_rejected(self):
        with pytest.raises(SqlParseError):
            parse("")
