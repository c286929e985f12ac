"""A scan under a FROM-clause binding equals decode-then-rename.

In a multi-table FROM every stored row is read under the statement's
names (``a.k`` for ``FROM r a``).  Whatever path produces those rows, each
must be field for field what decoding the record under its stored names
and renaming it through ``_TupleRenamer`` gives: certain values (and
their order), pdfs (``==`` and ``fingerprint()``), lineage and tuple id.
The record shapes below cover every branch of the record decoder.
"""

import pytest

from repro import Database
from repro.engine.executor.batch import flatten
from repro.engine.executor.relational import _TupleRenamer
from repro.engine.sql import ast, planner
from repro.engine.sql.parser import parse
from repro.engine.storage.serialize import decode_prefix
from repro.pdf.floors import FlooredPdf
from repro.pdf.joint import JointDiscretePdf, JointGaussianPdf, ProductPdf


def _db():
    db = Database()
    db.execute("CREATE TABLE r (k INT, x REAL UNCERTAIN, tag TEXT)")
    db.execute(
        "INSERT INTO r VALUES (1, DISCRETE(1: 0.3, 2: 0.5), 'a'), "
        "(2, DISCRETE(2: 0.5, 3: 0.5), NULL), (3, DISCRETE(1: 1.0), 'c')"
    )
    db.execute("CREATE TABLE g (k INT, x REAL UNCERTAIN, y REAL UNCERTAIN)")
    db.execute(
        "INSERT INTO g VALUES (1, GAUSSIAN(0, 1), UNIFORM(0, 2)), "
        "(2, GAUSSIAN(3, 2), TRIANGULAR(0, 1, 3)), (3, POISSON(2.5), BINOMIAL(4, 0.5))"
    )
    db.execute(
        "CREATE TABLE jg (k INT, a REAL UNCERTAIN, b REAL UNCERTAIN, DEPENDENCY (a, b))"
    )
    db.execute(
        "INSERT INTO jg VALUES (1, JOINT_GAUSSIAN([0, 1], [[1, 0.5], [0.5, 2]])), "
        "(2, JOINT_GAUSSIAN([2, -1], [[2, 0.1], [0.1, 1]]))"
    )
    db.execute(
        "CREATE TABLE jd (k INT, a REAL UNCERTAIN, b REAL UNCERTAIN, DEPENDENCY (a, b))"
    )
    db.execute(
        "INSERT INTO jd VALUES (1, JOINT_DISCRETE((1, 2): 0.6, (3, 1): 0.4)), "
        "(2, JOINT_DISCRETE((2, 2): 0.5, (3, 1): 0.25))"
    )
    db.execute("CREATE TABLE n (k INT, x REAL UNCERTAIN)")
    db.execute("INSERT INTO n VALUES (1, NULL), (2, GAUSSIAN(1, 1))")
    db.execute("CREATE TABLE fl AS SELECT * FROM g WHERE x > 0.5")
    db.execute("CREATE TABLE pr AS SELECT * FROM g WHERE x > 0.5 AND y < 1.5")
    db.execute("CREATE TABLE cj AS SELECT * FROM r p, jd q WHERE p.k = q.k")
    db.execute("CREATE TABLE sj AS SELECT * FROM r p, r q WHERE p.k = q.k")
    db.execute("CREATE TABLE ph AS SELECT k, a FROM jd")
    return db


#: table -> what its records exercise
SHAPES = {
    "g": "base sets (symbolic families)",
    "n": "a NULL pdf",
    "r": "a partial DISCRETE",
    "fl": "floored pdfs from a CTAS of a selection",
    "pr": "a product of floored pdfs from a selection over two sets",
    "jg": "a JOINT_GAUSSIAN set",
    "jd": "a JOINT_DISCRETE set",
    "cj": "derived lineage from a CTAS of a join",
    "sj": "a CTAS of a self-join: one ancestor under two names",
    "ph": "a phantom attribute",
}


@pytest.fixture(scope="module")
def db():
    return _db()


def _scan_and_reference(db, name, narrow):
    """The rows the planner's scan of ``name`` (bound as ``z``, beside a
    second table) emits, and decode-then-rename of the same records."""
    stmt = parse(f"SELECT * FROM {name} z, r other")
    assert isinstance(stmt, ast.Select)
    ref = stmt.tables[0]
    binder = planner.Binder(db.catalog, stmt.tables)
    table = db.table(name)
    read_sets = None
    if narrow:
        read_sets = frozenset(table.schema.dependency[-1:])
    scan = planner.choose_scan(db.catalog, ref, binder, [], [], read_sets)
    got = list(flatten(scan.batches(2)))
    schema = table.schema
    mapping = {
        a: f"z.{a}" for a in list(schema.visible_attrs) + sorted(schema.phantom_attrs)
    }
    rename = _TupleRenamer(mapping)
    want = [rename(decode_prefix(record).complete(read_sets)) for _rid, record in table.heap.scan()]
    return scan, got, want, mapping


def _assert_same_pdf(got, want):
    if want is None:
        assert got is None
        return
    assert type(got) is type(want)
    assert got.fingerprint() == want.fingerprint()
    assert repr(got) == repr(want)
    if not isinstance(want, ProductPdf):  # a product has no value equality
        assert got == want


@pytest.mark.parametrize("narrow", [False, True], ids=["whole", "read_set"])
@pytest.mark.parametrize("name", sorted(SHAPES), ids=lambda n: f"{n}-{SHAPES[n]}")
def test_scan_under_a_binding_equals_decode_then_rename(db, name, narrow):
    scan, got, want, mapping = _scan_and_reference(db, name, narrow)
    assert len(got) == len(want) > 0
    for g, w in zip(got, want):
        assert g.tuple_id == w.tuple_id
        assert list(g.certain.items()) == list(w.certain.items())
        assert set(g.pdfs) == set(w.pdfs)
        for dep, pdf in w.pdfs.items():
            _assert_same_pdf(g.pdfs[dep], pdf)
        assert g.lineage == w.lineage
    # every name the statement sees is qualified
    assert all(c.name.startswith("z.") for c in scan.output_schema.columns)
    assert set(scan.output_schema.phantom_attrs) <= set(mapping.values())


def test_shapes_hold_what_they_claim(db):
    """The fixture really stores the shapes the test is parametrised over."""

    def pdfs(name):
        return [p for _rid, t in db.table(name).scan() for p in t.pdfs.values()]

    assert None in pdfs("n")
    assert any(p is not None and p.mass() < 1 for p in pdfs("r"))
    assert any(isinstance(p, FlooredPdf) for p in pdfs("fl"))
    assert any(isinstance(p, ProductPdf) for p in pdfs("pr"))
    assert any(isinstance(p, JointGaussianPdf) for p in pdfs("jg"))
    assert any(isinstance(p, JointDiscretePdf) for p in pdfs("jd"))
    assert db.table("ph").schema.phantom_attrs == {"b"}
    (t, *_rest) = [t for _rid, t in db.table("sj").scan()]
    refs = [link.ref for lineage in t.lineage.values() for link in lineage]
    assert len(refs) > len(set(refs))  # one ancestor, linked under two names
    (t, *_rest) = [t for _rid, t in db.table("cj").scan()]
    assert any(
        link.ref.tuple_id != t.tuple_id for lineage in t.lineage.values() for link in lineage
    )
