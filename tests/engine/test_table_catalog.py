"""Table and catalog tests: persistence, indexes, history integration."""

import pytest

from repro.core import Column, DataType, ProbabilisticSchema
from repro.engine.catalog import Catalog
from repro.engine.database import Database
from repro.engine.storage.disk import MemoryDisk
from repro.engine.storage.heapfile import RID
from repro.engine.storage.synopsis import ScanPruner
from repro.errors import CatalogError, QueryError
from repro.pdf import DiscreteAxis, GaussianPdf, JointGaussianPdf, JointGridPdf


def _readings_schema():
    return ProbabilisticSchema(
        [Column("rid", DataType.INT), Column("value", DataType.REAL)], [{"value"}]
    )


def _admitted(table, attr, lo, hi):
    """Every RID the PROB index on ``attr`` admits for ``P(attr in [lo, hi]) > 0``."""
    pruner = ScanPruner(index=(attr, lo, hi, 0.0))
    return [
        RID(page_id, slot)
        for page_id in table.heap.page_ids
        for slot, ok in zip(
            table.synopses[page_id].rows.slots, pruner.admitted(table.synopses[page_id].rows)
        )
        if ok
    ]


@pytest.fixture
def catalog():
    return Catalog(buffer_capacity=16)


@pytest.fixture
def table(catalog):
    t = catalog.create_table("readings", _readings_schema())
    t.insert(certain={"rid": 1}, uncertain={"value": GaussianPdf(20, 5)})
    t.insert(certain={"rid": 2}, uncertain={"value": GaussianPdf(25, 4)})
    t.insert(certain={"rid": 3}, uncertain={"value": GaussianPdf(13, 1)})
    return t


class TestTable:
    def test_insert_scan_roundtrip(self, table):
        rows = list(table.scan())
        assert len(rows) == 3
        _, t = rows[0]
        assert t.certain["rid"] == 1
        assert t.pdf_of_attr("value").params["mean"] == 20.0

    def test_read_by_rid(self, table):
        rid, t0 = next(iter(table.scan()))
        assert table.read(rid).tuple_id == t0.tuple_id

    def test_lineage_persisted(self, table):
        _, t = next(iter(table.scan()))
        (link,) = t.lineage[frozenset({"value"})]
        assert table.store.pdf(link.ref) == t.pdf_of_attr("value")

    def test_lineage_omitted_when_disabled(self):
        catalog = Catalog(store_lineage=False)
        t = catalog.create_table("r", _readings_schema())
        t.insert(certain={"rid": 1}, uncertain={"value": GaussianPdf(0, 1)})
        _, row = next(iter(t.scan()))
        assert row.lineage[frozenset({"value"})] == frozenset()

    def test_delete_phantomizes_history(self, table):
        rid, t = next(iter(table.scan()))
        store = table.store
        # Simulate an outstanding derived reference.
        lineage = t.lineage[frozenset({"value"})]
        store.acquire(lineage)
        table.delete(rid)
        (link,) = lineage
        assert store.is_phantom(link.ref)
        assert len(table) == 2

    def test_btree_index_maintained(self, table):
        tree = table.create_btree_index("rid")
        assert len(tree.search(2)) == 1
        rid4 = table.insert(certain={"rid": 4}, uncertain={"value": GaussianPdf(1, 1)})
        assert tree.search(4) == [rid4]
        table.delete(rid4)
        assert tree.search(4) == []

    def test_btree_on_uncertain_rejected(self, table):
        with pytest.raises(QueryError):
            table.create_btree_index("value")

    def test_pti_index_maintained(self, table):
        table.create_pti_index("value")
        assert len(_admitted(table, "value", -1e9, 1e9)) == 3
        rid4 = table.insert(certain={"rid": 4}, uncertain={"value": GaussianPdf(90, 1)})
        assert _admitted(table, "value", 85, 95) == [rid4]
        table.delete(rid4)
        assert _admitted(table, "value", 85, 95) == []

    def test_pti_on_certain_rejected(self, table):
        with pytest.raises(QueryError):
            table.create_pti_index("rid")

    def test_duplicate_index_rejected(self, table):
        table.create_btree_index("rid")
        with pytest.raises(CatalogError):
            table.create_btree_index("rid")

    def test_joint_attr_pti(self, catalog):
        schema = ProbabilisticSchema(
            [Column("oid", DataType.INT), Column("x"), Column("y")], [{"x", "y"}]
        )
        t = catalog.create_table("objects", schema)
        t.insert(
            certain={"oid": 1},
            uncertain={("x", "y"): JointGaussianPdf(("x", "y"), [5, 5], [[1, 0.5], [0.5, 1]])},
        )
        t.create_pti_index("x")
        assert len(_admitted(t, "x", -1e9, 1e9)) == 1
        assert _admitted(t, "x", 4, 6) != []
        # A joint grid's marginal is no univariate pdf: the index keeps its
        # support hull at every level, so it answers as the unindexed scan.
        answers = []
        for indexed in (False, True):
            db = Database()
            db.execute("CREATE TABLE t (id INT, x REAL, y REAL, DEPENDENCY (x, y))")
            if indexed:
                db.execute("CREATE PROB INDEX ON t (x)")
            axes = [DiscreteAxis("x", [1, 2]), DiscreteAxis("y", [1, 2])]
            grid = JointGridPdf(axes, [[0.25, 0.25], [0.25, 0.25]])
            db.table("t").insert(certain={"id": 1}, uncertain={("x", "y"): grid})
            answers.append([
                [row.certain["id"] for row in db.execute(f"SELECT id FROM t WHERE {where}")]
                for where in ("x > 1.5", "PROB(x > 1.5) >= 0.25")
            ])
        assert answers == [[[1], [1]]] * 2

    def test_stats(self, table):
        stats = table.stats()
        assert stats["rows"] == 3
        assert stats["pages"] >= 1


class TestCatalog:
    def test_create_get_drop(self, catalog):
        catalog.create_table("t", _readings_schema())
        assert catalog.get_table("T") is catalog.get_table("t")  # case-insensitive
        catalog.drop_table("t")
        with pytest.raises(CatalogError):
            catalog.get_table("t")

    def test_duplicate_rejected(self, catalog):
        catalog.create_table("t", _readings_schema())
        with pytest.raises(CatalogError):
            catalog.create_table("T", _readings_schema())

    def test_unknown_table_rejected(self, catalog):
        with pytest.raises(CatalogError):
            catalog.get_table("nope")
        with pytest.raises(CatalogError):
            catalog.drop_table("nope")

    def test_drop_releases_history(self, catalog):
        t = catalog.create_table("t", _readings_schema())
        t.insert(certain={"rid": 1}, uncertain={"value": GaussianPdf(0, 1)})
        _, row = next(iter(t.scan()))
        catalog.create_table("d", _readings_schema()).insert_tuple(row)
        assert len(catalog.store) == 1
        catalog.drop_table("t")
        (link,) = row.lineage[frozenset({"value"})]
        assert catalog.store.is_phantom(link.ref)
        catalog.drop_table("d")
        assert len(catalog.store) == 0

    def test_file_backed_catalog(self):
        disk = MemoryDisk()
        catalog = Catalog(disk=disk, buffer_capacity=2)
        t = catalog.create_table("r", _readings_schema())
        for i in range(300):
            t.insert(certain={"rid": i}, uncertain={"value": GaussianPdf(i, 1)})
        values = sorted(row.certain["rid"] for _, row in t.scan())
        assert values == list(range(300))
        assert disk.counters.reads > 0  # buffer pressure forced real reads
