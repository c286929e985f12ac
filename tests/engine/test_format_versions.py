"""Removed syntax and files of an earlier format are refused, never misread.

The spatial index left the dialect, the snapshot (version 5 -> 6: no
per-table spatial section) and the WAL (version 1 -> 2: a CREATE_INDEX body
is table / kind / one column).  ``ANALYZE`` left it next, with its WAL
record (version 2 -> 3, op 8 retired) and the checkpoint container's list of
analyzed tables (version 1 -> 2).  Heap record format v6 (a name table per
record, a marker for a base pdf's history) moved the snapshot to version 7
and the WAL to version 4, since heap pages and insert bodies are heap
records.  Snapshot version 8 stopped writing a second copy of every base pdf
in its history section.  Each reader must say so with a :class:`ReproError` from its
version check instead of decoding old bytes with the new layout.  A WAL of
version 4 written before materialised rows got fresh ids is still read,
and its rows are moved off their base tuples' ids.
"""

import struct
import zlib

import pytest

from repro.engine.database import Database
from repro.engine.storage.serialize import encode_tuple
from repro.engine.wal import _F_ACQUIRE, OP_DELETE, OP_INSERT, _b_bytes, _b_str
from repro.errors import SerializationError, SqlParseError, WalError


@pytest.mark.parametrize(
    "sql", ["CREATE SPATIAL INDEX ON o (x, y)", "CREATE INDEX ON r (a, b)"]
)
def test_multi_column_index_ddl_is_a_parse_error(sql):
    with pytest.raises(SqlParseError) as err:
        Database().execute(sql)
    assert "SPATIAL indexes" not in str(err.value)


def _set_version(path, offset: int, version: int) -> None:
    """Overwrite the little-endian u32 version field at ``offset``."""
    with open(path, "r+b") as f:
        f.seek(offset)
        f.write(struct.pack("<I", version))


def _durable(path) -> None:
    with Database(path=str(path)) as db:
        db.execute("CREATE TABLE r (rid INT, v REAL UNCERTAIN)")
        db.execute("INSERT INTO r VALUES (1, GAUSSIAN(0, 1))")
        db.checkpoint()
        db.execute("INSERT INTO r VALUES (2, GAUSSIAN(1, 1))")


def test_previous_snapshot_version_refused(tmp_path):
    path = tmp_path / "db.rpdb"
    db = Database()
    db.execute("CREATE TABLE r (rid INT, v REAL UNCERTAIN)")
    db.save(str(path))
    _set_version(path, 4, 5)  # magic, then the version
    with pytest.raises(SerializationError, match="snapshot version 5"):
        Database.open(str(path))


def test_snapshot_version_6_refused(tmp_path):
    """Version 6 pages hold heap record format v5."""
    path = tmp_path / "db.rpdb"
    db = Database()
    db.execute("CREATE TABLE r (rid INT, v REAL UNCERTAIN)")
    db.execute("INSERT INTO r VALUES (1, GAUSSIAN(0, 1))")
    db.save(str(path))
    _set_version(path, 4, 6)
    with pytest.raises(SerializationError, match="snapshot version 6"):
        Database.open(str(path))


def test_snapshot_version_7_refused(tmp_path):
    """Version 7 writes every base pdf a second time, beside its heap record,
    alone or inside a checkpoint."""
    path = tmp_path / "db.rpdb"
    db = Database()
    db.execute("CREATE TABLE r (rid INT, v REAL UNCERTAIN)")
    db.execute("INSERT INTO r VALUES (1, GAUSSIAN(0, 1))")
    db.save(str(path))
    _set_version(path, 4, 7)
    with pytest.raises(SerializationError, match="snapshot version 7"):
        Database.open(str(path))
    _durable(tmp_path / "db")
    ckpt = tmp_path / "db" / "data.ckpt"
    _set_version(ckpt, ckpt.read_bytes().index(b"RPDB") + 4, 7)
    with pytest.raises(SerializationError, match="snapshot version 7"):
        Database(path=str(tmp_path / "db"))


def _rows(result):
    return sorted(
        (sorted(t.certain.items()), sorted((sorted(d), repr(p)) for d, p in t.pdfs.items()))
        for t in result.rows
    )


def test_wal_4_row_under_its_base_tuple_id_replays_under_a_fresh_id(tmp_path):
    """Such a log stored a materialised selection's row under its base
    tuple's id, with flag bit 2.  Replayed as it is, the row would stand in
    for its base in the self-join and count as a base on delete.  A logged
    DELETE still finds it by the logged id."""
    path = str(tmp_path / "db")
    db = Database(path=path)
    db.execute("CREATE TABLE r (k INT, x REAL UNCERTAIN)")
    db.execute("INSERT INTO r VALUES (1, DISCRETE(1: 0.5, 2: 0.5)), (2, DISCRETE(2: 1.0))")
    self_join = "SELECT p.k, q.k, p.x FROM r p, r q WHERE p.x = q.x"
    expected = _rows(db.execute(self_join))
    db.execute("CREATE TABLE hi (k INT, x REAL UNCERTAIN)")
    head = _b_str("hi") + struct.pack("<B", _F_ACQUIRE)
    kept = db.execute("SELECT k, x FROM r WHERE x >= 2").rows  # base tuple ids
    db._wal.commit_txn([(OP_INSERT, head + _b_bytes(encode_tuple(t))) for t in kept])
    db._wal.commit_txn([(OP_DELETE, _b_str("hi") + struct.pack("<q", kept[0].tuple_id))])
    db.close()
    with Database(path=path) as db:
        base_ids = {t.tuple_id for _rid, t in db.table("r").scan()}
        assert base_ids == {t.tuple_id for t in kept}
        (row,) = [t for _rid, t in db.table("hi").scan()]
        assert row.certain == kept[1].certain and row.tuple_id not in base_ids
        assert _rows(db.execute(self_join)) == expected
        db.execute("DELETE FROM r")
        assert db.catalog.store.stats() == {"total": 1, "phantom": 1}
        db.execute("DELETE FROM hi")
        assert len(db.catalog.store) == 0


def test_wal_version_3_refused(tmp_path):
    """Version 3 insert bodies are heap record format v5; the header check
    fires before any of them is decoded, and the file is left as it was."""
    _durable(tmp_path / "db")
    wal = tmp_path / "db" / "wal.log"
    _set_version(wal, 4, 3)
    before = wal.read_bytes()
    with pytest.raises(WalError, match="WAL version 3"):
        Database(path=str(tmp_path / "db"))
    assert wal.read_bytes() == before


def test_previous_wal_version_refused(tmp_path):
    _durable(tmp_path / "db")
    _set_version(tmp_path / "db" / "wal.log", 4, 1)
    with pytest.raises(WalError, match="WAL version 1"):
        Database(path=str(tmp_path / "db"))


def test_wal_version_2_with_an_analyze_record_refused(tmp_path):
    """A version-2 log may hold op 8; the header check fires before any
    record is decoded, and the file is left as it was."""
    _durable(tmp_path / "db")
    wal = tmp_path / "db" / "wal.log"
    body = struct.pack("<BQ", 8, 99) + struct.pack("<I", 1) + b"r"  # ANALYZE r
    commit = struct.pack("<BQ", 2, 99)
    with open(wal, "ab") as f:
        for payload in (body, commit):
            f.write(struct.pack("<II", len(payload), zlib.crc32(payload)) + payload)
    _set_version(wal, 4, 2)
    before = wal.read_bytes()
    with pytest.raises(WalError, match="WAL version 2"):
        Database(path=str(tmp_path / "db"))
    assert wal.read_bytes() == before


def test_checkpoint_version_1_refused(tmp_path):
    """Version 1 kept a list of analyzed tables between the header and the
    snapshot; read with the version-2 layout it would be taken for the
    snapshot's first bytes."""
    _durable(tmp_path / "db")
    ckpt = tmp_path / "db" / "data.ckpt"
    raw = ckpt.read_bytes()
    analyzed = struct.pack("<I", 1) + struct.pack("<I", 1) + b"r"
    ckpt.write_bytes(raw[:16] + analyzed + raw[16:])  # magic, version, LSN
    _set_version(ckpt, 4, 1)
    with pytest.raises(WalError, match="checkpoint version 1"):
        Database(path=str(tmp_path / "db"))


def test_checkpoint_embedding_previous_snapshot_refused(tmp_path):
    _durable(tmp_path / "db")
    ckpt = tmp_path / "db" / "data.ckpt"
    embedded = ckpt.read_bytes().index(b"RPDB")
    _set_version(ckpt, embedded + 4, 6)
    with pytest.raises(SerializationError, match="snapshot version 6"):
        Database(path=str(tmp_path / "db"))
