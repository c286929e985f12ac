"""Removed syntax and files of an earlier format are refused, never misread.

The spatial index left the dialect, the snapshot (version 5 -> 6: no
per-table spatial section) and the WAL (version 1 -> 2: a CREATE_INDEX body
is table / kind / one column).  ``ANALYZE`` left it next, with its WAL
record (version 2 -> 3, op 8 retired) and the checkpoint container's list of
analyzed tables (version 1 -> 2).  Heap record format v6 (a name table per
record, a marker for a base pdf's history) moved the snapshot to version 7
and the WAL to version 4, since heap pages and insert bodies are heap
records.  Snapshot version 8 stopped writing a second copy of every base pdf
in its history section.  Snapshot version 9 records the LSN its state
covers, and ``data.ckpt`` became a snapshot: the ``RPCK`` container that
wrapped one is gone.  Snapshot version 10 stores each table's partial
sets, since an open no longer decodes the records to rebuild them.  Each reader must say so with a :class:`ReproError` from its
version check instead of decoding old bytes with the new layout.  A WAL of
version 4 written before materialised rows got fresh ids may hold a derived
row under its base tuple's id (insert flag bit 2); it is refused too.
"""

import struct
import zlib

import pytest

from repro.engine.database import Database
from repro.engine.snapshot import pack_bytes, pack_str
from repro.engine.storage.serialize import encode_tuple
from repro.engine.wal import _F_ACQUIRE, OP_INSERT
from repro.errors import ReproError, SerializationError, SqlParseError, WalError


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


def test_wal_4_row_under_its_base_tuple_id_refused(tmp_path):
    """Such a log stored a materialised selection's row under its base
    tuple's id, with flag bit 2.  Replayed as it is, the row would stand in
    for its base in a self-join and count as a base on delete; the scan
    refuses it by name before any record is applied, and leaves the log as
    it was."""
    path = str(tmp_path / "db")
    db = Database(path=path)
    db.execute("CREATE TABLE r (k INT, x REAL UNCERTAIN)")
    db.execute("INSERT INTO r VALUES (1, DISCRETE(1: 0.5, 2: 0.5)), (2, DISCRETE(2: 1.0))")
    db.execute("CREATE TABLE hi (k INT, x REAL UNCERTAIN)")
    head = pack_str("hi") + struct.pack("<B", _F_ACQUIRE)
    kept = db.execute("SELECT k, x FROM r WHERE x >= 2").rows  # base tuple ids
    db._wal.commit_txn([(OP_INSERT, head + pack_bytes(encode_tuple(t))) for t in kept])
    db.close()
    wal = tmp_path / "db" / "wal.log"
    before = wal.read_bytes()
    with pytest.raises(WalError, match="retired flag bit 2"):
        Database(path=path)
    assert wal.read_bytes() == before


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


def test_checkpoint_in_the_old_container_refused(tmp_path):
    """Up to snapshot version 8, ``data.ckpt`` was an ``RPCK`` container
    (magic, version, LSN) around a snapshot; the snapshot reader refuses it
    by its magic, and the file is left as it was."""
    _durable(tmp_path / "db")
    ckpt = tmp_path / "db" / "data.ckpt"
    raw = ckpt.read_bytes()  # magic, version, LSN, then the body
    old = b"RPCK" + struct.pack("<I", 2) + raw[8:16] + b"RPDB" + struct.pack("<I", 8) + raw[16:]
    ckpt.write_bytes(old)
    with pytest.raises(ReproError, match="not a repro database snapshot"):
        Database(path=str(tmp_path / "db"))
    assert ckpt.read_bytes() == old


def test_snapshot_version_9_refused(tmp_path):
    """Version 9 stores no partial sets, which an open no longer rebuilds
    from the records; the version check refuses the file as it is, alone
    or as a checkpoint."""
    path = tmp_path / "db.rpdb"
    db = Database()
    db.execute("CREATE TABLE r (rid INT, v REAL UNCERTAIN)")
    db.execute("INSERT INTO r VALUES (1, DISCRETE(1: 0.5))")
    db.save(str(path))
    _set_version(path, 4, 9)
    before = path.read_bytes()
    with pytest.raises(SerializationError, match="snapshot version 9"):
        Database.open(str(path))
    assert path.read_bytes() == before
    _durable(tmp_path / "db")
    ckpt = tmp_path / "db" / "data.ckpt"
    _set_version(ckpt, 4, 9)
    before = ckpt.read_bytes()
    with pytest.raises(SerializationError, match="snapshot version 9"):
        Database(path=str(tmp_path / "db"))
    assert ckpt.read_bytes() == before


def test_checkpoint_of_snapshot_version_8_refused(tmp_path):
    _durable(tmp_path / "db")
    ckpt = tmp_path / "db" / "data.ckpt"
    _set_version(ckpt, 4, 8)
    with pytest.raises(SerializationError, match="snapshot version 8"):
        Database(path=str(tmp_path / "db"))
