"""Removed syntax and files of an earlier format are refused, never misread.

The spatial index left the dialect, the snapshot (version 5 -> 6: no
per-table spatial section) and the WAL (version 1 -> 2: a CREATE_INDEX body
is table / kind / one column).  ``ANALYZE`` left it next, with its WAL
record (version 2 -> 3, op 8 retired) and the checkpoint container's list of
analyzed tables (version 1 -> 2).  Heap record format v6 (a name table per
record, a marker for a base pdf's history) moved the snapshot to version 7
and the WAL to version 4, since heap pages and insert bodies are heap
records.  Each reader must say so with a :class:`ReproError` from its
version check instead of decoding old bytes with the new layout.
"""

import struct
import zlib

import pytest

from repro.engine.database import Database
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
