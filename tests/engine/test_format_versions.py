"""Removed syntax and files of an earlier format are refused, never misread.

The spatial index left the dialect, the snapshot (version 5 -> 6: no
per-table spatial section) and the WAL (version 1 -> 2: a CREATE_INDEX body
is table / kind / one column).  Each reader must say so with a
:class:`ReproError` from its version check instead of decoding old bytes
with the new layout.
"""

import struct

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


def test_previous_wal_version_refused(tmp_path):
    _durable(tmp_path / "db")
    _set_version(tmp_path / "db" / "wal.log", 4, 1)
    with pytest.raises(WalError, match="WAL version 1"):
        Database(path=str(tmp_path / "db"))


def test_checkpoint_embedding_previous_snapshot_refused(tmp_path):
    _durable(tmp_path / "db")
    ckpt = tmp_path / "db" / "data.ckpt"
    embedded = ckpt.read_bytes().index(b"RPDB")
    _set_version(ckpt, embedded + 4, 5)
    with pytest.raises(SerializationError, match="snapshot version 5"):
        Database(path=str(tmp_path / "db"))
