"""Database snapshots: save a whole database to one file and reopen it.

The snapshot is self-contained: the catalog (schemas, heap-file page lists,
index definitions), every page image, the history store (the tuple-id
counter, the reference counts stored derived tuples hold, and the pdf of
each phantom node), and the categorical label-interning table all serialize
into a single binary file.  A live base pdf is written once, in its heap
record.

Restoring rebuilds the database over an in-memory disk; secondary indexes
are rebuilt from the data (they are derived state).

Categorical labels are interned process-globally; a snapshot records its
label table and, on load, re-interns each label and verifies it receives
the same code.  Loading a snapshot into a process whose interning table
already conflicts (same code position, different label) raises — load
snapshots before creating new categorical data when mixing sources.
"""

from __future__ import annotations

import io
import os
import struct
from typing import BinaryIO, Dict

from ..core.history import AncestorRef
from ..core.model import Column, DataType, ProbabilisticSchema
from ..errors import SerializationError
from ..pdf.discrete import _LABELS, label_code
from . import faults
from .storage.serialize import decode_pdf, encode_pdf

__all__ = [
    "save_database",
    "load_database",
    "write_snapshot",
    "read_snapshot",
    "encode_schema",
    "decode_schema",
]

_MAGIC = b"RPDB"
_VERSION = 8  # 8: no live base pdf in the history section (7: record format v6)


def _w_str(f: BinaryIO, s: str) -> None:
    raw = s.encode("utf-8")
    f.write(struct.pack("<I", len(raw)))
    f.write(raw)


def _r_str(f: BinaryIO) -> str:
    (n,) = struct.unpack("<I", f.read(4))
    return f.read(n).decode("utf-8")


def _w_bytes(f: BinaryIO, data: bytes) -> None:
    f.write(struct.pack("<Q", len(data)))
    f.write(data)


def _r_bytes(f: BinaryIO) -> bytes:
    (n,) = struct.unpack("<Q", f.read(8))
    return f.read(n)


def _w_schema(f: BinaryIO, schema: ProbabilisticSchema) -> None:
    f.write(struct.pack("<H", len(schema.columns)))
    for column in schema.columns:
        _w_str(f, column.name)
        _w_str(f, column.dtype.value)
    f.write(struct.pack("<H", len(schema.dependency)))
    for dep in schema.dependency:
        attrs = sorted(dep)
        f.write(struct.pack("<H", len(attrs)))
        for a in attrs:
            _w_str(f, a)


def _r_schema(f: BinaryIO) -> ProbabilisticSchema:
    (n_cols,) = struct.unpack("<H", f.read(2))
    columns = []
    for _ in range(n_cols):
        name = _r_str(f)
        dtype = DataType(_r_str(f))
        columns.append(Column(name, dtype))
    (n_deps,) = struct.unpack("<H", f.read(2))
    dependency = []
    for _ in range(n_deps):
        (k,) = struct.unpack("<H", f.read(2))
        dependency.append({_r_str(f) for _ in range(k)})
    return ProbabilisticSchema(columns, dependency)


def encode_schema(schema: ProbabilisticSchema) -> bytes:
    """A probabilistic schema as self-contained bytes (WAL record payload)."""
    buf = io.BytesIO()
    _w_schema(buf, schema)
    return buf.getvalue()


def decode_schema(data: bytes) -> ProbabilisticSchema:
    return _r_schema(io.BytesIO(data))


def save_database(db, path: str) -> None:
    """Serialize a database to ``path`` via write-temp-then-atomic-rename.

    The snapshot is first written (and fsynced) to ``path + ".tmp"`` and
    only then moved over ``path`` with :func:`os.replace`, so a crash at
    any point leaves either the old snapshot or the new one — never a
    torn in-between.
    """
    buf = io.BytesIO()
    write_snapshot(db, buf)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        faults.torn_write("snapshot.write.torn", f, buf.getvalue())
        f.flush()
        os.fsync(f.fileno())
    faults.reach("snapshot.rename.before")
    os.replace(tmp, path)
    faults.reach("snapshot.rename.after")


def write_snapshot(db, f: BinaryIO) -> None:
    """Serialize a :class:`~repro.engine.database.Database` to a stream."""
    catalog = db.catalog
    catalog.pool.flush_all()
    f.write(_MAGIC)
    f.write(struct.pack("<I", _VERSION))

    # Label interning table (order defines the codes).
    f.write(struct.pack("<I", len(_LABELS)))
    for label in _LABELS:
        _w_str(f, label)

    # History store (snapshotting is a friend of the store).
    store = catalog.store
    f.write(struct.pack("<q", store._next_tuple_id))
    f.write(struct.pack("<I", len(store._refcounts)))
    for ref, refcount in store._refcounts.items():
        phantom = store._phantoms.get(ref)
        f.write(struct.pack("<q", ref.tuple_id))
        attrs = sorted(ref.attrs)
        f.write(struct.pack("<H", len(attrs)))
        for a in attrs:
            _w_str(f, a)
        f.write(struct.pack("<qB", refcount, phantom is not None))
        if phantom is not None:
            _w_bytes(f, encode_pdf(phantom))

    # Pages (from the flushed disk).
    disk = catalog.pool.disk
    page_images: Dict[int, bytes] = {}
    for table in catalog.tables.values():
        for page_id in table.heap.page_ids:
            page_images[page_id] = bytes(disk.read_page(page_id))
    f.write(struct.pack("<I", len(page_images)))
    for page_id in sorted(page_images):
        f.write(struct.pack("<q", page_id))
        _w_bytes(f, page_images[page_id])

    # Tables.
    f.write(struct.pack("<I", len(catalog.tables)))
    for table in catalog.tables.values():
        _w_str(f, table.name)
        _w_schema(f, table.schema)
        f.write(struct.pack("<I", len(table.heap.page_ids)))
        for page_id in table.heap.page_ids:
            jumbo = page_id in table.heap._jumbo_pages
            f.write(struct.pack("<qB", page_id, 1 if jumbo else 0))
        f.write(struct.pack("<q", len(table.heap)))
        # Index definitions (rebuilt from data on load).
        f.write(struct.pack("<H", len(table.btrees)))
        for attr in table.btrees:
            _w_str(f, attr)
        f.write(struct.pack("<H", len(table.ptis)))
        for attr in sorted(table.ptis):
            _w_str(f, attr)


def load_database(path: str, buffer_capacity: int = 256, config=None):
    """Rebuild a database from a snapshot file."""
    with open(path, "rb") as f:
        return read_snapshot(f, buffer_capacity=buffer_capacity, config=config)


def read_snapshot(f: BinaryIO, buffer_capacity: int = 256, config=None):
    """Rebuild a database from an open snapshot stream."""
    from ..core.model import DEFAULT_CONFIG
    from .database import Database
    from .storage.disk import MemoryDisk

    if f.read(4) != _MAGIC:
        raise SerializationError("stream is not a repro database snapshot")
    (version,) = struct.unpack("<I", f.read(4))
    if version != _VERSION:
        raise SerializationError(
            f"snapshot version {version} != supported {_VERSION}"
        )

    # Re-intern labels and verify code stability.
    (n_labels,) = struct.unpack("<I", f.read(4))
    for expected_code in range(n_labels):
        label = _r_str(f)
        code = int(label_code(label))
        if code != expected_code:
            raise SerializationError(
                f"label {label!r} interned at code {code}, snapshot expects "
                f"{expected_code}; load snapshots before creating new "
                "categorical data"
            )

    db = Database(
        disk=MemoryDisk(),
        buffer_capacity=buffer_capacity,
        config=config or DEFAULT_CONFIG,
    )
    catalog = db.catalog
    store = catalog.store

    # History store.
    (next_tuple_id,) = struct.unpack("<q", f.read(8))
    store._next_tuple_id = next_tuple_id
    (n_refs,) = struct.unpack("<I", f.read(4))
    for _ in range(n_refs):
        (tuple_id,) = struct.unpack("<q", f.read(8))
        (k,) = struct.unpack("<H", f.read(2))
        ref = AncestorRef(tuple_id, frozenset(_r_str(f) for _ in range(k)))
        refcount, phantom = struct.unpack("<qB", f.read(9))
        store._refcounts[ref] = refcount
        if phantom:
            store._phantoms[ref], _ = decode_pdf(_r_bytes(f))

    # Pages, written straight onto the fresh disk with matching ids.
    disk = catalog.pool.disk
    (n_pages,) = struct.unpack("<I", f.read(4))
    page_map: Dict[int, bytes] = {}
    max_page_id = -1
    for _ in range(n_pages):
        (page_id,) = struct.unpack("<q", f.read(8))
        page_map[page_id] = _r_bytes(f)
        max_page_id = max(max_page_id, page_id)
    if max_page_id >= 0:
        while disk.allocate() < max_page_id:
            pass
        for page_id, image in page_map.items():
            disk.write_page(page_id, image)

    # Tables.
    (n_tables,) = struct.unpack("<I", f.read(4))
    for _ in range(n_tables):
        name = _r_str(f)
        schema = _r_schema(f)
        table = catalog.create_table(name, schema)
        (n_table_pages,) = struct.unpack("<I", f.read(4))
        for _ in range(n_table_pages):
            page_id, jumbo = struct.unpack("<qB", f.read(9))
            table.heap.page_ids.append(page_id)
            table.heap._page_set.add(page_id)
            if jumbo:
                table.heap._jumbo_pages.add(page_id)
                catalog.pool._jumbo[page_id] = True
        (record_count,) = struct.unpack("<q", f.read(8))
        table.heap._record_count = record_count
        (n_btrees,) = struct.unpack("<H", f.read(2))
        btree_attrs = [_r_str(f) for _ in range(n_btrees)]
        (n_ptis,) = struct.unpack("<H", f.read(2))
        pti_attrs = [_r_str(f) for _ in range(n_ptis)]
        for attr in btree_attrs:
            table.create_btree_index(attr)
        # Page synopses are derived state, rebuilt with the PROB indexes' ladders.
        table.ptis.update(pti_attrs)
        table.rebuild_synopses()
    return db
