"""Database snapshots: save a whole database to one file and reopen it.

The snapshot is self-contained: the catalog (schemas, heap-file page lists,
index definitions), every page image, the history store (the tuple-id
counter, the reference counts stored derived tuples hold, and the pdf of
each phantom node), and the categorical label-interning table all serialize
into a single binary file.  A live base pdf is written once, in its heap
record.  The header records the LSN of the last commit the state covers
(0 for a database without a log), so the file format is also a durable
directory's checkpoint, ``data.ckpt``: :func:`save_database` is the one
write-temp / fsync / ``os.replace`` install of both.  Strings and byte
strings are length-prefixed by :func:`pack_str` / :func:`pack_bytes` and
read back by :class:`Reader`, the codec of WAL record bodies too.  A save
inside an open transaction is refused: the LSN would not cover its rows.

Restoring rebuilds the database over an in-memory disk and decodes no
record to do it.  Each table's partial dependency sets are stored, since
the planner reads them before any scan; a B+tree is built by its first
read, and a page synopsis (``Table.unbuilt``) by the first pruned scan of
its page, from the prefixes it decodes anyway.

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
from ..errors import SerializationError, TransactionError
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
    "pack_str",
    "pack_bytes",
    "Reader",
]

_MAGIC = b"RPDB"
_VERSION = 10  # 10: each table's partial sets (9: the header carries the LSN the state covers)


# -- the length-prefixed codec of snapshots and WAL record bodies -------------


def pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


def pack_bytes(data: bytes) -> bytes:
    return struct.pack("<Q", len(data)) + data


def pack_names(names) -> bytes:
    return struct.pack("<H", len(names)) + b"".join(map(pack_str, names))


def pack_sets(sets) -> bytes:
    """Sets of names, in the order given, each as its sorted names."""
    return struct.pack("<H", len(sets)) + b"".join(pack_names(sorted(s)) for s in sets)


class Reader:
    """A cursor over bytes: fixed fields, and what :func:`pack_str` /
    :func:`pack_bytes` / :func:`pack_names` / :func:`pack_sets` wrote."""

    __slots__ = ("buf", "off")

    def __init__(self, buf: bytes, off: int = 0):
        self.buf = buf
        self.off = off

    def unpack(self, fmt: str) -> tuple:
        values = struct.unpack_from(fmt, self.buf, self.off)
        self.off += struct.calcsize(fmt)
        return values

    def unpack_bytes(self, width: str = "<Q") -> bytes:
        (n,) = self.unpack(width)
        self.off += n
        return self.buf[self.off - n : self.off]

    def unpack_str(self) -> str:
        return self.unpack_bytes("<I").decode("utf-8")

    def unpack_names(self) -> list:
        return [self.unpack_str() for _ in range(self.unpack("<H")[0])]

    def unpack_sets(self) -> list:
        return [frozenset(self.unpack_names()) for _ in range(self.unpack("<H")[0])]


def encode_schema(schema: ProbabilisticSchema) -> bytes:
    """A probabilistic schema as self-contained bytes."""
    parts = [struct.pack("<H", len(schema.columns))]
    for column in schema.columns:
        parts += (pack_str(column.name), pack_str(column.dtype.value))
    parts.append(pack_sets(schema.dependency))
    return b"".join(parts)


def decode_schema(data: bytes) -> ProbabilisticSchema:
    r = Reader(data)
    (n_cols,) = r.unpack("<H")
    columns = [Column(r.unpack_str(), DataType(r.unpack_str())) for _ in range(n_cols)]
    return ProbabilisticSchema(columns, r.unpack_sets())


def save_database(db, path: str, lsn: int = 0, points: str = "snapshot") -> None:
    """Serialize a database to ``path`` via write-temp-then-atomic-rename.

    The snapshot is first written (and fsynced) to ``path + ".tmp"`` and
    only then moved over ``path`` with :func:`os.replace`, so a crash at
    any point leaves either the old snapshot or the new one — never a
    torn in-between.  ``lsn`` is the last commit the state covers, so
    inside an open transaction, whose rows it does not cover, nothing is
    written; ``points`` names the install's fault points (``snapshot`` for
    :meth:`Database.save`, ``checkpoint`` for a durable checkpoint).
    """
    if db.catalog.txn.active:
        raise TransactionError("cannot save a database inside an open transaction")
    buf = io.BytesIO()
    write_snapshot(db, buf, lsn)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        faults.torn_write(f"{points}.write.torn", f, buf.getvalue())
        f.flush()
        os.fsync(f.fileno())
    faults.reach(f"{points}.rename.before")
    os.replace(tmp, path)
    faults.reach(f"{points}.rename.after")


def write_snapshot(db, f: BinaryIO, lsn: int) -> None:
    """Serialize a :class:`~repro.engine.database.Database` to a stream."""
    catalog = db.catalog
    catalog.pool.flush_all()
    f.write(_MAGIC)
    f.write(struct.pack("<IQ", _VERSION, lsn))

    # Label interning table (order defines the codes).
    f.write(struct.pack("<I", len(_LABELS)))
    for label in _LABELS:
        f.write(pack_str(label))

    # History store (snapshotting is a friend of the store).
    store = catalog.store
    f.write(struct.pack("<q", store._next_tuple_id))
    f.write(struct.pack("<I", len(store._refcounts)))
    for ref, refcount in store._refcounts.items():
        phantom = store._phantoms.get(ref)
        f.write(struct.pack("<q", ref.tuple_id) + pack_names(sorted(ref.attrs)))
        f.write(struct.pack("<qB", refcount, phantom is not None))
        if phantom is not None:
            f.write(pack_bytes(encode_pdf(phantom)))

    # Pages (from the flushed disk).
    disk = catalog.pool.disk
    page_images: Dict[int, bytes] = {}
    for table in catalog.tables.values():
        for page_id in table.heap.page_ids:
            page_images[page_id] = bytes(disk.read_page(page_id))
    f.write(struct.pack("<I", len(page_images)))
    for page_id in sorted(page_images):
        f.write(struct.pack("<q", page_id))
        f.write(pack_bytes(page_images[page_id]))

    # Tables.
    f.write(struct.pack("<I", len(catalog.tables)))
    for table in catalog.tables.values():
        f.write(pack_str(table.name))
        f.write(pack_bytes(encode_schema(table.schema)))
        f.write(struct.pack("<I", len(table.heap.page_ids)))
        for page_id in table.heap.page_ids:
            jumbo = page_id in table.heap._jumbo_pages
            f.write(struct.pack("<qB", page_id, 1 if jumbo else 0))
        f.write(struct.pack("<q", len(table.heap)))
        # Index definitions (B+trees built from data on first read), partial sets.
        f.write(pack_names(list(table.btrees)) + pack_names(sorted(table.ptis)))
        f.write(pack_sets(sorted(table.partial_sets, key=sorted)))


def load_database(path: str, buffer_capacity: int = 256, config=None):
    """Rebuild a database from a snapshot file (its LSN is not needed)."""
    with open(path, "rb") as f:
        db, _lsn = read_snapshot(f, buffer_capacity=buffer_capacity, config=config)
    return db


def read_snapshot(f: BinaryIO, buffer_capacity: int = 256, config=None):
    """Rebuild a database from an open snapshot stream -> (database, lsn)."""
    from ..core.model import DEFAULT_CONFIG
    from .database import Database
    from .storage.disk import MemoryDisk

    r = Reader(f.read(), 4)
    if r.buf[:4] != _MAGIC:
        raise SerializationError("stream is not a repro database snapshot")
    version, lsn = r.unpack("<IQ")
    if version != _VERSION:
        raise SerializationError(
            f"snapshot version {version} != supported {_VERSION}"
        )

    # Re-intern labels and verify code stability.
    (n_labels,) = r.unpack("<I")
    for expected_code in range(n_labels):
        label = r.unpack_str()
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
    (store._next_tuple_id, n_refs) = r.unpack("<qI")
    for _ in range(n_refs):
        (tuple_id,) = r.unpack("<q")
        ref = AncestorRef(tuple_id, frozenset(r.unpack_names()))
        refcount, phantom = r.unpack("<qB")
        store._refcounts[ref] = refcount
        if phantom:
            store._phantoms[ref], _ = decode_pdf(r.unpack_bytes())

    # Pages, written straight onto the fresh disk with matching ids.
    disk = catalog.pool.disk
    (n_pages,) = r.unpack("<I")
    page_map: Dict[int, bytes] = {}
    max_page_id = -1
    for _ in range(n_pages):
        (page_id,) = r.unpack("<q")
        page_map[page_id] = r.unpack_bytes()
        max_page_id = max(max_page_id, page_id)
    if max_page_id >= 0:
        while disk.allocate() < max_page_id:
            pass
        for page_id, image in page_map.items():
            disk.write_page(page_id, image)

    # Tables.
    (n_tables,) = r.unpack("<I")
    for _ in range(n_tables):
        name = r.unpack_str()
        table = catalog.create_table(name, decode_schema(r.unpack_bytes()))
        (n_table_pages,) = r.unpack("<I")
        for _ in range(n_table_pages):
            page_id, jumbo = r.unpack("<qB")
            table.heap.page_ids.append(page_id)
            table.heap._page_set.add(page_id)
            if jumbo:
                table.heap._jumbo_pages.add(page_id)
                catalog.pool._jumbo[page_id] = True
        (table.heap._record_count,) = r.unpack("<q")
        # Derived state: each B+tree is built by its first read, each page
        # synopsis by the first pruned scan of its page.
        table.btrees = dict.fromkeys(r.unpack_names())
        table.ptis.update(r.unpack_names())
        table.partial_sets = set(r.unpack_sets())
        table.unbuilt = set(table.heap.page_ids)
    return db, lsn
