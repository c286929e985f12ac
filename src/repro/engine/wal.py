"""Write-ahead logging, transactions, checkpoints, and crash recovery.

Durability follows the classic redo-only WAL design, specialised to the
probabilistic data model: a log record carries everything the paper's
history mechanism needs to rebuild PWS-consistent state — the full pdf
payloads, the dependency-set membership, and the ancestor ids of every
inserted tuple — so that replaying the committed prefix reconstructs heap
pages, secondary indexes, page synopses, *and* the history store's
reference counts and phantoms exactly as a never-crashed database would
hold them.

Protocol
--------

* Mutations inside a transaction apply to the live engine immediately but
  are only *buffered* as logical redo records.  ``COMMIT`` writes the whole
  transaction — op frames followed by a commit frame — as one contiguous
  append, then fsyncs (every transaction when ``group_commit=1``, every
  N-th otherwise).  A crash mid-transaction therefore leaves nothing of it
  in the log.
* Every frame is length-prefixed and CRC-checked::

      <I payload_len> <I crc32(payload)> <payload>
      payload = <B op> <Q txn_id> <op-specific body>

  The transaction id doubles as the commit LSN — ids are drawn at commit
  time, so log order, commit order, and id order coincide.
* A checkpoint is a snapshot: the whole database is saved to ``data.ckpt``
  by :func:`~repro.engine.snapshot.save_database` (temp file, fsync,
  ``os.replace``), its header carrying the LSN of the last commit, and the
  log is then reset to an empty one whose header carries the same LSN.
  Recovery skips any logged transaction with ``lsn <= checkpoint lsn`` —
  the guard that makes a crash between the checkpoint rename and the log
  reset harmless — and refuses a log whose base LSN is above the
  checkpoint's, which only a checkpoint older than its log can produce.
* Recovery scans the log, stops at the first torn or CRC-bad frame,
  replays committed transactions in order, truncates the torn/uncommitted
  suffix.  A replayed insert stores the logged record bytes as they are
  when its table keeps lineage (they are its heap record).  Derived state
  is kept by the replayed operations themselves: built B+trees and the
  synopses of the pages they touch (a restored B+tree stays unbuilt until
  its first read, a restored page until a pruned scan builds its
  synopsis), and a table's tuple-id -> RID map, read from its heap only
  when a replayed ``DELETE`` first needs it.

Undo is in-memory only (``ROLLBACK`` / statement failure): each hook
stashes a precise undo entry — including the reference counts and phantoms
a ``DELETE`` changes — so an aborted transaction leaves state
indistinguishable from one that never ran.

Every OS-visible step calls into :mod:`repro.engine.faults`, which is how
the crash-matrix suite in ``tests/fault/`` exercises each window.
"""

from __future__ import annotations

import os
import shutil
import struct
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.model import DEFAULT_CONFIG
from ..errors import TransactionError, WalError
from . import faults
from .snapshot import (
    Reader,
    decode_schema,
    encode_schema,
    pack_bytes,
    pack_str,
    read_snapshot,
    save_database,
)
from .storage.serialize import decode_prefix, encode_tuple, record_tuple_id

__all__ = [
    "WriteAheadLog",
    "TransactionManager",
    "Record",
    "open_durable",
    "write_checkpoint",
    "scan_wal",
]

WAL_MAGIC = b"RWAL"
WAL_VERSION = 4  # 4: record bodies are heap record format v6

#: sanity bound on a frame payload; anything larger is treated as torn junk
_MAX_FRAME = 1 << 31

# -- record ops --------------------------------------------------------------

OP_COMMIT = 2
OP_CREATE_TABLE = 3
OP_DROP_TABLE = 4
OP_CREATE_INDEX = 5
OP_INSERT = 6
OP_DELETE = 7
# 8 was ANALYZE (WAL versions <= 2): retired, never reuse it

#: INSERT flag bits
_F_BASE = 1      # a base-tuple insert (its pdfs are their own ancestors)
_F_ACQUIRE = 2   # retired: set on a derived insert by an older writer, which
                 # may hold its base tuple's id; a log holding one is refused


@dataclass
class Record:
    """One decoded WAL record (fields are op-specific; unused ones default)."""

    op: int
    txn_id: int
    name: str = ""          # table name
    payload: bytes = b""    # encoded schema (CREATE_TABLE) / tuple (INSERT)
    flags: int = 0
    tuple_id: int = 0
    kind: str = ""          # index kind: btree | pti
    column: str = ""        # the indexed column


def decode_record(payload: bytes) -> Record:
    """Decode one frame payload into a :class:`Record`."""
    r = Reader(payload)
    op, txn_id = r.unpack("<BQ")
    if op == OP_COMMIT:
        return Record(op, txn_id)
    if not OP_CREATE_TABLE <= op <= OP_DELETE:
        raise WalError(f"unknown WAL record op {op}")
    name = r.unpack_str()
    if op == OP_DROP_TABLE:
        return Record(op, txn_id, name=name)
    if op == OP_CREATE_TABLE:
        return Record(op, txn_id, name=name, payload=r.unpack_bytes())
    if op == OP_CREATE_INDEX:
        kind, column = r.unpack_str(), r.unpack_str()
        return Record(op, txn_id, name=name, kind=kind, column=column)
    if op == OP_INSERT:
        (flags,) = r.unpack("<B")
        if flags & _F_ACQUIRE:
            raise WalError(
                f"INSERT into {name!r} at LSN {txn_id} carries retired flag bit 2 "
                "(a derived row under its base tuple's id, written before "
                "snapshot version 9); such a log is refused"
            )
        return Record(op, txn_id, name=name, flags=flags, payload=r.unpack_bytes())
    (tuple_id,) = r.unpack("<q")  # OP_DELETE
    return Record(op, txn_id, name=name, tuple_id=tuple_id)


def _frame(payload: bytes) -> bytes:
    return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload


# -- the log file ------------------------------------------------------------


def _wal_header(base_lsn: int) -> bytes:
    return WAL_MAGIC + struct.pack("<IQ", WAL_VERSION, base_lsn)


_WAL_HEADER_SIZE = 16


class WriteAheadLog:
    """An append-only, CRC-framed redo log over one file."""

    def __init__(self, path: str, base_lsn: int = 0, group_commit: int = 1):
        self.path = path
        self.base_lsn = base_lsn
        self.group_commit = max(1, int(group_commit))
        #: the next transaction id / LSN to hand out (recovery advances it)
        self.next_lsn = base_lsn + 1
        self._f = None
        self._pending_sync = 0

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(
        cls, path: str, base_lsn: int = 0, group_commit: int = 1
    ) -> "WriteAheadLog":
        """Create a fresh (empty) log file with a durable header."""
        with open(path, "wb") as f:
            f.write(_wal_header(base_lsn))
            f.flush()
            os.fsync(f.fileno())
        return cls(path, base_lsn=base_lsn, group_commit=group_commit)

    def open_append(self) -> None:
        # Unbuffered on purpose: a write either reaches the OS or raises.
        # A Python-level buffer would survive a simulated crash and could
        # be flushed behind recovery's back when the object is collected.
        self._f = open(self.path, "ab", buffering=0)

    def close(self) -> None:
        if self._f is not None:
            self.sync()
            self._f.close()
            self._f = None

    # -- commits ------------------------------------------------------------

    def commit_txn(self, ops: List[Tuple[int, bytes]]) -> int:
        """Append one committed transaction and return its LSN.

        ``ops`` are ``(op, body)`` pairs buffered by the transaction
        manager; the whole transaction — op frames plus the trailing commit
        frame — is written as a single contiguous append so a torn write
        can only ever truncate it, never interleave it.
        """
        if self._f is None:
            raise WalError("write-ahead log is not open for appending")
        lsn = self.next_lsn
        self.next_lsn += 1
        parts = [_frame(struct.pack("<BQ", op, lsn) + body) for op, body in ops]
        parts.append(_frame(struct.pack("<BQ", OP_COMMIT, lsn)))
        buf = b"".join(parts)
        faults.reach("wal.append.before")
        faults.torn_write("wal.append.torn", self._f, buf)
        faults.reach("wal.append.after")
        self._f.flush()
        self._pending_sync += 1
        if self._pending_sync >= self.group_commit:
            self.sync()
        return lsn

    def sync(self) -> None:
        """fsync any commits still inside the group-commit window."""
        if self._f is None or self._pending_sync == 0:
            return
        faults.reach("wal.fsync.before")
        os.fsync(self._f.fileno())
        faults.reach("wal.fsync.after")
        self._pending_sync = 0

    # -- checkpoint reset ---------------------------------------------------

    def reset(self, base_lsn: int) -> None:
        """Replace the log with an empty one starting at ``base_lsn``.

        Written temp-then-rename: a crash leaves either the old log (whose
        transactions the checkpoint LSN guard will skip) or the new one.
        """
        if self._f is not None:
            self._f.close()
            self._f = None
        tmp = self.path + ".new"
        with open(tmp, "wb") as f:
            f.write(_wal_header(base_lsn))
            f.flush()
            os.fsync(f.fileno())
        faults.reach("wal.reset.before")
        os.replace(tmp, self.path)
        faults.reach("wal.reset.after")
        self.base_lsn = base_lsn
        self.next_lsn = max(self.next_lsn, base_lsn + 1)
        self._pending_sync = 0
        self.open_append()


def scan_wal(path: str) -> Tuple[int, List[Tuple[int, List[Record]]], int]:
    """Scan a log file -> (header base_lsn, committed txns, good byte end).

    Committed transactions come back in commit order as ``(lsn, records)``.
    Scanning stops at the first torn or CRC-bad frame; frames after the
    last commit boundary (a transaction whose commit frame never made it)
    are uncommitted and ignored.  ``good end`` is the file offset of the
    last committed boundary — the caller truncates the file there.
    """
    with open(path, "rb") as f:
        header = f.read(_WAL_HEADER_SIZE)
        if len(header) < _WAL_HEADER_SIZE or header[:4] != WAL_MAGIC:
            raise WalError(f"{path!r} is not a repro write-ahead log")
        version, base_lsn = struct.unpack_from("<IQ", header, 4)
        if version != WAL_VERSION:
            raise WalError(f"WAL version {version} != supported {WAL_VERSION}")
        offset = _WAL_HEADER_SIZE
        good_end = offset
        committed: List[Tuple[int, List[Record]]] = []
        pending: Dict[int, List[Record]] = {}
        while True:
            head = f.read(8)
            if len(head) < 8:
                break
            length, crc = struct.unpack("<II", head)
            if length > _MAX_FRAME:
                break
            payload = f.read(length)
            if len(payload) < length or zlib.crc32(payload) != crc:
                break
            offset += 8 + length
            record = decode_record(payload)
            if record.op == OP_COMMIT:
                committed.append((record.txn_id, pending.pop(record.txn_id, [])))
                good_end = offset
            else:
                pending.setdefault(record.txn_id, []).append(record)
    return base_lsn, committed, good_end


# -- undo entries ------------------------------------------------------------


@dataclass
class _UndoInsert:
    table: object
    rid: object
    t: object


@dataclass
class _UndoDelete:
    table: object
    rid: object
    raw: bytes
    t: object
    history: dict  # HistoryStore.capture of the refs the delete touches


@dataclass
class _UndoCreateTable:
    name: str


@dataclass
class _UndoDropTable:
    name: str
    table: object
    history: dict


@dataclass
class _UndoCreateIndex:
    table: object
    kind: str
    attr: str


def _refs(t) -> set:
    """Every ancestor ``t`` links to, its own base sets included."""
    return {link.ref for lin in t.lineage.values() for link in lin}


# -- the transaction manager -------------------------------------------------


class TransactionManager:
    """Per-catalog transaction state: redo buffering and precise undo.

    The engine's mutation paths call the ``on_*`` hooks; outside an active
    transaction (direct ``Table`` API use) and during recovery replay they
    are no-ops, so non-transactional code paths behave exactly as before.
    """

    def __init__(self, catalog):
        self.catalog = catalog
        #: attached by a durable Database; None keeps transactions in-memory
        self.wal: Optional[WriteAheadLog] = None
        self.active = False
        self.replaying = False
        self._ops: List[Tuple[int, bytes]] = []
        self._undo: List[object] = []
        self._saved_next_tuple_id = 0

    # -- lifecycle ----------------------------------------------------------

    def begin(self) -> None:
        if self.active:
            raise TransactionError("a transaction is already in progress")
        self.active = True
        self._ops = []
        self._undo = []
        self._saved_next_tuple_id = self.catalog.store._next_tuple_id

    def commit(self) -> Optional[int]:
        """Make the transaction durable; returns its LSN (None if no WAL).

        If the log append fails with an ordinary exception the transaction
        stays active so the caller can still ``abort()`` it; an
        :class:`~repro.engine.faults.InjectedCrash` propagates untouched —
        nothing survives a real power cut.
        """
        if not self.active:
            raise TransactionError("no transaction in progress")
        lsn = None
        if self.wal is not None and self._ops:
            lsn = self.wal.commit_txn(self._ops)
        self.active = False
        self._ops = []
        self._undo = []
        return lsn

    def abort(self) -> None:
        if not self.active:
            raise TransactionError("no transaction in progress")
        # Undoing a delete re-homes the record (pages never reuse slots), so
        # later-undone entries that captured the original rid must be pointed
        # at the restored location.
        remap: Dict[object, object] = {}
        for entry in reversed(self._undo):
            self._apply_undo(entry, remap)
        self.catalog.store._next_tuple_id = self._saved_next_tuple_id
        self.active = False
        self._ops = []
        self._undo = []

    def _recording(self) -> bool:
        return self.active and not self.replaying

    # -- mutation hooks ------------------------------------------------------

    def on_insert(self, table, rids, tuples, records, base: bool) -> None:
        """One call per placed batch: a redo record and an undo entry per row.

        ``records`` are the heap records; the redo body always carries
        lineage, so they are reused as is whenever the table stores it.
        """
        if not self._recording():
            return
        flags = _F_BASE if base else 0
        head = pack_str(table.name) + struct.pack("<B", flags)
        for rid, t, record in zip(rids, tuples, records):
            if not table.store_lineage:
                record = encode_tuple(t, store_lineage=True)
            self._ops.append((OP_INSERT, head + pack_bytes(record)))
            self._undo.append(_UndoInsert(table, rid, t))

    def on_delete(self, table, rid, t) -> None:
        """Called *before* the delete mutates anything."""
        if not self._recording():
            return
        raw = table.heap.read(rid)
        history = self.catalog.store.capture(_refs(t))
        body = pack_str(table.name) + struct.pack("<q", t.tuple_id)
        self._ops.append((OP_DELETE, body))
        self._undo.append(_UndoDelete(table, rid, raw, t, history))

    def on_create_table(self, table) -> None:
        if not self._recording():
            return
        body = pack_str(table.name) + pack_bytes(encode_schema(table.schema))
        self._ops.append((OP_CREATE_TABLE, body))
        self._undo.append(_UndoCreateTable(table.name))

    def on_drop_table(self, table) -> None:
        """Called *before* the catalog removes the table."""
        if not self._recording():
            return
        refs = set().union(*(_refs(t) for _rid, t in table.scan()))
        history = self.catalog.store.capture(refs)
        self._ops.append((OP_DROP_TABLE, pack_str(table.name)))
        self._undo.append(_UndoDropTable(table.name, table, history))

    def on_create_index(self, table, kind: str, attr: str) -> None:
        if not self._recording():
            return
        body = pack_str(table.name) + pack_str(kind) + pack_str(attr)
        self._ops.append((OP_CREATE_INDEX, body))
        self._undo.append(_UndoCreateIndex(table, kind, attr))

    # -- undo ---------------------------------------------------------------

    def _apply_undo(self, entry, remap: Optional[Dict[object, object]] = None) -> None:
        store = self.catalog.store
        if isinstance(entry, _UndoInsert):
            rid = entry.rid
            if remap is not None:
                rid = remap.get(rid, rid)
            entry.table._undo_insert(rid, entry.t)
        elif isinstance(entry, _UndoDelete):
            store.restore(entry.history)
            table, t = entry.table, entry.t
            rid = table.heap.insert(entry.raw)
            if remap is not None and rid != entry.rid:
                remap[entry.rid] = rid
            prefix = decode_prefix(entry.raw, 0, summaries=True)
            table._synopsis_add(rid, t.certain, prefix.deps, table._ladders(t))
            table._index_insert(rid, t)
        elif isinstance(entry, _UndoCreateTable):
            self.catalog.tables.pop(entry.name.lower(), None)
        elif isinstance(entry, _UndoDropTable):
            self.catalog.tables[entry.name.lower()] = entry.table
            store.restore(entry.history)
        elif isinstance(entry, _UndoCreateIndex):
            table = entry.table
            if entry.kind == "pti":
                table.ptis.discard(entry.attr)
                for syn in table.synopses.values():
                    syn.rows.columns.pop(entry.attr, None)
            else:
                table.btrees.pop(entry.attr, None)


# -- recovery replay ---------------------------------------------------------


class _Replayer:
    """Applies committed redo records to a catalog during recovery."""

    def __init__(self, catalog):
        self.catalog = catalog
        #: the largest tuple id a replayed insert stored (the checkpoint's
        #: counter is already at or above every id it holds)
        self.max_tuple_id = 0
        #: table key -> {tuple id: current RID}, for replaying deletes; read
        #: from a table's heap by the first DELETE replayed into it
        self.rid_of: Dict[str, Dict[int, object]] = {}

    def apply(self, record: Record) -> None:
        catalog = self.catalog
        key = record.name.lower()
        if record.op == OP_CREATE_TABLE:
            catalog.create_table(record.name, decode_schema(record.payload))
        elif record.op == OP_DROP_TABLE:
            catalog.drop_table(record.name)
            self.rid_of.pop(key, None)
        elif record.op == OP_CREATE_INDEX:
            table = catalog.get_table(record.name)
            if record.kind == "pti":
                table.create_pti_index(record.column)
            else:
                table.create_btree_index(record.column)
        elif record.op == OP_INSERT:
            table = catalog.get_table(record.name)
            # The logged record is the heap record of a table that stores lineage.
            prefix = decode_prefix(record.payload, 0, summaries=True)
            t = prefix.complete()
            encoded = [(record.payload, prefix.deps)] if table.store_lineage else None
            (rid,) = table._place([t], bool(record.flags & _F_BASE), encoded)
            if key in self.rid_of:
                self.rid_of[key][t.tuple_id] = rid
            self.max_tuple_id = max(self.max_tuple_id, t.tuple_id)
        elif record.op == OP_DELETE:
            table = catalog.get_table(record.name)
            if key not in self.rid_of:
                self.rid_of[key] = {record_tuple_id(raw): rid for rid, raw in table.heap.scan()}
            rid = self.rid_of[key].pop(record.tuple_id, None)
            if rid is None:
                raise WalError(
                    f"DELETE replay: tuple {record.tuple_id} not found in "
                    f"table {record.name!r}"
                )
            table.delete(rid)
        else:
            raise WalError(f"cannot replay WAL record op {record.op}")


# -- checkpoints -------------------------------------------------------------


def write_checkpoint(db) -> None:
    """Save the current state as ``data.ckpt`` and reset the log.

    Crash-safe at every step: :func:`~repro.engine.snapshot.save_database`
    installs the snapshot with a temp file, fsync and atomic rename, and
    recovery's LSN guard makes the window between the rename and the log
    reset idempotent.
    """
    wal = db._wal
    if wal is None or db.path is None:
        raise WalError("checkpoint requires a durable (path-backed) database")
    faults.reach("checkpoint.begin")
    wal.sync()  # pending group commits become durable before folding
    last_lsn = wal.next_lsn - 1
    save_database(db, os.path.join(db.path, "data.ckpt"), last_lsn, points="checkpoint")
    wal.reset(last_lsn)


# -- opening a durable database ----------------------------------------------


def open_durable(
    path: str,
    buffer_capacity: int = 256,
    config=None,
    store_lineage: bool = True,
    group_commit: int = 1,
):
    """Open (or create) a durable database directory; runs recovery.

    Returns ``(database, wal)`` — the database holds the recovered state
    and the log is open for appending, positioned after the last committed
    transaction (any torn or uncommitted suffix has been truncated away).
    """
    from .database import Database
    from .storage.disk import MemoryDisk

    os.makedirs(path, exist_ok=True)
    ckpt_path = os.path.join(path, "data.ckpt")
    wal_path = os.path.join(path, "wal.log")
    # Leftovers of a crashed checkpoint / log reset are garbage by design
    # (both protocols only ever install files via os.replace), and so are
    # the spill files of a crashed statement.
    for stale in (ckpt_path + ".tmp", wal_path + ".new", os.path.join(path, "spill")):
        if os.path.isdir(stale):
            shutil.rmtree(stale, ignore_errors=True)
        elif os.path.exists(stale):
            os.remove(stale)

    base_lsn = 0
    if os.path.exists(ckpt_path):
        with open(ckpt_path, "rb") as f:
            db, base_lsn = read_snapshot(f, buffer_capacity=buffer_capacity, config=config)
        # The snapshot format does not record the lineage flag; a durable
        # database reapplies the caller's setting uniformly on reopen.
        db.catalog.store_lineage = store_lineage
        for table in db.catalog.tables.values():
            table.store_lineage = store_lineage
    else:
        db = Database(
            disk=MemoryDisk(),
            buffer_capacity=buffer_capacity,
            config=config or DEFAULT_CONFIG,
            store_lineage=store_lineage,
        )
    catalog = db.catalog

    max_lsn = base_lsn
    if os.path.exists(wal_path):
        wal_base, committed, good_end = scan_wal(wal_path)
        if wal_base > base_lsn:
            raise WalError(
                f"wal.log continues from LSN {wal_base}, but data.ckpt covers "
                f"LSN {base_lsn} (0: no checkpoint): the checkpoint is older than its log"
            )
        if good_end < os.path.getsize(wal_path):
            with open(wal_path, "r+b") as f:
                f.truncate(good_end)
        max_lsn = max([max_lsn, *(lsn for lsn, _records in committed)])
        # records at or below base_lsn are already folded into the checkpoint
        pending = [r for lsn, records in committed if lsn > base_lsn for r in records]
        replayer = _Replayer(catalog)
        catalog.txn.replaying = True
        try:
            for record in pending:
                replayer.apply(record)
        finally:
            catalog.txn.replaying = False
        catalog.store._next_tuple_id = max(
            catalog.store._next_tuple_id, replayer.max_tuple_id
        )
        wal = WriteAheadLog(
            wal_path, base_lsn=wal_base, group_commit=group_commit
        )
    else:
        wal = WriteAheadLog.create(
            wal_path, base_lsn=base_lsn, group_commit=group_commit
        )
    wal.next_lsn = max_lsn + 1
    wal.open_append()
    return db, wal
