"""The system catalog: tables, indexes, and shared infrastructure.

One catalog owns one buffer pool (over one disk), one history store, and
the model configuration — the engine-wide counterparts of PostgreSQL's
shared memory, which is where the paper's Orion extension lived.  The
history store reads a live base pdf from its tuple's heap record, the only
copy (:meth:`Catalog._base_pdf`).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..errors import CatalogError, HistoryError, StorageError
from ..core.history import AncestorRef, HistoryStore
from ..core.model import DEFAULT_CONFIG, ModelConfig, ProbabilisticSchema
from ..pdf.base import Pdf
from .storage.buffer import BufferPool
from .storage.disk import MemoryDisk
from .storage.heapfile import RID
from .storage.serialize import decode_prefix, record_tuple_id
from .table import Table
from .wal import TransactionManager

__all__ = ["Catalog"]


class Catalog:
    """Named tables over a shared buffer pool and history store."""

    def __init__(
        self,
        disk: Optional[MemoryDisk] = None,
        buffer_capacity: int = 256,
        config: ModelConfig = DEFAULT_CONFIG,
        store_lineage: bool = True,
    ):
        self.pool = BufferPool(disk or MemoryDisk(), capacity=buffer_capacity)
        self.store = HistoryStore(self._base_pdf, lambda ref: self._record_of(ref) is not None)
        #: tuple id -> (table, RID) of every stored record, built on first use
        self._homes: Optional[Dict[int, Tuple[Table, RID]]] = None
        self.config = config
        self.store_lineage = store_lineage
        self.tables: Dict[str, Table] = {}
        #: transaction state shared by every table (WAL redo + precise undo)
        self.txn = TransactionManager(self)

    def create_table(self, name: str, schema: ProbabilisticSchema) -> Table:
        key = name.lower()
        if key in self.tables:
            raise CatalogError(f"table {name!r} already exists")
        table = Table(
            name,
            schema,
            self.pool,
            self.store,
            store_lineage=self.store_lineage,
            txn=self.txn,
        )
        self.tables[key] = table
        self.txn.on_create_table(table)
        return table

    def get_table(self, name: str) -> Table:
        table = self.tables.get(name.lower())
        if table is None:
            raise CatalogError(
                f"unknown table {name!r}; known tables: {sorted(self.tables)}"
            )
        return table

    def drop_table(self, name: str) -> None:
        key = name.lower()
        if key not in self.tables:
            raise CatalogError(f"unknown table {name!r}")
        # The hook logs the drop and captures the reference counts and
        # phantoms it changes, for undo, first.
        self.txn.on_drop_table(self.tables[key])
        table = self.tables.pop(key)
        for _rid, t in list(table.scan()):
            self.store.drop_tuple(t)

    def _base_pdf(self, ref: AncestorRef) -> Pdf:
        """The pdf of a base set, read from its tuple's record (the only copy)."""
        record = self._record_of(ref)
        if record is not None:
            t = decode_prefix(record).complete(frozenset((ref.attrs,)))
            if any(link.ref == ref for link in t.lineage.get(ref.attrs, ())):
                return t.pdfs[ref.attrs]
        raise HistoryError(f"unknown or fully-released ancestor {ref!r}")

    def _record_of(self, ref: AncestorRef) -> Optional[bytes]:
        """The stored record of ``ref``'s tuple, or None.

        The map of record homes is never kept up to date.  A miss, or a home
        whose slot is dead or holds another tuple, rebuilds it once: slots
        are never reused, so the rebuilt map finds a moved record.  Tuple ids
        are unique across tables, since a stored derived row never keeps
        the id of the row it came from.
        """
        record = None if self._homes is None else self._record_at(ref.tuple_id)
        if record is None:
            self._homes = {
                record_tuple_id(record): (table, rid)
                for table in self.tables.values()
                for rid, record in table.heap.scan()
            }
            record = self._record_at(ref.tuple_id)
        return record

    def _record_at(self, tuple_id: int) -> Optional[bytes]:
        home = self._homes.get(tuple_id)
        if home is None:
            return None
        table, rid = home
        if self.tables.get(table.name.lower()) is not table:
            return None
        try:
            record = table.heap.read(rid)
        except StorageError:
            return None
        return record if record_tuple_id(record) == tuple_id else None

    def __repr__(self) -> str:
        return f"Catalog({sorted(self.tables)})"
