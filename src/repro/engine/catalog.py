"""The system catalog: tables, indexes, and shared infrastructure.

One catalog owns one buffer pool (over one disk), one history store, and
the model configuration — the engine-wide counterparts of PostgreSQL's
shared memory, which is where the paper's Orion extension lived.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import CatalogError
from ..core.history import HistoryStore
from ..core.model import DEFAULT_CONFIG, ModelConfig, ProbabilisticSchema
from .storage.buffer import BufferPool
from .storage.disk import MemoryDisk
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
        self.store = HistoryStore()
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
        # The hook captures pre-drop history entries for undo/redo first.
        self.txn.on_drop_table(self.tables[key])
        table = self.tables.pop(key)
        # Release ancestor references so phantom bookkeeping stays accurate.
        for rid, t in list(table.scan()):
            for lin in t.lineage.values():
                if lin:
                    self.store.release(lin)
            self.store.delete_base_tuple(t.tuple_id)

    def __repr__(self) -> str:
        return f"Catalog({sorted(self.tables)})"
