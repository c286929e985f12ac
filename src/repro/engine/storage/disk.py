"""The disk manager: the physical layer beneath the buffer pool.

:class:`MemoryDisk` keeps pages in a dict; "physical I/O" is counted but
costs only a memcpy — the paper's experiments measure *relative* I/O
volume, which the counters capture exactly.  It is the only disk: a durable
database is this disk plus the write-ahead log and ``data.ckpt``
(:mod:`repro.engine.wal`).  Tests substitute a failing disk by subclassing.

Physical reads and writes are counted in **page units**: a jumbo page of
``n`` x PAGE_SIZE bytes charges ``ceil(n)`` units, so oversized records pay
proportional I/O, as they would in a real system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from ...errors import StorageError
from .page import PAGE_SIZE

__all__ = ["IoCounters", "MemoryDisk"]


@dataclass
class IoCounters:
    """Physical I/O statistics, in PAGE_SIZE units."""

    reads: int = 0
    writes: int = 0

    def reset(self) -> None:
        self.reads = 0
        self.writes = 0

    @property
    def total(self) -> int:
        return self.reads + self.writes


def _units(nbytes: int, page_size: int) -> int:
    return max(1, math.ceil(nbytes / page_size))


class MemoryDisk:
    """A page-addressed in-memory store with physical-I/O accounting."""

    def __init__(self, page_size: int = PAGE_SIZE):
        self.page_size = page_size
        self.counters = IoCounters()
        self._pages: Dict[int, bytes] = {}
        self._next_id = 0

    def allocate(self) -> int:
        """Reserve a new page id (no I/O)."""
        page_id = self._next_id
        self._next_id += 1
        return page_id

    def read_page(self, page_id: int) -> bytearray:
        data = self._pages.get(page_id)
        if data is None:
            raise StorageError(f"page {page_id} was never written")
        self.counters.reads += _units(len(data), self.page_size)
        return bytearray(data)

    def write_page(self, page_id: int, data: bytes) -> None:
        if page_id >= self._next_id:
            raise StorageError(f"page {page_id} was not allocated")
        self.counters.writes += _units(len(data), self.page_size)
        self._pages[page_id] = bytes(data)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._pages

    @property
    def num_pages(self) -> int:
        return len(self._pages)
