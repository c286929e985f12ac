"""Buffer pool: LRU page cache between the executor and the disk.

Query cost in the paper's Figure 5 is I/O-bound: the discrete-25
representation stores ~5x more bytes per tuple than the histogram-5 one, so
scanning the same logical table touches proportionally more pages and, once
the working set exceeds the pool, proportionally more *physical* reads.
The pool exposes both logical and physical counters so benchmarks can
report each.

One coarse latch guards the frame table: user threads may share a
``Database`` and hence the pool, and the LRU bookkeeping
(``move_to_end`` racing ``popitem``) is not safe to interleave.  There are
still no pin counts — an operator holds a page only within one
``get_page`` call, and the page bytes themselves are read-only during
query execution.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Type

from ...errors import StorageError
from .disk import MemoryDisk
from .page import JumboPage, Page

__all__ = ["BufferPool", "BufferStats"]


@dataclass
class BufferStats:
    """Logical access counters (physical ones live on the disk)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    flushes: int = 0

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.flushes = 0

    @property
    def logical_reads(self) -> int:
        return self.hits + self.misses


class BufferPool:
    """An LRU cache of :class:`Page` objects over a :class:`MemoryDisk`."""

    def __init__(self, disk: Optional[MemoryDisk] = None, capacity: int = 128):
        if capacity < 1:
            raise StorageError("buffer pool needs capacity >= 1")
        self.disk = disk if disk is not None else MemoryDisk()
        self.capacity = capacity
        self.stats = BufferStats()
        self._frames: "OrderedDict[int, Page]" = OrderedDict()
        self._jumbo: Dict[int, bool] = {}  # page_id -> decoded as JumboPage?
        self._latch = threading.RLock()

    # -- page lifecycle ------------------------------------------------------

    def new_page(self, jumbo_record: Optional[bytes] = None) -> int:
        """Allocate a fresh page (ordinary, or jumbo for one big record)."""
        with self._latch:
            page_id = self.disk.allocate()
            if jumbo_record is None:
                page = Page(size=self.disk.page_size)
            else:
                page = JumboPage.for_record(jumbo_record, self.disk.page_size)
            page.dirty = True
            self._jumbo[page_id] = jumbo_record is not None
            self._admit(page_id, page)
            return page_id

    def get_page(self, page_id: int) -> Page:
        """Fetch a page, reading it from disk on a miss."""
        with self._latch:
            page = self._frames.get(page_id)
            if page is not None:
                self.stats.hits += 1
                self._frames.move_to_end(page_id)
                return page
            self.stats.misses += 1
            data = self.disk.read_page(page_id)
            cls: Type[Page] = JumboPage if self._jumbo.get(page_id, False) else Page
            page = cls(data=data)
            self._admit(page_id, page)
            return page

    def _admit(self, page_id: int, page: Page) -> None:
        while len(self._frames) >= self.capacity:
            victim_id, victim = self._frames.popitem(last=False)
            self.stats.evictions += 1
            if victim.dirty:
                self.disk.write_page(victim_id, bytes(victim.data))
                self.stats.flushes += 1
        self._frames[page_id] = page

    # -- durability -------------------------------------------------------------

    def flush_all(self) -> None:
        """Write every dirty cached page back to disk."""
        from .. import faults

        with self._latch:
            for page_id, page in self._frames.items():
                if page.dirty:
                    faults.reach("heap.page.write")
                    self.disk.write_page(page_id, bytes(page.data))
                    page.dirty = False
                    self.stats.flushes += 1

    def clear(self) -> None:
        """Flush and drop every cached frame (cold-cache benchmarks)."""
        with self._latch:
            self.flush_all()
            self._frames.clear()

    def reset_stats(self) -> None:
        self.stats.reset()
        self.disk.counters.reset()
