"""Heap files: unordered collections of records across many pages.

A heap file owns a list of page ids in its buffer pool.  Inserts fill the
last non-full ordinary page, falling back to a new page; records larger
than a page's capacity get a dedicated jumbo page.  Records are addressed
by :class:`RID` (page id, slot) — the handles stored inside indexes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ...errors import StorageError
from .buffer import BufferPool
from .page import page_capacity

__all__ = ["RID", "HeapFile"]


@dataclass(frozen=True, order=True)
class RID:
    """Record identifier: (page id, slot number)."""

    page_id: int
    slot: int

    def __repr__(self) -> str:
        return f"RID({self.page_id}:{self.slot})"


class HeapFile:
    """An append-mostly record store over a buffer pool."""

    def __init__(self, pool: BufferPool, name: str = ""):
        self.pool = pool
        self.name = name
        self.page_ids: List[int] = []
        self._page_set: Set[int] = set()
        self._jumbo_pages: Set[int] = set()
        self._record_count = 0

    def __len__(self) -> int:
        return self._record_count

    @property
    def num_pages(self) -> int:
        return len(self.page_ids)

    # -- mutation -----------------------------------------------------------

    def insert(self, record: bytes) -> RID:
        """Store a record and return its RID."""
        return self.insert_many([record])[0]

    def insert_many(self, records: Sequence[bytes]) -> List[RID]:
        """Store ``records`` in order, all or nothing, and return their RIDs.

        Each record goes to the more recent of the last two ordinary pages
        that has room, else to a new page; one larger than a page's
        capacity gets a dedicated jumbo page.  The free space of the two
        candidates is tracked across the run, so a page is fetched when the
        run moves onto it, not once per record.
        """
        pool = self.pool
        capacity = page_capacity(pool.disk.page_size)
        free: Dict[int, int] = {}  # free space of the tail candidates seen so far
        # The one page held across iterations.  The pool has no pins: any
        # fetch or allocation in between may evict it, so it is dropped then.
        held_id, held = -1, None
        rids: List[RID] = []
        try:
            for record in records:
                size = len(record)
                if size > capacity:
                    page_id = pool.new_page(jumbo_record=record)
                    self._adopt_page(page_id)
                    self._jumbo_pages.add(page_id)
                    held_id = -1
                    rids.append(RID(page_id, 0))
                    continue
                target = -1
                for page_id in reversed(self.page_ids[-2:]):
                    if page_id in self._jumbo_pages:
                        continue
                    space = free.get(page_id)
                    if space is None:
                        held_id, held = page_id, pool.get_page(page_id)
                        space = free[page_id] = held.free_space()
                    if space >= size:
                        target = page_id
                        break
                if target < 0:
                    target = pool.new_page()
                    self._adopt_page(target)
                    held_id = -1
                if target != held_id:
                    held_id, held = target, pool.get_page(target)
                rids.append(RID(target, held.insert(record)))
                free[target] = held.free_space()
        except Exception:
            for rid in rids:
                pool.get_page(rid.page_id).delete(rid.slot)
            raise
        self._record_count += len(rids)
        return rids

    def _adopt_page(self, page_id: int) -> None:
        self.page_ids.append(page_id)
        self._page_set.add(page_id)

    def _page(self, page_id: int):
        """Fetch one of this file's pages; a page of another file is refused."""
        if page_id not in self._page_set:
            raise StorageError(f"page {page_id} does not belong to heap file {self.name!r}")
        return self.pool.get_page(page_id)

    def read(self, rid: RID) -> bytes:
        """Fetch a record by RID."""
        return self._page(rid.page_id).read(rid.slot)

    def delete(self, rid: RID) -> None:
        """Delete a record; its page space is not reclaimed."""
        self._page(rid.page_id).delete(rid.slot)
        self._record_count -= 1

    def read_run(self, page_id: int, slots: Sequence[int]) -> List[bytes]:
        """Fetch several records of one page with a single buffer-pool hit."""
        page = self._page(page_id)
        return [page.read(slot) for slot in slots]

    def page_records(self, page_id: int) -> Tuple[List[int], List[bytes]]:
        """The live slots of one page and their records, from one
        buffer-pool fetch."""
        slots: List[int] = []
        records: List[bytes] = []
        for slot, record in self._page(page_id).records():
            slots.append(slot)
            records.append(record)
        return slots, records

    # -- scans ------------------------------------------------------------------

    def scan(self) -> Iterator[Tuple[RID, bytes]]:
        """Yield every live record in page order (the sequential scan)."""
        for page_id in self.page_ids:
            page = self.pool.get_page(page_id)
            for slot, record in page.records():
                yield RID(page_id, slot), record

    def scan_records(
        self, page_ids: Optional[Sequence[int]] = None
    ) -> Iterator[List[bytes]]:
        """Yield the live record payloads one whole page at a time, without
        an :class:`RID` per record; ``page_ids`` restricts the scan to a
        subset of the file's pages (in the order given)."""
        for page_id in self.page_ids if page_ids is None else page_ids:
            yield [record for _slot, record in self._page(page_id).records()]
