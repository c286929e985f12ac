"""Slotted pages.

A page is a fixed-size byte buffer with the classic slotted layout:

::

    +--------+----------------------+-------------+------------------+
    | header | slot directory  ->   |  free space |  <- record heap  |
    +--------+----------------------+-------------+------------------+

* header: number of slots (u16) and the offset where the record heap
  begins (u16, grows downward from the end of the page),
* slot directory: per slot, (record offset u16, record length u16);
  offset ``0xFFFF`` marks a deleted slot,
* records are appended at the end and never moved (no compaction within a
  page; :meth:`Page.free_space` accounts for the loss, and the heap file
  prefers pages with room).

Records larger than a standard page get a dedicated *jumbo* page sized to
fit; the buffer pool charges jumbo pages multiple I/O units.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional, Tuple

from ...errors import StorageError

__all__ = ["Page", "PAGE_SIZE", "page_capacity"]

#: Default page size in bytes; the I/O accounting unit.
PAGE_SIZE = 4096

_HEADER = struct.Struct("<HH")  # (num_slots, heap_start)
_SLOT = struct.Struct("<HH")  # (offset, length)
_DELETED = 0xFFFF


def page_capacity(page_size: int = PAGE_SIZE) -> int:
    """Largest record that fits in an empty page of ``page_size`` bytes."""
    return page_size - _HEADER.size - _SLOT.size


class Page:
    """One slotted page over a mutable byte buffer."""

    __slots__ = ("data", "dirty")

    def __init__(self, data: Optional[bytearray] = None, size: int = PAGE_SIZE):
        if data is None:
            data = bytearray(size)
            _HEADER.pack_into(data, 0, 0, size)
        self.data = data
        self.dirty = False

    @property
    def size(self) -> int:
        return len(self.data)

    # -- header helpers -----------------------------------------------------

    def _header(self) -> Tuple[int, int]:
        return _HEADER.unpack_from(self.data, 0)

    def _set_header(self, num_slots: int, heap_start: int) -> None:
        _HEADER.pack_into(self.data, 0, num_slots, heap_start)
        self.dirty = True

    @property
    def num_slots(self) -> int:
        return self._header()[0]

    def _slot(self, index: int) -> Tuple[int, int]:
        return _SLOT.unpack_from(self.data, _HEADER.size + index * _SLOT.size)

    def _set_slot(self, index: int, offset: int, length: int) -> None:
        _SLOT.pack_into(self.data, _HEADER.size + index * _SLOT.size, offset, length)
        self.dirty = True

    # -- record operations -------------------------------------------------------

    def free_space(self) -> int:
        """Bytes available for one more record (including its slot entry)."""
        num_slots, heap_start = self._header()
        directory_end = _HEADER.size + num_slots * _SLOT.size
        return max(heap_start - directory_end - _SLOT.size, 0)

    def insert(self, record: bytes) -> int:
        """Store a record, returning its slot number."""
        if len(record) > 0xFFFE:
            raise StorageError(
                f"record of {len(record)} bytes exceeds the slotted-page limit; "
                "use a jumbo page"
            )
        if len(record) > self.free_space():
            raise StorageError(
                f"record of {len(record)} bytes does not fit "
                f"({self.free_space()} bytes free)"
            )
        num_slots, heap_start = self._header()
        offset = heap_start - len(record)
        self.data[offset : offset + len(record)] = record
        self._set_slot(num_slots, offset, len(record))
        self._set_header(num_slots + 1, offset)
        return num_slots

    def read(self, slot: int) -> bytes:
        """Fetch the record stored in ``slot``."""
        if slot < 0 or slot >= self.num_slots:
            raise StorageError(f"slot {slot} out of range (page has {self.num_slots})")
        offset, length = self._slot(slot)
        if offset == _DELETED:
            raise StorageError(f"slot {slot} was deleted")
        return bytes(self.data[offset : offset + length])

    def delete(self, slot: int) -> None:
        """Mark a slot deleted (space is not reclaimed within the page)."""
        if slot < 0 or slot >= self.num_slots:
            raise StorageError(f"slot {slot} out of range (page has {self.num_slots})")
        offset, _ = self._slot(slot)
        if offset == _DELETED:
            raise StorageError(f"slot {slot} already deleted")
        self._set_slot(slot, _DELETED, 0)

    def is_live(self, slot: int) -> bool:
        offset, _ = self._slot(slot)
        return offset != _DELETED

    def records(self) -> Iterator[Tuple[int, bytes]]:
        """Yield (slot, record bytes) for every live slot."""
        for slot in range(self.num_slots):
            offset, length = self._slot(slot)
            if offset != _DELETED:
                yield slot, bytes(self.data[offset : offset + length])


# Jumbo pages need 32-bit offsets/lengths; they carry exactly one record, so
# the slot entry is stored in a wider format at the same position.
_JUMBO_SLOT = struct.Struct("<II")


class JumboPage(Page):
    """A page holding exactly one oversized record (32-bit slot entry)."""

    __slots__ = ()

    def __init__(self, data: Optional[bytearray] = None, size: int = PAGE_SIZE):
        if data is None:
            data = bytearray(size)
            # Offsets can exceed 16 bits in a jumbo page; the header only
            # carries the slot count, the wide slot entry holds the rest.
            _HEADER.pack_into(data, 0, 0, 0)
        super().__init__(data=data, size=size)

    @classmethod
    def for_record(cls, record: bytes, page_size: int = PAGE_SIZE) -> "JumboPage":
        needed = _HEADER.size + _JUMBO_SLOT.size + len(record)
        size = max(page_size, needed)
        page = cls(size=size)
        offset = size - len(record)
        page.data[offset:] = record
        _HEADER.pack_into(page.data, 0, 1, 0)
        _JUMBO_SLOT.pack_into(page.data, _HEADER.size, offset, len(record))
        page.dirty = True
        return page

    def insert(self, record: bytes) -> int:  # pragma: no cover - not used
        raise StorageError("jumbo pages hold exactly one record")

    def read(self, slot: int) -> bytes:
        if slot != 0 or self.num_slots != 1:
            raise StorageError("jumbo pages hold exactly one record at slot 0")
        offset, length = _JUMBO_SLOT.unpack_from(self.data, _HEADER.size)
        if offset == 0:
            raise StorageError("jumbo record was deleted")
        return bytes(self.data[offset : offset + length])

    def delete(self, slot: int) -> None:
        if slot != 0:
            raise StorageError("jumbo pages hold exactly one record at slot 0")
        _JUMBO_SLOT.pack_into(self.data, _HEADER.size, 0, 0)
        self.dirty = True

    def is_live(self, slot: int) -> bool:
        offset, _ = _JUMBO_SLOT.unpack_from(self.data, _HEADER.size)
        return offset != 0

    def records(self) -> Iterator[Tuple[int, bytes]]:
        if self.is_live(0):
            yield 0, self.read(0)

    def free_space(self) -> int:
        return 0
