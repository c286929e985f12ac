"""Page-based storage: serialization, slotted pages, the disk, buffer pool, heap files."""

from .buffer import BufferPool, BufferStats
from .disk import IoCounters, MemoryDisk
from .heapfile import RID, HeapFile
from .page import JumboPage, Page, PAGE_SIZE, page_capacity
from .serialize import (
    decode_pdf,
    decode_tuple,
    decode_value,
    encode_pdf,
    encode_tuple,
    encode_value,
    pdf_size,
)

__all__ = [
    "PAGE_SIZE",
    "Page",
    "JumboPage",
    "page_capacity",
    "MemoryDisk",
    "IoCounters",
    "BufferPool",
    "BufferStats",
    "HeapFile",
    "RID",
    "encode_value",
    "decode_value",
    "encode_pdf",
    "decode_pdf",
    "encode_tuple",
    "decode_tuple",
    "pdf_size",
]
