"""Storage layer tests: pages, disks, buffer pool, heap files."""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.storage.buffer import BufferPool
from repro.engine.storage.disk import MemoryDisk
from repro.engine.storage.heapfile import HeapFile, RID
from repro.engine.storage.page import JumboPage, PAGE_SIZE, Page, page_capacity
from repro.errors import StorageError


class TestPage:
    def test_insert_read(self):
        page = Page()
        slot = page.insert(b"hello")
        assert page.read(slot) == b"hello"

    def test_multiple_records(self):
        page = Page()
        slots = [page.insert(f"record-{i}".encode()) for i in range(10)]
        for i, slot in enumerate(slots):
            assert page.read(slot) == f"record-{i}".encode()

    def test_records_iterates_live(self):
        page = Page()
        page.insert(b"a")
        s = page.insert(b"b")
        page.insert(b"c")
        page.delete(s)
        assert [rec for _, rec in page.records()] == [b"a", b"c"]

    def test_delete_twice_rejected(self):
        page = Page()
        s = page.insert(b"x")
        page.delete(s)
        with pytest.raises(StorageError):
            page.delete(s)

    def test_read_deleted_rejected(self):
        page = Page()
        s = page.insert(b"x")
        page.delete(s)
        with pytest.raises(StorageError):
            page.read(s)

    def test_bad_slot_rejected(self):
        page = Page()
        with pytest.raises(StorageError):
            page.read(0)

    def test_free_space_decreases(self):
        page = Page()
        before = page.free_space()
        page.insert(b"x" * 100)
        assert page.free_space() < before - 100

    def test_overflow_rejected(self):
        page = Page()
        with pytest.raises(StorageError):
            page.insert(b"x" * PAGE_SIZE)

    def test_fill_until_full(self):
        page = Page()
        count = 0
        record = b"y" * 100
        while page.free_space() >= len(record):
            page.insert(record)
            count += 1
        assert count == len(list(page.records()))
        with pytest.raises(StorageError):
            page.insert(record)

    def test_dirty_tracking(self):
        page = Page()
        assert not page.dirty
        page.insert(b"x")
        assert page.dirty


class TestJumboPage:
    def test_holds_one_big_record(self):
        record = b"z" * (PAGE_SIZE * 3)
        page = JumboPage.for_record(record)
        assert page.read(0) == record
        assert list(page.records()) == [(0, record)]

    def test_delete(self):
        page = JumboPage.for_record(b"big" * 2000)
        page.delete(0)
        assert not page.is_live(0)
        assert list(page.records()) == []

    def test_no_second_insert(self):
        page = JumboPage.for_record(b"big")
        with pytest.raises(StorageError):
            page.insert(b"more")

    def test_roundtrip_through_bytes(self):
        record = b"q" * 10_000
        page = JumboPage.for_record(record)
        reloaded = JumboPage(data=bytearray(page.data))
        assert reloaded.read(0) == record


class TestMemoryDisk:
    def test_allocate_write_read(self):
        disk = MemoryDisk()
        pid = disk.allocate()
        disk.write_page(pid, b"\x01" * PAGE_SIZE)
        assert bytes(disk.read_page(pid)) == b"\x01" * PAGE_SIZE

    def test_read_unwritten_rejected(self):
        disk = MemoryDisk()
        pid = disk.allocate()
        with pytest.raises(StorageError):
            disk.read_page(pid)

    def test_write_unallocated_rejected(self):
        disk = MemoryDisk()
        with pytest.raises(StorageError):
            disk.write_page(5, b"x")

    def test_io_units_for_jumbo(self):
        disk = MemoryDisk()
        pid = disk.allocate()
        disk.write_page(pid, b"x" * (PAGE_SIZE * 2 + 1))
        assert disk.counters.writes == 3
        disk.read_page(pid)
        assert disk.counters.reads == 3


class TestBufferPool:
    def test_hit_and_miss_counting(self):
        pool = BufferPool(MemoryDisk(), capacity=2)
        pid = pool.new_page()
        pool.get_page(pid)
        assert pool.stats.hits == 1
        pool.clear()
        pool.get_page(pid)
        assert pool.stats.misses == 1

    def test_lru_eviction_writes_dirty(self):
        pool = BufferPool(MemoryDisk(), capacity=2)
        pids = [pool.new_page() for _ in range(3)]
        # Creating the 3rd page evicts the 1st (dirty -> flushed).
        assert pool.stats.evictions >= 1
        assert pool.disk.counters.writes >= 1
        page = pool.get_page(pids[0])  # physical read back
        assert pool.disk.counters.reads >= 1

    def test_eviction_order_is_lru(self):
        pool = BufferPool(MemoryDisk(), capacity=2)
        a = pool.new_page()
        b = pool.new_page()
        pool.get_page(a)  # touch a: b is now LRU
        c = pool.new_page()  # evicts b
        pool.disk.counters.reset()
        pool.get_page(a)
        assert pool.disk.counters.reads == 0  # still cached
        pool.get_page(b)
        assert pool.disk.counters.reads == 1  # was evicted

    def test_flush_all_persists(self):
        disk = MemoryDisk()
        pool = BufferPool(disk, capacity=8)
        pid = pool.new_page()
        pool.get_page(pid).insert(b"data")
        pool.flush_all()
        assert disk.read_page(pid)  # written, so readable straight from the disk

    def test_capacity_validation(self):
        with pytest.raises(StorageError):
            BufferPool(MemoryDisk(), capacity=0)


class TestHeapFile:
    def _heap(self, capacity=64):
        return HeapFile(BufferPool(MemoryDisk(), capacity=capacity), name="t")

    def test_insert_read(self):
        heap = self._heap()
        rid = heap.insert(b"hello")
        assert heap.read(rid) == b"hello"
        assert len(heap) == 1

    def test_scan_in_order(self):
        heap = self._heap()
        records = [f"r{i}".encode() for i in range(100)]
        for r in records:
            heap.insert(r)
        assert [rec for _, rec in heap.scan()] == records

    def test_spills_to_multiple_pages(self):
        heap = self._heap()
        for _ in range(100):
            heap.insert(b"x" * 200)
        assert heap.num_pages > 1

    def test_jumbo_record(self):
        heap = self._heap()
        big = b"B" * (PAGE_SIZE * 2)
        rid = heap.insert(big)
        assert heap.read(rid) == big

    def test_mixed_sizes_scan(self):
        heap = self._heap()
        small = b"s" * 10
        big = b"B" * (page_capacity() + 100)
        heap.insert(small)
        heap.insert(big)
        heap.insert(small)
        # Scans run in page order: the second small record lands back on the
        # first ordinary page, before the jumbo page.
        assert sorted(rec for _, rec in heap.scan()) == sorted([small, big, small])
        assert len(heap) == 3

    def test_delete(self):
        heap = self._heap()
        rid1 = heap.insert(b"a")
        rid2 = heap.insert(b"b")
        heap.delete(rid1)
        assert len(heap) == 1
        assert [rec for _, rec in heap.scan()] == [b"b"]

    def test_read_foreign_rid_rejected(self):
        heap = self._heap()
        heap.insert(b"a")
        with pytest.raises(StorageError):
            heap.read(RID(999, 0))

    def test_delete_foreign_rid_rejected(self):
        """delete() must reject RIDs whose page was never part of this file.

        Regression test: delete() used to skip the membership check read()
        performs, so a stray RID could corrupt an unrelated file's page.
        """
        pool = BufferPool(MemoryDisk(), capacity=8)
        heap = HeapFile(pool, name="t")
        other = HeapFile(pool, name="other")
        rid_other = other.insert(b"x")
        heap.insert(b"a")
        with pytest.raises(StorageError):
            heap.delete(RID(999, 0))
        with pytest.raises(StorageError):
            heap.delete(rid_other)
        assert len(other) == 1
        assert other.read(rid_other) == b"x"

    def test_survives_buffer_pressure(self):
        """Data outlives eviction: everything reads back after cache churn."""
        heap = self._heap(capacity=2)
        records = [os.urandom(500) for _ in range(50)]
        rids = [heap.insert(r) for r in records]
        for rid, expected in zip(rids, records):
            assert heap.read(rid) == expected


@settings(max_examples=25, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=0, max_value=9000), min_size=1, max_size=40)
)
def test_heapfile_roundtrip_property(sizes):
    heap = HeapFile(BufferPool(MemoryDisk(), capacity=4), name="t")
    records = [bytes([i % 256]) * size for i, size in enumerate(sizes)]
    rids = [heap.insert(r) for r in records]
    assert len(set(rids)) == len(rids)
    for rid, expected in zip(rids, records):
        assert heap.read(rid) == expected
    assert sorted(rec for _, rec in heap.scan()) == sorted(records)
