"""Micro-benchmarks of the engine substrate: serialization, storage, indexes.

These do not map to a paper figure; they document where the reproduction's
constant factors come from (useful when comparing against the paper's
absolute numbers — see EXPERIMENTS.md).  End-to-end numbers come from
``benchmarks/e2e/run.py`` (see docs/PERFORMANCE.md).

Run: ``pytest benchmarks/bench_micro_engine.py --benchmark-only -q``
"""

import pytest

from repro.core.history import HistoryStore
from repro.core.model import build_base_tuple
from repro.engine.index.btree import BPlusTree
from repro.engine.storage.buffer import BufferPool
from repro.engine.storage.disk import MemoryDisk
from repro.engine.storage.heapfile import HeapFile, RID
from repro.engine.storage.serialize import (
    decode_pdf,
    decode_tuple,
    encode_pdf,
    encode_tuple,
)
from repro.pdf import GaussianPdf, discretize, to_histogram
from repro.workloads import generate_readings, readings_schema

N = 500


@pytest.fixture(scope="module")
def readings():
    return generate_readings(N, seed=77)


@pytest.fixture(scope="module")
def encoded_tuples(readings):
    store = HistoryStore()
    schema = readings_schema()
    out = []
    for r in readings:
        t = build_base_tuple(
            schema, store, certain={"rid": r.rid}, uncertain={"value": r.pdf}
        )
        out.append(encode_tuple(t))
    return out


def bench_encode_gaussian_pdf(benchmark):
    g = GaussianPdf(20, 5, attr="value")
    benchmark(encode_pdf, g)


def bench_decode_gaussian_pdf(benchmark):
    data = encode_pdf(GaussianPdf(20, 5, attr="value"))
    benchmark(decode_pdf, data)


def bench_decode_discrete25_pdf(benchmark):
    data = encode_pdf(discretize(GaussianPdf(20, 5, attr="value"), 25))
    benchmark(decode_pdf, data)


def bench_decode_histogram5_pdf(benchmark):
    data = encode_pdf(to_histogram(GaussianPdf(20, 5, attr="value"), 5))
    benchmark(decode_pdf, data)


def bench_decode_full_tuples(benchmark, encoded_tuples):
    def run():
        for data in encoded_tuples:
            decode_tuple(data)

    benchmark(run)


def bench_heapfile_insert(benchmark, encoded_tuples):
    def run():
        heap = HeapFile(BufferPool(MemoryDisk(), capacity=64), name="b")
        for data in encoded_tuples:
            heap.insert(data)
        return heap

    benchmark.pedantic(run, rounds=3)


def bench_heapfile_scan(benchmark, encoded_tuples):
    heap = HeapFile(BufferPool(MemoryDisk(), capacity=64), name="b")
    for data in encoded_tuples:
        heap.insert(data)

    benchmark(lambda: sum(1 for _ in heap.scan()))


def bench_btree_insert(benchmark):
    def run():
        tree = BPlusTree(order=64)
        for i in range(2000):
            tree.insert(i * 7919 % 2000, RID(i, 0))
        return tree

    benchmark.pedantic(run, rounds=3)


def bench_btree_range_scan(benchmark):
    tree = BPlusTree(order=64)
    for i in range(2000):
        tree.insert(i, RID(i, 0))
    benchmark(lambda: sum(1 for _ in tree.range_scan(500, 1500)))

