"""The Grace path of ``HashJoin``: what it encodes, how its keys match, how it
recurses on skew and what a crash inside it leaves behind.

Past ``work_mem`` both join inputs are hash-partitioned to disk as frames
that carry each row's join key beside its record bytes.  A leaf partition
matches on those keys without decoding a tuple, writes every match as a
pair frame of the two rows' bytes, and the merge decodes each pair once.
Whatever the budget, the answer is the in-memory join's, tuple ids
included.
"""

from __future__ import annotations

import math
import os
from dataclasses import replace

import pytest

from repro.core import Column, DataType, ProbabilisticRelation, ProbabilisticSchema
from repro.core.model import ModelConfig
from repro.core.operations import PDF_OP_CACHE
from repro.core.predicates import Comparison, col
from repro.engine import faults
from repro.engine.database import Database
from repro.engine.executor import HashJoin, RelationScan, relational
from repro.engine.executor.spill import SpillFile, SpillManager, buffer_share
from repro.engine.faults import InjectedCrash
from repro.engine.storage import serialize
from repro.pdf import GaussianPdf

from ..fault import kill_wal
from .test_columnar_equivalence import assert_rows_equal
from .test_spill_equivalence import BUDGETS, _spill_leftovers, few_descriptors, rows_of


def _relation(prefix, keys, store=None, key_type=DataType.INT):
    """``(prefix)id``, key ``(prefix)k`` and an uncertain ``(prefix)v`` per key."""
    attr = f"{prefix}v"
    schema = ProbabilisticSchema(
        [
            Column(f"{prefix}id", DataType.INT),
            Column(f"{prefix}k", key_type),
            Column(attr, DataType.REAL),
        ],
        [{attr}],
    )
    rel = ProbabilisticRelation(schema, store=store, name=prefix)
    for i, key in enumerate(keys):
        pdf = None if i % 4 == 3 else GaussianPdf(float(i), 1.0 + i % 3)
        rel.insert(certain={f"{prefix}id": i, f"{prefix}k": key}, uncertain={attr: pdf})
    return rel


def _join(left, right, work_mem):
    return HashJoin(
        RelationScan(left),
        RelationScan(right),
        "lk",
        "rk",
        Comparison("lk", "=", col("rk")),
        left.store,
        ModelConfig(work_mem=work_mem),
    )


def _run(left, right, work_mem, id0):
    left.store._next_tuple_id = id0
    PDF_OP_CACHE.reset()
    join = _join(left, right, work_mem)
    return join, rows_of(join, 7)


@pytest.mark.parametrize("work_mem", [1, 4096])
def test_grace_join_encodes_each_row_once_and_decodes_only_at_the_merge(
    monkeypatch, work_mem
):
    """Every input row with a matchable key is encoded once; partitioning
    and the leaves (recursion included) decode nothing; the merge decodes
    two records per match and nothing is re-encoded."""
    lkeys = [i % 5 if i % 7 else None for i in range(40)]
    rkeys = [i % 6 if i % 5 else None for i in range(25)]
    left = _relation("l", lkeys)
    right = _relation("r", rkeys, store=left.store)
    id0 = left.store._next_tuple_id
    _, in_memory = _run(left, right, None, id0)

    calls = {"encode": 0, "decode": 0}
    encode_record, decode_prefix = serialize.encode_record, serialize.decode_prefix

    def counting_encode(*args, **kwargs):
        calls["encode"] += 1
        return encode_record(*args, **kwargs)

    def counting_decode(*args, **kwargs):
        calls["decode"] += 1
        return decode_prefix(*args, **kwargs)

    monkeypatch.setattr(serialize, "encode_record", counting_encode)
    monkeypatch.setattr(serialize, "decode_prefix", counting_decode)
    after_leaves = {}
    join_partitions = HashJoin._join_partitions

    def spy(self, mgr, rparts, lparts, level, *rest):
        join_partitions(self, mgr, rparts, lparts, level, *rest)
        if level == 1:  # the top-level call returns after the last leaf
            after_leaves.update(calls)

    monkeypatch.setattr(HashJoin, "_join_partitions", spy)
    join, spilled = _run(left, right, work_mem, id0)

    assert join.spill_partitions > 0
    assert_rows_equal(in_memory, spilled)
    keyed_rows = sum(k is not None for k in lkeys) + sum(k is not None for k in rkeys)
    assert after_leaves == {"encode": keyed_rows, "decode": 0}
    assert calls == {"encode": keyed_rows, "decode": 2 * len(spilled)}


@pytest.mark.parametrize("key_type", [DataType.INT, DataType.TEXT])
def test_recursion_gives_distinct_keys_their_own_leaves(key_type):
    """At ``work_mem=1`` every partition recurses to the deepest level.  Each
    level splits on four fresh bits of one mixed hash of the key, so six
    levels reach 16^6 paths and 1,000 distinct keys end in about 1,000
    leaves (a per-level salted ``hash`` reached fewer than 100), and the
    answer is the in-memory join's row for row, ids and order included."""
    keys = list(range(1000)) if key_type is DataType.INT else [f"key-{i}" for i in range(1000)]
    left = _relation("l", keys, key_type=key_type)
    right = _relation("r", keys[::-1], store=left.store, key_type=key_type)
    id0 = left.store._next_tuple_id
    _, in_memory = _run(left, right, None, id0)
    join, spilled = _run(left, right, 1, id0)
    assert join.spill_partitions >= 900
    assert_rows_equal(in_memory, spilled)


def test_grace_merge_holds_no_descriptor_per_pair_file():
    """At ``work_mem=1`` every partition recurses to the deepest level, so
    1,000 TEXT keys end in about as many leaves, each with its pair file;
    the merge drains more pair files than the process may have open, and
    equals the in-memory join."""
    keys = [f"key-{i}" for i in range(1000)]
    left = _relation("l", keys + keys, key_type=DataType.TEXT)
    right = _relation("r", keys, store=left.store, key_type=DataType.TEXT)
    id0 = left.store._next_tuple_id
    _, in_memory = _run(left, right, None, id0)
    pair_files = []
    merge_readers = relational.readers

    def spy(files, work_mem):
        pair_files.extend(files)
        return merge_readers(files, work_mem)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(relational, "readers", spy)
        with few_descriptors(headroom=24) as limit:
            join, spilled = _run(left, right, 1, id0)
    assert len(pair_files) == join.spill_partitions > limit
    assert_rows_equal(in_memory, spilled)


def test_spill_write_buffers_share_work_mem(monkeypatch):
    """A Grace pass writes 16 partition files at once, so each write buffer
    gets a sixteenth of ``work_mem``: the bytes buffered in the open spill
    files never exceed the budget, and the answer is the in-memory join's
    row for row."""
    work_mem = 128 * 1024
    keys = list(range(1500))
    left = _relation("l", keys)
    right = _relation("r", keys[::-1], store=left.store)
    id0 = left.store._next_tuple_id
    _, in_memory = _run(left, right, None, id0)
    files, peak = [], [0]
    create, append = SpillManager.create_file, SpillFile.append

    def tracked(self, *args, **kwargs):
        f = create(self, *args, **kwargs)
        files.append(f)
        return f

    def measured(self, *args):
        append(self, *args)
        buffered = sum(f._buf.tell() for f in files if f._file is not None)
        peak[0] = max(peak[0], buffered)

    monkeypatch.setattr(SpillManager, "create_file", tracked)
    monkeypatch.setattr(SpillFile, "append", measured)
    join, spilled = _run(left, right, work_mem, id0)
    assert join.spill_partitions > 0
    assert sum(f.bytes for f in files) > 4 * work_mem  # more than the budget went to disk
    assert 0 < peak[0] <= work_mem
    assert_rows_equal(in_memory, spilled)


def test_grace_leaves_read_within_the_budget(monkeypatch):
    """Every spill file a Grace join reads streams through a buffer of at
    most ``work_mem``: a leaf's two partition files share the budget, on
    every level of the recursion, and so do the merge's pair files."""
    work_mem = 4096
    keys = list(range(300))
    left = _relation("l", keys)
    right = _relation("r", keys[::-1], store=left.store)
    id0 = left.store._next_tuple_id
    _, in_memory = _run(left, right, None, id0)
    sizes, read = [], SpillFile.read

    def recorded(self, buffer_bytes=buffer_share(None, 1)):
        sizes.append(buffer_bytes)
        return read(self, buffer_bytes)

    monkeypatch.setattr(SpillFile, "read", recorded)
    join, spilled = _run(left, right, work_mem, id0)
    assert join.spill_partitions > relational.HashJoin._GRACE_FANOUT  # it recursed
    assert buffer_share(work_mem, 2) in sizes
    assert max(sizes) <= work_mem, sorted(set(sizes))
    assert_rows_equal(in_memory, spilled)


NAN = float("nan")
#: keys that match as dict keys do (1 == 1.0 == True, 0.0 == -0.0), a NaN
#: that matches nothing (one object, shared by both sides), TEXT and NULL
LEFT_KEYS = [1, 1.0, True, 0.0, -0.0, NAN, "a", None, 2, "b", 1, NAN, -0.0, None, "a"]
RIGHT_KEYS = [True, -0.0, NAN, "a", 1.0, None, 0, "c", 1, NAN, 0.0, "a"]


def _dict_join(lkeys, rkeys):
    """The reference: ``(left id, right id)`` per pair, from a Python dict."""
    buckets = {}
    for rid, key in enumerate(rkeys):
        if key is not None and not (isinstance(key, float) and math.isnan(key)):
            buckets.setdefault(key, []).append(rid)
    return [(lid, rid) for lid, key in enumerate(lkeys) for rid in buckets.get(key, ())]


def test_key_semantics_survive_the_frames():
    """Keys round-trip through the partition frames with dict-key equality:
    every budget gives the dict join's pairs, in its order, with the same
    tuple ids; NULL and NaN keys match nothing."""
    left = _relation("l", LEFT_KEYS, key_type=DataType.REAL)
    right = _relation("r", RIGHT_KEYS, store=left.store, key_type=DataType.REAL)
    id0 = left.store._next_tuple_id
    reference = _dict_join(LEFT_KEYS, RIGHT_KEYS)
    assert len(reference) == 25  # 4 x 3 ones, 3 x 3 zeros, 2 x 2 "a"
    rows = {}
    for work_mem in BUDGETS:
        join, rows[work_mem] = _run(left, right, work_mem, id0)
        assert (join.spill_partitions > 0) == (work_mem is not None)
        pairs = [(t.certain["lid"], t.certain["rid"]) for t in rows[work_mem]]
        assert pairs == reference
        for t in rows[work_mem]:  # each side keeps its own key value, type included
            assert repr(t.certain["lk"]) == repr(LEFT_KEYS[t.certain["lid"]])
            assert repr(t.certain["rk"]) == repr(RIGHT_KEYS[t.certain["rid"]])
    for work_mem in BUDGETS[1:]:
        assert [t.tuple_id for t in rows[work_mem]] == [t.tuple_id for t in rows[None]]
        assert [t.pdfs for t in rows[work_mem]] == [t.pdfs for t in rows[None]]
        assert [t.lineage for t in rows[work_mem]] == [t.lineage for t in rows[None]]


JOIN_SQL = "SELECT aid, bid, v, w FROM a, b WHERE k = bk"


def _durable(path, keys, work_mem=None):
    """A durable database of two tables whose join keys cycle through ``keys``."""
    db = Database(path=path, config=ModelConfig(work_mem=work_mem))
    db.execute("CREATE TABLE a (aid INT, k INT, v REAL UNCERTAIN)")
    db.execute("CREATE TABLE b (bid INT, bk INT, w REAL UNCERTAIN)")
    for i in range(24):
        db.execute(f"INSERT INTO a VALUES ({i}, {keys[i % len(keys)]}, GAUSSIAN({i}, 2))")
    for i in range(16):
        db.execute(f"INSERT INTO b VALUES ({i}, {keys[i % len(keys)]}, UNIFORM({i}, {i + 3}))")
    return db


@pytest.mark.parametrize("keys", [(7,), (3, 8)], ids=["one_key", "two_keys"])
def test_skewed_keys_recurse_to_the_deepest_level(tmp_path, monkeypatch, keys):
    """Rows that share one or two keys never fit ``work_mem=1``: every
    partition holding them recurses to ``_GRACE_MAX_LEVEL``, joins there in
    memory, equals the in-memory join (tuple ids included) and leaves no
    spill file."""
    levels = []
    join_partition = HashJoin._join_partition

    def spy(self, mgr, rfile, lfile, level, *rest):
        levels.append(level)
        return join_partition(self, mgr, rfile, lfile, level, *rest)

    monkeypatch.setattr(HashJoin, "_join_partition", spy)
    results = {}
    for work_mem in (None, 1):
        path = str(tmp_path / f"db{work_mem}")
        db = _durable(path, keys, work_mem)
        try:
            results[work_mem] = db.execute(JOIN_SQL).rows
            if work_mem:
                assert max(levels) == HashJoin._GRACE_MAX_LEVEL
                text = db.execute("EXPLAIN ANALYZE " + JOIN_SQL).plan_text
                assert "spill_partitions=" in text, text
            else:
                assert levels == []
            assert _spill_leftovers(path) == []
        finally:
            db.close()
    assert len(results[None]) == 24 * 16 // len(keys)
    assert_rows_equal(results[None], results[1])


@pytest.mark.parametrize("hit", ["first", "last"])
def test_crash_inside_a_grace_join_leaves_files_that_recovery_clears(tmp_path, hit):
    """Crash at the first ``spill.write`` (a partition file) or the last
    (a pair file): the files survive the crash, recovery clears them, and
    the recovered database joins to the in-memory answer."""
    path = str(tmp_path / "db")
    db = _durable(path, (1, 2, 3, 4, 5))
    expected = db.execute(JOIN_SQL).rows
    db.catalog.config = replace(db.catalog.config, work_mem=1)

    faults.disarm_all()  # earlier tests advanced the spill.write hit counter
    try:
        assert_rows_equal(expected, db.execute(JOIN_SQL).rows, compare_ids=False)
        writes = faults.INJECTOR.counts()["spill.write"]
        faults.disarm_all()
        faults.arm("spill.write", 1 if hit == "first" else writes)
        with pytest.raises(InjectedCrash):
            db.execute(JOIN_SQL)
    finally:
        faults.disarm_all()

    leftovers = [os.path.basename(f) for f in _spill_leftovers(path)]
    assert leftovers, "spill.write crash left no files on disk"
    if hit == "last":
        assert any(name.startswith("pairs") for name in leftovers), leftovers
    else:
        assert not any(name.startswith("pairs") for name in leftovers), leftovers
    kill_wal(db)  # simulated process death

    recovered = Database(path=path)
    try:
        assert _spill_leftovers(path) == [], "recovery kept stale spill files"
        recovered.catalog.config = replace(recovered.catalog.config, work_mem=1)
        assert "spill_partitions=" in recovered.execute("EXPLAIN ANALYZE " + JOIN_SQL).plan_text
        assert_rows_equal(expected, recovered.execute(JOIN_SQL).rows, compare_ids=False)
        assert _spill_leftovers(path) == []
    finally:
        recovered.close()
