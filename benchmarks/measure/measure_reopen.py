#!/usr/bin/env python3
"""python benchmarks/measure/measure_reopen.py SRC [SRC ...] [--runs N] — what a loaded database costs to keep and reopen.

For each source tree (e.g. a clone of the parent commit's ``src`` and this checkout's), one child process measures two
cases and prints one line for each.

``tpch_load``: the e2e ``tpch_load`` instance (uncertain TPC-H at SF 0.0006, seed 0, in memory, ``create_tables`` +
``load_into``), saved as a snapshot and reopened N times (default 5) per statement below:

* ``snapshot_bytes``: the snapshot file's size;
* ``open_s``: the median wall seconds of ``Database.open``;
* ``open_decodes``: ``decode_prefix`` calls on stored records inside one ``Database.open`` (record prefixes an open
  decodes; the page synopses are derived state);
* ``first_range_s`` / ``first_threshold_s``: the median wall seconds of the first statement after a reopen, the e2e
  ``price_range`` and ``price_threshold`` selects (each run reopens the snapshot for each), which build whatever
  synopses the open left to the first scan;
* ``objects_load`` / ``objects_reopen``: gc-tracked objects (``len(gc.get_objects())`` after ``gc.collect()``) with
  only the loaded database, then only a reopened one, alive — each less the count before the load;
* ``store_load`` / ``store_reopen``: ``len(db.catalog.store)`` of the loaded and of the reopened database.

``sensor_btree``: the seed-0 stream of the e2e ``sensor_durable`` workload on a durable database (its ``readings``
table with the B+tree on ``rid``, its preload, then every mutating statement of the stream at the workload's
checkpoint interval), closed after its last checkpoint plus the commits logged since, and reopened N times:

* ``replayed``: the logged commits each reopen replays;
* ``open_s``: the median wall seconds of the durable open (checkpoint read plus log replay);
* ``open_decodes``: ``decode_prefix`` calls on stored records inside one open (the replay's decode of each logged
  record reads the log, not the heap, and is not counted);
* ``first_point_s``: the median wall seconds of the open plus the stream's first ``rid = k`` select, which reads
  through the B+tree.

Regenerates docs/PERFORMANCE.md "A reopen reads pages, not records" and "A reopen builds no B+tree".
"""
import gc
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _count_decode_prefix(decoded, logged):
    """Route every module-level ``decode_prefix`` name of the loaded engine through a counter that
    skips the buffers of ``logged`` (WAL record payloads, keyed by ``id``)."""
    from repro.engine.storage import serialize

    original = serialize.decode_prefix

    def counted(buf, *args, **kwargs):
        decoded[0] += id(buf) not in logged
        return original(buf, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "decode_prefix", None) is original:
            module.decode_prefix = counted


def _keep_logged_payloads(logged):
    """Hold every decoded WAL record's payload in ``logged`` (by ``id``; held, so no id is reused)."""
    from repro.engine import wal

    original = wal.decode_record

    def kept(payload):
        record = original(payload)
        logged[id(record.payload)] = record.payload
        return record

    wal.decode_record = kept


def child(runs):
    sys.path.insert(0, os.path.join(HERE, "..", "e2e"))
    decoded, logged = [0], {}
    out = {"tpch_load": tpch_load(runs, decoded, logged), "sensor_btree": sensor_btree(runs, decoded, logged)}
    print(json.dumps(out))


def tpch_load(runs, decoded, logged):
    from repro.engine.database import Database
    from repro.workloads import TpchConfig
    from repro.workloads.tpch_uncertain import create_tables, load_into
    from wl_tpch import EXTRA_STATEMENTS

    _count_decode_prefix(decoded, logged)  # once, for both cases

    def tracked():
        gc.collect()
        return len(gc.get_objects())

    before = tracked()
    db = Database()
    create_tables(db)
    load_into(db, TpchConfig(scale_factor=0.0006, seed=0))
    out = {"objects_load": tracked() - before, "store_load": len(db.catalog.store)}
    firsts = {"price_range": [], "price_threshold": []}
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "tpch.snapshot")
        db.save(path)
        out["snapshot_bytes"] = os.path.getsize(path)
        del db
        reopened = Database.open(path)  # before any statement fills a cache
        out["objects_reopen"] = tracked() - before
        out["store_reopen"] = len(reopened.catalog.store)
        opens = []
        for _ in range(runs):
            for name, seconds in firsts.items():
                reopened = None
                gc.collect()
                decoded[0] = 0
                t0 = time.perf_counter()
                reopened = Database.open(path)
                opens.append(time.perf_counter() - t0)
                out["open_decodes"] = decoded[0]
                t0 = time.perf_counter()
                reopened.execute(EXTRA_STATEMENTS[name])
                seconds.append(time.perf_counter() - t0)
    out["open_s"] = statistics.median(opens)
    out["first_range_s"] = statistics.median(firsts["price_range"])
    out["first_threshold_s"] = statistics.median(firsts["price_threshold"])
    return out


def sensor_btree(runs, decoded, logged):
    from repro.engine.database import Database
    from repro.engine.wal import scan_wal
    from wl_sensor import CHECKPOINT_EVERY, MUTATING, SIZES, Stream, _preload

    _keep_logged_payloads(logged)
    stream = Stream(0, SIZES)
    point = next(sql for kind, sql, _expect, _live in stream.statements if kind == "point")
    out = {}
    opens, firsts = [], []
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "db")

        def reopen():
            return Database(path=path, group_commit=1, checkpoint_every=CHECKPOINT_EVERY)

        db = reopen()
        _preload(db, stream)
        for kind, sql, _expect, _live in stream.statements:
            if kind in MUTATING:
                db.execute(sql)
        db.close()
        out["replayed"] = len(scan_wal(os.path.join(path, "wal.log"))[1])
        for _ in range(runs):
            db = None
            gc.collect()
            decoded[0] = 0
            logged.clear()
            t0 = time.perf_counter()
            db = reopen()
            opens.append(time.perf_counter() - t0)
            out["open_decodes"] = decoded[0]
            db.execute(point)
            firsts.append(time.perf_counter() - t0)
            db.close()
    out["open_s"] = statistics.median(opens)
    out["first_point_s"] = statistics.median(firsts)
    return out


def main(argv):
    runs = "5"
    if "--runs" in argv:
        i = argv.index("--runs")
        runs = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    for src in argv:
        done = subprocess.run(
            [sys.executable, __file__, "--child", runs],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, text=True, check=True,
        )
        for case, result in json.loads(done.stdout.strip().splitlines()[-1]).items():
            print(src, case, " ".join(f"{k}={v}" if isinstance(v, int) else f"{k}={v:.4g}" for k, v in result.items()))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(int(sys.argv[2]))
    else:
        main(sys.argv[1:])
