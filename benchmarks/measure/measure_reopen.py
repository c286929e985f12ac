#!/usr/bin/env python3
"""python benchmarks/measure/measure_reopen.py SRC [SRC ...] [--runs N] — what a loaded database costs to keep and reopen.

For each source tree (e.g. a clone of the parent commit's ``src`` and this checkout's), one child process loads the
e2e ``tpch_load`` instance (uncertain TPC-H at SF 0.0006, seed 0, in memory, ``create_tables`` + ``load_into``),
saves it as a snapshot and reopens that snapshot N times (default 5) per statement below.  It reports:

* ``snapshot_bytes``: the snapshot file's size;
* ``open_s``: the median wall seconds of ``Database.open``;
* ``open_decodes``: ``decode_prefix`` calls inside one ``Database.open`` (record prefixes an open decodes; the page
  synopses are derived state);
* ``first_range_s`` / ``first_threshold_s``: the median wall seconds of the first statement after a reopen, the e2e
  ``price_range`` and ``price_threshold`` selects (each run reopens the snapshot for each), which build whatever
  synopses the open left to the first scan;
* ``objects_load`` / ``objects_reopen``: gc-tracked objects (``len(gc.get_objects())`` after ``gc.collect()``) with
  only the loaded database, then only a reopened one, alive — each less the count before the load;
* ``store_load`` / ``store_reopen``: ``len(db.catalog.store)`` of the loaded and of the reopened database.

Regenerates docs/PERFORMANCE.md "A reopen reads pages, not records".
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


def _count_decode_prefix(decoded):
    """Route every module-level ``decode_prefix`` name of the loaded engine through a counter."""
    from repro.engine.storage import serialize

    original = serialize.decode_prefix

    def counted(*args, **kwargs):
        decoded[0] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "decode_prefix", None) is original:
            module.decode_prefix = counted


def child(runs):
    sys.path.insert(0, os.path.join(HERE, "..", "e2e"))
    from repro.engine.database import Database
    from repro.workloads import TpchConfig
    from repro.workloads.tpch_uncertain import create_tables, load_into
    from wl_tpch import EXTRA_STATEMENTS

    decoded = [0]
    _count_decode_prefix(decoded)

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
    print(json.dumps(out))


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
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(src, " ".join(f"{k}={v}" if isinstance(v, int) else f"{k}={v:.4g}" for k, v in result.items()))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(int(sys.argv[2]))
    else:
        main(sys.argv[1:])
