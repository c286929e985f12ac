#!/usr/bin/env python3
"""python benchmarks/measure/measure_reopen.py SRC [SRC ...] [--runs N] — what a loaded database costs to keep and reopen.

For each source tree (e.g. a clone of the parent commit's ``src`` and this checkout's), one child process loads the
e2e ``tpch_load`` instance (uncertain TPC-H at SF 0.0006, seed 0, in memory, ``create_tables`` + ``load_into``),
saves it as a snapshot and reopens that snapshot N times (default 5).  It reports:

* ``snapshot_bytes``: the snapshot file's size;
* ``open_s`` / ``rebuild_s``: the median wall seconds of ``Database.open`` and of the ``Table.rebuild_synopses`` calls
  inside it (page synopses are derived state, rebuilt on every open);
* ``objects_load`` / ``objects_reopen``: gc-tracked objects (``len(gc.get_objects())`` after ``gc.collect()``) with
  only the loaded database, then only a reopened one, alive — each less the count before the load;
* ``store_load`` / ``store_reopen``: ``len(db.catalog.store)`` of the loaded and of the reopened database.

Regenerates docs/PERFORMANCE.md "The heap holds the only copy of a base pdf".
"""
import gc
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time


def child(runs):
    from repro.engine import table as table_mod
    from repro.engine.database import Database
    from repro.workloads import TpchConfig
    from repro.workloads.tpch_uncertain import create_tables, load_into

    rebuilt = [0.0]
    rebuild = table_mod.Table.rebuild_synopses

    def timed_rebuild(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return rebuild(self, *args, **kwargs)
        finally:
            rebuilt[0] += time.perf_counter() - t0

    table_mod.Table.rebuild_synopses = timed_rebuild

    def tracked():
        gc.collect()
        return len(gc.get_objects())

    before = tracked()
    db = Database()
    create_tables(db)
    load_into(db, TpchConfig(scale_factor=0.0006, seed=0))
    out = {"objects_load": tracked() - before, "store_load": len(db.catalog.store)}
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "tpch.snapshot")
        db.save(path)
        out["snapshot_bytes"] = os.path.getsize(path)
        del db
        opens, rebuilds = [], []
        for _ in range(runs):
            reopened = None
            gc.collect()
            rebuilt[0] = 0.0
            t0 = time.perf_counter()
            reopened = Database.open(path)
            opens.append(time.perf_counter() - t0)
            rebuilds.append(rebuilt[0])
        out["objects_reopen"] = tracked() - before
        out["store_reopen"] = len(reopened.catalog.store)
    out["open_s"] = statistics.median(opens)
    out["rebuild_s"] = statistics.median(rebuilds)
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
