#!/usr/bin/env python3
"""python benchmarks/measure/measure_join_breakdown.py SRC [SRC ...] [--runs N] — where `join_orders` spends its time.

For each source tree (e.g. a clone of the parent commit's ``src`` and this checkout's), one child process loads uncertain TPC-H at
SF 0.0003 (seed 0, in memory, the ``tpch_join`` instance), runs ``query_suite``'s ``join_orders`` N times (default 10,
one untimed first, ``gc.collect()`` before each) and reports medians of: the statement's wall seconds; record decode
(``decode_prefix`` / ``decode_tuple`` / ``TuplePrefix.complete``, as the scan calls them); renaming
(``_TupleRenamer.__call__``, both join inputs); pair merging (``_merge_pair``), each net of the collector pauses it
contains; cyclic-collector pauses (``gc.callbacks``); result rows and dependency sets per row.  Regenerates the
``join_orders`` line of ROADMAP "Measured facts" and the breakdown in docs/PERFORMANCE.md "Decode what the
statement reads".  Timing wrappers add about 0.3 us per call to every column but the collector's.
"""
import gc
import json
import os
import statistics
import subprocess
import sys
import time


def child(runs):
    from repro.engine import table as table_mod
    from repro.engine.database import Database
    from repro.engine.executor import relational
    from repro.engine.storage import serialize
    from repro.workloads import TpchConfig, generate_tpch, query_suite

    spent = {"decode_s": 0.0, "rename_s": 0.0, "merge_s": 0.0, "gc_s": 0.0}

    def timed(key, fn):
        def wrapper(*args, **kwargs):  # net of the collector pauses inside the call
            t0, gc0 = time.perf_counter(), spent["gc_s"]
            try:
                return fn(*args, **kwargs)
            finally:
                spent[key] += time.perf_counter() - t0 - (spent["gc_s"] - gc0)
        return wrapper

    for name in ("decode_prefix", "decode_tuple"):
        setattr(table_mod, name, timed("decode_s", getattr(table_mod, name)))
    prefix_cls = serialize.TuplePrefix
    prefix_cls.complete = timed("decode_s", prefix_cls.complete)
    relational._TupleRenamer.__call__ = timed("rename_s", relational._TupleRenamer.__call__)
    relational._merge_pair = timed("merge_s", relational._merge_pair)
    gc_start = []
    gc.callbacks.append(
        lambda phase, _info: gc_start.append(time.perf_counter()) if phase == "start"
        else spent.__setitem__("gc_s", spent["gc_s"] + time.perf_counter() - gc_start.pop())
    )

    cfg = TpchConfig(scale_factor=0.0003, seed=0)
    db = Database()
    generate_tpch(db, cfg)
    sql = dict(query_suite(cfg))["join_orders"]
    db.execute(sql)
    samples = []
    for _ in range(runs):
        gc.collect()
        for key in spent:
            spent[key] = 0.0
        t0 = time.perf_counter()
        rows = db.execute(sql).rows
        samples.append({"wall_s": time.perf_counter() - t0, **spent})
    out = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    out["rows"] = len(rows)
    out["sets_per_row"] = sum(len(t.pdfs) for t in rows) / max(len(rows), 1)
    print(json.dumps(out))


def main(argv):
    runs = 10
    if "--runs" in argv:
        i = argv.index("--runs")
        runs = int(argv[i + 1])
        argv = argv[:i] + argv[i + 2:]
    for src in argv:
        done = subprocess.run(
            [sys.executable, __file__, "--child", str(runs)],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(src, " ".join(f"{k}={v:.4g}" for k, v in result.items()))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(int(sys.argv[2]))
    else:
        main(sys.argv[1:])
