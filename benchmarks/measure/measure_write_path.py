#!/usr/bin/env python3
"""PYTHONPATH=src python benchmarks/measure/measure_write_path.py — per-phase cost of the batched write path.

Walks Table.insert_many's steps by hand over the 4,620 tuples of tpch_load (SF 0.0006, the benchmark's 500-row slices)
and prints microseconds per tuple per phase, min .. max of three timed repeats after a warm-up.  The phases are timed on
a clock that stands still while the cyclic collector runs, so the collector's time is a row of its own.  Regenerates the
"this commit" column of the table in docs/PERFORMANCE.md "Write path".
"""
import gc
import time

from repro.engine.database import Database
from repro.workloads import TpchConfig, create_tables, synthesize

cfg = TpchConfig(scale_factor=0.0006, seed=0)
data = synthesize(cfg)
total = len(data.lineitem) + len(data.orders) + len(data.part)
collector = [0.0, 0.0]  # seconds spent in the cyclic collector, start of the running pass


def _gc_pass(phase, info):
    if phase == "start":
        collector[1] = time.perf_counter()
    else:
        collector[0] += time.perf_counter() - collector[1]


gc.callbacks.append(_gc_pass)


def perf():  # a clock that stands still while the collector runs: its time is its own row
    return time.perf_counter() - collector[0]


def phases(table, rows, acc):  # Table.insert_many, step by step
    from repro.core.model import build_base_tuples
    from repro.engine.storage.serialize import encode_record
    t0 = perf()
    tuples = build_base_tuples(table.schema, table.store, rows)
    t1 = perf()
    encoded = [encode_record(t, table.store_lineage) for t in tuples]
    records = [record for record, _deps in encoded]
    t2 = perf()
    rids = table.heap.insert_many(records)
    t3 = perf()
    for rid, t, (_record, deps) in zip(rids, tuples, encoded):
        table._synopsis_add(rid, t.certain, deps)
    t4 = perf()
    table.txn.on_insert(table, rids, tuples, records, True)
    t5 = perf()
    for key, dt in zip(("build", "encode", "heap", "synopsis", "index+hook"),
                       (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
        acc[key] = acc.get(key, 0.0) + dt


runs = []
for _ in range(4):  # the first is the warm-up
    db = Database()
    create_tables(db)
    gc.collect()
    acc = {"collector": -collector[0]}
    for name in ("lineitem", "orders", "part"):
        rows = getattr(data, name)
        for i in range(0, len(rows), 500):  # the slices tpch_load feeds load_into
            phases(db.table(name), rows[i:i + 500], acc)
    acc["collector"] += collector[0]
    runs.append({k: v / total * 1e6 for k, v in acc.items()})
for key in runs[0]:
    values = sorted(r[key] for r in runs[1:])
    print(f"{key:<11}{values[0]:6.1f} .. {values[-1]:5.1f} us/tuple")
totals = sorted(sum(r.values()) for r in runs[1:])
print(f"{'total':<11}{totals[0]:6.1f} .. {totals[-1]:5.1f} us/tuple over {total} tuples")
