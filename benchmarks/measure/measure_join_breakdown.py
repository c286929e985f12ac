#!/usr/bin/env python3
"""python benchmarks/measure/measure_join_breakdown.py SRC [SRC ...] [--runs N] [--sql TEXT] [--work-mem BYTES] — where a statement spends its time.

For each source tree (e.g. a clone of the parent commit's ``src`` and this checkout's), one child process loads uncertain TPC-H at
SF 0.0003 (seed 0, in memory, the ``tpch_join`` / ``tpch_scan`` instance), runs one statement N times (default 10, one untimed
first, ``gc.collect()`` before each) and reports medians of: the statement's wall seconds; record decode (``decode_prefix`` /
``decode_tuple`` / ``TuplePrefix.complete``, as the scan calls them); renaming (``_TupleRenamer.__call__``, both join inputs);
pair merging (``_merge_pair``); existence (``tuple_probability`` / ``probability_of`` as ``repro.core.aggregates`` calls
them); the rest of the ``repro.core.aggregates`` calls the engine makes (``aggregate_s``); cyclic-collector pauses
(``gc.callbacks``); result rows, dependency sets per result row and sets decoded per scanned row.  Every timed column is net
of the collector pauses and of the other timed calls it contains, so the columns add up to at most ``wall_s``.

``--work-mem BYTES`` runs the statement under ``ModelConfig(work_mem=BYTES)`` (default: unbounded) and adds two columns:
``spill_write_s`` (spill frame writes: ``SpillFile.append`` / ``finish`` and the ``encode_tuple`` calls of the executor's
spill code) and ``spill_read_s`` (``SpillFile.read`` and the executor's ``decode_tuple`` calls, record decode included).
``--sql join_orders --work-mem 131072`` is the spilled join of the e2e ``tpch_join`` workload; it regenerates
docs/PERFORMANCE.md "Grace join".

``--sql`` is a ``query_suite`` name or SQL text (default ``join_orders``); the e2e benchmark's ``count_by_status`` is
``--sql "SELECT l_linestatus, COUNT(*) FROM lineitem GROUP BY l_linestatus"``.  Regenerates the ``join_orders`` line of
ROADMAP "Measured facts" and the breakdowns in docs/PERFORMANCE.md "Decode what the statement reads" and "Aggregates
read only their sets".  Timing wrappers add about 0.3 us per call to every column but the collector's.
"""
import gc
import json
import os
import statistics
import subprocess
import sys
import time


def child(runs, sql, work_mem):
    from repro.core import aggregates
    from repro.core.model import ModelConfig
    from repro.engine import table as table_mod
    from repro.engine.database import Database
    from repro.engine.executor import relational, spill
    from repro.engine.storage import serialize
    from repro.workloads import TpchConfig, generate_tpch, query_suite

    columns = ["decode_s", "rename_s", "merge_s", "existence_s", "aggregate_s", "gc_s"]
    if work_mem:
        columns += ["spill_write_s", "spill_read_s"]
    spent = dict.fromkeys(columns, 0.0)
    decoded = {"rows": 0, "sets": 0}
    spilling = [0]  # depth of spill calls on the stack: their decodes are spill reads

    def timed(key, fn):
        def wrapper(*args, **kwargs):  # net of the collector pauses and timed calls inside the call
            t0, inner0 = time.perf_counter(), sum(spent.values())
            try:
                return fn(*args, **kwargs)
            finally:
                spent[key] += time.perf_counter() - t0 - (sum(spent.values()) - inner0)
        return wrapper

    for name in ("decode_prefix", "decode_tuple"):
        setattr(table_mod, name, timed("decode_s", getattr(table_mod, name)))
    prefix_cls = serialize.TuplePrefix
    complete = prefix_cls.complete

    def counted(prefix, read_sets=None, *args, **kwargs):
        # Sets decoded: the read set (a scan's sets are its table's, so every
        # record holds them all) or, reading every set, the record's payload
        # count; ``prefix.deps`` would decode the summaries a scan skips.
        decoded["rows"] += 1
        decoded["sets"] += len(read_sets) if read_sets is not None else len(prefix._payloads)
        return complete(prefix, read_sets, *args, **kwargs)

    counted = timed("decode_s", counted)

    def complete_hook(prefix, *args, **kwargs):  # ``complete``'s arguments pass through
        if spilling[0]:
            return complete(prefix, *args, **kwargs)
        return counted(prefix, *args, **kwargs)

    prefix_cls.complete = complete_hook

    def spill_call(key, fn):
        def wrapper(*args, **kwargs):
            spilling[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                spilling[0] -= 1
        return timed(key, wrapper)

    def spill_iter(key, fn):  # a generator: each step is timed
        step = spill_call(key, next)

        def wrapper(*args, **kwargs):
            frames = fn(*args, **kwargs)
            while True:
                try:
                    yield step(frames)
                except StopIteration:
                    return
        return wrapper

    if work_mem:
        for mod in (relational, spill):  # wherever the executor's spill code encodes rows
            for name, key in (("encode_tuple", "spill_write_s"), ("decode_tuple", "spill_read_s")):
                if hasattr(mod, name):
                    setattr(mod, name, spill_call(key, getattr(mod, name)))
        for name in ("append", "finish"):
            setattr(spill.SpillFile, name, spill_call("spill_write_s", getattr(spill.SpillFile, name)))
        spill.SpillFile.read = spill_iter("spill_read_s", spill.SpillFile.read)
    relational._TupleRenamer.__call__ = timed("rename_s", relational._TupleRenamer.__call__)
    relational._merge_pair = timed("merge_s", relational._merge_pair)
    for name in ("tuple_probability", "probability_of"):
        setattr(aggregates, name, timed("existence_s", getattr(aggregates, name)))
    for name in ("count_distribution", "sum_distribution", "expected_value",
                 "min_distribution", "max_distribution"):
        setattr(aggregates, name, timed("aggregate_s", getattr(aggregates, name)))
    gc_start = []
    gc.callbacks.append(
        lambda phase, _info: gc_start.append(time.perf_counter()) if phase == "start"
        else spent.__setitem__("gc_s", spent["gc_s"] + time.perf_counter() - gc_start.pop())
    )

    cfg = TpchConfig(scale_factor=0.0003, seed=0)
    db = Database(config=ModelConfig(work_mem=work_mem or None))
    generate_tpch(db, cfg)
    sql = dict(query_suite(cfg)).get(sql, sql)
    db.execute(sql)
    samples = []
    for _ in range(runs):
        gc.collect()
        for key in spent:
            spent[key] = 0.0
        decoded.update(rows=0, sets=0)
        t0 = time.perf_counter()
        rows = db.execute(sql).rows
        samples.append({"wall_s": time.perf_counter() - t0, **spent})
    out = {key: statistics.median(s[key] for s in samples) for key in samples[0]}
    out["rows"] = len(rows)
    out["sets_per_row"] = sum(len(t.pdfs) for t in rows) / max(len(rows), 1)
    out["sets_decoded_per_row"] = decoded["sets"] / max(decoded["rows"], 1)
    print(json.dumps(out))


def main(argv):
    options = {"--runs": "10", "--sql": "join_orders", "--work-mem": "0"}
    for flag in options:
        if flag in argv:
            i = argv.index(flag)
            options[flag] = argv[i + 1]
            argv = argv[:i] + argv[i + 2:]
    for src in argv:
        done = subprocess.run(
            [sys.executable, __file__, "--child", options["--runs"], options["--sql"],
             options["--work-mem"]],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(src, " ".join(f"{k}={v:.4g}" for k, v in result.items()))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(int(sys.argv[2]), sys.argv[3], int(sys.argv[4]))
    else:
        main(sys.argv[1:])
