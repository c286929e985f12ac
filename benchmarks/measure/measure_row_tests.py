#!/usr/bin/env python3
"""python benchmarks/measure/measure_row_tests.py SRC [SRC ...] [--runs N] — what a pruned scan reads per select.

For each source tree (e.g. a clone of the parent commit's ``src`` and this checkout's), one child process:

* replays the seed-0 statement stream of the e2e ``sensor_durable`` workload (``benchmarks/e2e/wl_sensor.py``) N times
  (default 5) on a fresh in-memory database each time, and reports over its 32 range / ``PROB`` selects the medians of:
  wall seconds (each select's median over the N replays), record prefixes decoded (``decode_prefix`` as the scan calls
  it), records completed (``TuplePrefix.complete``) and pages fetched (buffer-pool hits + misses);
* replays the same stream N more times with ``CREATE PROB INDEX ON readings (value)`` run after the DDL, and reports
  the same columns for its 16 range selects (``sensor_indexed_range``) and 16 ``PROB(...) >= 0.5`` selects
  (``sensor_indexed_prob``) separately;
* loads uncertain TPC-H at SF 0.0003 (seed 0, in memory, the ``tpch_scan`` instance) and runs each of ``tpch_scan``'s
  ``price_threshold``, ``price_range`` and ``orderby_linenumber`` once untimed, then N times (``gc.collect()`` before
  each), reporting the same four columns as medians of those runs.

Each of the 32 sensor selects (first replay) and each TPC-H statement is also run once under ``EXPLAIN ANALYZE``
after its timed runs, and its ``columnar_rows=k/n`` tokens are summed: ``kernel_rows`` of ``filtered_rows`` rows the
selection kernel swept rather than the per-tuple reference (totals over the 32 selects for ``sensor_select``).

A scan decodes every record prefix of a page only when the page's synopsis lacks a row column the scan tests, and
fills those columns from the prefixes; inserts and deletes keep the filled columns up to date, and a PROB index's
ladder column is there from a page's first record.  So what a first visit decodes is the whole page once per newly
tested column; the untimed first TPC-H execution is that visit.  Regenerates docs/PERFORMANCE.md "Rows tested before
they are read" and "The PROB index is columns of the page synopsis".
"""
import gc
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TPCH_STATEMENTS = ("price_threshold", "price_range", "orderby_linenumber")


def child(runs):
    sys.path.insert(0, os.path.join(HERE, "..", "e2e"))
    from repro.engine import table as table_mod
    from repro.engine.database import Database
    from repro.engine.storage import serialize
    from repro.workloads import TpchConfig, generate_tpch
    from wl_sensor import DDL, SIZES, Stream
    from wl_tpch import EXTRA_STATEMENTS, _statements

    counted = {"prefixes": 0, "completed": 0}
    decode_prefix, complete = table_mod.decode_prefix, serialize.TuplePrefix.complete

    def counting_decode(*args, **kwargs):
        counted["prefixes"] += 1
        return decode_prefix(*args, **kwargs)

    def counting_complete(*args, **kwargs):
        counted["completed"] += 1
        return complete(*args, **kwargs)

    table_mod.decode_prefix = counting_decode
    serialize.TuplePrefix.complete = counting_complete

    def measured(db, sql):
        stats = db.buffer_stats
        counted.update(prefixes=0, completed=0)
        pages = stats.hits + stats.misses
        t0 = time.perf_counter()
        db.execute(sql)
        wall = time.perf_counter() - t0
        return {"wall_s": wall, **counted, "pages": stats.hits + stats.misses - pages}

    def medians(samples):
        return {key: statistics.median(s[key] for s in samples) for key in samples[0]}

    def swept(db, sql):
        """(kernel rows, filtered rows) summed over the plan's ``columnar_rows=k/n`` tokens."""
        found = re.findall(r"columnar_rows=(\d+)/(\d+)", db.execute("EXPLAIN ANALYZE " + sql).plan_text)
        return sum(int(k) for k, _n in found), sum(int(n) for _k, n in found)

    stream = Stream(0, SIZES)

    def replay(ddl, coverage=None):
        """Per range / PROB select of the stream: (kind, its medians over the replays); the first replay adds each
        select's ``swept`` pair to ``coverage``."""
        per_select = []  # per replay: one sample per range / PROB select
        for run in range(runs):
            db = Database()
            for sql in ddl:
                db.execute(sql)
            for sql in stream.preload:
                db.execute(sql)
            samples = []
            gc.collect()
            for kind, sql, _expect, _live in stream.statements:
                if kind in ("range", "prob"):
                    samples.append((kind, measured(db, sql)))
                    if coverage is not None and run == 0:
                        coverage.append(swept(db, sql))
                else:
                    db.execute(sql)
            per_select.append(samples)
        return [
            (kind, medians([run[i][1] for run in per_select]))
            for i, (kind, _sample) in enumerate(per_select[0])
        ]

    coverage = []
    out = {"sensor_select": medians([s for _kind, s in replay(DDL, coverage)])}
    out["sensor_select"].update(
        kernel_rows=sum(k for k, _n in coverage), filtered_rows=sum(n for _k, n in coverage)
    )
    indexed = replay(DDL + ("CREATE PROB INDEX ON readings (value)",))
    for kind in ("range", "prob"):
        out[f"sensor_indexed_{kind}"] = medians([s for k, s in indexed if k == kind])

    db = Database()
    cfg = TpchConfig(scale_factor=0.0003, seed=0)
    generate_tpch(db, cfg)
    statements = _statements(cfg)
    statements.update(EXTRA_STATEMENTS)
    for name in TPCH_STATEMENTS:
        db.execute(statements[name])
        samples = []
        for _ in range(runs):
            gc.collect()
            samples.append(measured(db, statements[name]))
        out[name] = medians(samples)
        out[name]["kernel_rows"], out[name]["filtered_rows"] = swept(db, statements[name])
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
        for name, row in result.items():
            print(src, name, " ".join(f"{k}={v}" if isinstance(v, int) else f"{k}={v:.4g}" for k, v in row.items()))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(int(sys.argv[2]))
    else:
        main(sys.argv[1:])
