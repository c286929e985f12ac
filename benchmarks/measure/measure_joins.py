#!/usr/bin/env python3
"""python benchmarks/measure/measure_joins.py SRC [SRC ...] [--runs N] — what a join of two or three tables costs.

For each source tree (e.g. a clone of the parent commit's ``src`` and this checkout's), one child process loads three
tables into an in-memory database:

* ``a``: 300 rows, ``k`` = 0..299 and an uncertain ``x`` = ``GAUSSIAN(k, 1)``;
* ``b``: 300 rows, ``k`` = 0..299, ``j`` = ``k % 50`` and a ten-character TEXT ``note``;
* ``c``: 50 rows, ``j`` = 0..49 and ``y`` = ``10 * j``;

and runs each statement below N times (default 3) in memory (``work_mem`` None) and at ``work_mem`` = 64 KiB, one
database per budget.  It prints one line per statement and budget:

* ``wall_s``: the median wall seconds of the statement;
* ``pairs``: the tuple ids one execution draws, one per candidate pair a join emits;
* ``rows``: the rows it returns;
* at 64 KiB also ``equal`` (1 if its rows equal the in-memory rows: ids, certain values and pdfs, in order) and
  ``leftover`` (files left in the spill directory after the last run).

Statements: ``two_table`` ``SELECT a.k, b.j FROM a, b WHERE a.k = b.k``; ``three_table`` ``SELECT a.k, c.y FROM a,
b, c WHERE a.k = b.k AND b.j = c.j``; ``keyless`` ``SELECT c.j, a.k, a.x FROM c, a WHERE c.j > a.k`` (no equality: every
pair is a candidate; its build side ``a`` outgrows 64 KiB); ``filtered`` ``three_table`` ``AND (c.y < 100 OR c.y >=
400)`` (a certain conjunct over one table that bounds no range: 20 of ``c``'s 50 rows pass it).

Regenerates docs/PERFORMANCE.md "One join operator" and "One class per operator".
"""
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

STATEMENTS = {
    "two_table": "SELECT a.k, b.j FROM a, b WHERE a.k = b.k",
    "three_table": "SELECT a.k, c.y FROM a, b, c WHERE a.k = b.k AND b.j = c.j",
    "keyless": "SELECT c.j, a.k, a.x FROM c, a WHERE c.j > a.k",
    "filtered": "SELECT a.k, c.y FROM a, b, c WHERE a.k = b.k AND b.j = c.j AND (c.y < 100 OR c.y >= 400)",
}
BUDGETS = (None, 64 * 1024)


def _load(work_mem, spill_dir):
    from repro.core.model import ModelConfig
    from repro.engine.database import Database

    db = Database(config=ModelConfig(work_mem=work_mem, spill_dir=spill_dir))
    db.execute("CREATE TABLE a (k INT, x REAL UNCERTAIN)")
    db.execute("CREATE TABLE b (k INT, j INT, note TEXT)")
    db.execute("CREATE TABLE c (j INT, y INT)")
    db.execute("INSERT INTO a VALUES " + ", ".join(f"({k}, GAUSSIAN({k}, 1))" for k in range(300)))
    db.execute("INSERT INTO b VALUES " + ", ".join(f"({k}, {k % 50}, 'note-{k:05d}')" for k in range(300)))
    db.execute("INSERT INTO c VALUES " + ", ".join(f"({j}, {10 * j})" for j in range(50)))
    return db


def _answer(rows):
    return [(t.tuple_id, repr(t.certain), repr(t.pdfs)) for t in rows]


def child(runs):
    out = {}
    answers = {}
    for work_mem in BUDGETS:
        with tempfile.TemporaryDirectory() as spill_dir:
            db = _load(work_mem, spill_dir)
            store = db.catalog.store
            for name, sql in STATEMENTS.items():
                times = []
                for run in range(runs):
                    first_id = store._next_tuple_id
                    started = time.perf_counter()
                    rows = db.execute(sql).rows
                    times.append(time.perf_counter() - started)
                    if run == 0:
                        pairs = store._next_tuple_id - first_id
                        answer = _answer(rows)
                result = {"wall_s": statistics.median(times), "pairs": pairs, "rows": len(rows)}
                if work_mem is None:
                    answers[name] = answer
                else:
                    result["equal"] = int(answer == answers[name])
                    result["leftover"] = len(os.listdir(spill_dir))
                out[f"{name} work_mem={work_mem}"] = result
    print(json.dumps(out))


def main(argv):
    runs = "3"
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
