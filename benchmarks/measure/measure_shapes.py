#!/usr/bin/env python3
"""python benchmarks/measure/measure_shapes.py PARENT_SRC CHANGE_SRC [PAIRS [SHAPE_PREFIX]] — S1-S5 of docs/PERFORMANCE.md.

Times the six statement shapes that reached the row-batch tier PR 20 deleted (a range Filter above an equi-join, range /
PROB filters over stored floors and over a Poisson / Binomial column) on two source trees, e.g. a scratch clone's
``src`` and this checkout's.  One resident process per side, same data; per pair each side times the statement cold
(PDF_OP_CACHE.reset() before every run) and then warm, best of 5 runs each (the shared box stalls single runs by 2x),
back to back with the other side and in alternating order, so both see the same box.  Regenerates the table of
"Two tiers in repro.core, not three".
"""
import gc
import os
import subprocess
import sys
import time
from statistics import median, quantiles

SHAPES = {
    "S1 range Filter above an equi-join": "SELECT r.rid FROM readings r, sensors s WHERE r.rid = s.sid AND r.value > 10 AND r.value < 90",
    "S2 range Filter over stored floors": "SELECT rid FROM floored WHERE value > 30 AND value < 50",
    "S3 range Filter over Poisson/Binomial": "SELECT rid FROM counts WHERE n > 2 AND n < 9",
    "S4 PROB(*) > 0.5 over stored floors": "SELECT rid FROM floored WHERE PROB(*) > 0.5",
    "S4 ORDER BY PROB(*) over stored floors": "SELECT rid FROM floored ORDER BY PROB(*)",
    "S5 PROB(range) >= 0.5 over stored floors": "SELECT rid FROM floored WHERE PROB(value > 30 AND value < 50) >= 0.5",
}


def child():
    from repro.core.operations import PDF_OP_CACHE
    from repro.engine.database import Database
    from repro.workloads import generate_readings

    db = Database()
    db.execute("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)")
    db.execute("CREATE TABLE sensors (sid INT, site INT)")
    db.execute("CREATE TABLE counts (rid INT, n REAL UNCERTAIN)")
    for r in generate_readings(1500, seed=0):
        db.execute(f"INSERT INTO readings VALUES ({r.rid}, GAUSSIAN({r.mean!r}, {r.sigma ** 2!r}))")
        db.execute(f"INSERT INTO sensors VALUES ({r.rid}, {r.rid % 7})")
        pdf = f"POISSON({1 + r.mean / 10!r})" if r.rid % 2 else f"BINOMIAL({5 + r.rid % 40}, {r.mean / 101 + 0.005!r})"
        db.execute(f"INSERT INTO counts VALUES ({r.rid}, {pdf})")
    db.execute("CREATE TABLE floored AS SELECT rid, value FROM readings WHERE value > 20 AND value < 70")
    for line in sys.stdin:  # "<shape>\t<cold|warm>" -> "<best of 5, seconds> <row count> <hash of the answer>"
        shape, temp = line.rstrip("\n").split("\t")
        best = float("inf")
        for _ in range(5):
            if temp == "cold":
                PDF_OP_CACHE.reset()
            gc.collect()
            t0 = time.perf_counter()
            rows = [tuple(t.certain.values()) for t in db.execute(SHAPES[shape])]
            best = min(best, time.perf_counter() - t0)
        print(best, len(rows), hash(tuple(rows)), flush=True)


def main(parent_src, change_src, pairs=10, only="S"):
    sides = {name: subprocess.Popen([sys.executable, __file__], env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0"),
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
             for name, src in (("parent", parent_src), ("change", change_src))}

    def ask(side, shape, temp):
        sides[side].stdin.write(f"{shape}\t{temp}\n")
        sides[side].stdin.flush()
        seconds, *answer = sides[side].stdout.readline().split()
        return float(seconds) * 1e3, answer

    for shape in (s for s in SHAPES if s.startswith(only)):
        answers = {side: ask(side, shape, "warm")[1] for side in sides}  # untimed: imports, plan, the answer
        assert answers["parent"] == answers["change"], shape
        times = {(side, temp): [] for side in sides for temp in ("cold", "warm")}
        for pair in range(int(pairs)):
            for side in list(sides)[:: 1 if pair % 2 else -1]:
                for temp in ("cold", "warm"):
                    times[side, temp].append(ask(side, shape, temp)[0])
        for temp in ("cold", "warm"):
            p, c = times["parent", temp], times["change", temp]
            q1, _, q3 = quantiles(p, n=4)
            print(f"{shape} ({answers['parent'][0]} rows) {temp}: parent {median(p):.1f} ms (IQR {q3 - q1:.1f}), "
                  f"change {median(c):.1f} ms ({median(c) / median(p):.2f}x), "
                  f"change no slower in {sum(b <= a for a, b in zip(p, c))}/{len(p)} pairs", flush=True)
    for proc in sides.values():
        proc.stdin.close()
        proc.wait()


if __name__ == "__main__":
    main(*sys.argv[1:]) if len(sys.argv) > 1 else child()
