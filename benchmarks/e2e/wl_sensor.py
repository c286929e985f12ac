"""``sensor_durable``: the paper's ``Readings(rid, value)`` stream on a durable database.

Small statements, writes beside reads: every ``INSERT`` is its own
transaction, logged and fsynced (``group_commit=1``) before it is
acknowledged, with a checkpoint every ``CHECKPOINT_EVERY`` commits — the
stated flush policy.  The table (~40 pages) fits the 256-page buffer pool.
"""

from __future__ import annotations

import gc
import os

import numpy as np

from repro.engine.database import Database
from repro.pdf.regions import IntervalSet
from repro.workloads.sensors import generate_range_queries, generate_readings, make_readings

import probes
from harness import (
    Paced,
    SyncProbe,
    buffer_counters,
    median,
    peak_rss_mb,
    percentile,
    perf,
    private_dir,
    resolve,
    sum_of_medians,
    spill_leftovers,
)

#: Two fifths of the issue's stream, so a pass takes ~2 s and a run holds
#: five or six; the checkpoint interval shrinks with it (two checkpoints per
#: pass, ~130 commits to replay at reopen).
SIZES = dict(preload=1200, insert=600, range=16, prob=16, point=200, update=4, delete=4)
SMOKE_SIZES = dict(preload=150, insert=75, range=4, prob=4, point=25, update=1, delete=1)
CHECKPOINT_EVERY = 240
SMOKE_CHECKPOINT_EVERY = 30
REOPENS = 3
#: statements between two measurements of the machine's pace (~50 ms)
PACE_EVERY = 50
#: preloaded readings between two measurements of the pace (~0.1 s)
PRELOAD_SLICE = 300
#: the paper's three representations: symbolic, 5-bucket histogram, 25-point sampling
REPRESENTATIONS = (("symbolic", 0, 0.6), ("histogram", 5, 0.2), ("discrete", 25, 0.2))
DDL = (
    "CREATE TABLE readings (rid INT, value REAL UNCERTAIN)",
    "CREATE INDEX ON readings (rid)",
)
MUTATING = ("insert", "update", "delete")


def _literal(reading, representation: str, size: int) -> str:
    if representation == "symbolic":
        return f"GAUSSIAN({reading.mean!r}, {reading.sigma ** 2!r})"
    ((_rid, pdf),) = make_readings([reading], representation, size)
    if representation == "histogram":
        edges = ", ".join(repr(float(e)) for e in pdf.edges)
        masses = ", ".join(repr(float(m)) for m in pdf.masses)
        return f"HISTOGRAM({edges} ; {masses})"
    pairs = ", ".join(f"{float(v)!r}: {float(p)!r}" for v, p in pdf.items())
    return f"DISCRETE({pairs})"


def _insert_statements(readings, rng) -> list:
    """One INSERT per reading; the representation shares are exact (shuffled,
    not drawn), so stored bytes per tuple do not wander with the seed."""
    kinds = []
    for representation, size, share in REPRESENTATIONS:
        kinds += [(representation, size)] * round(share * len(readings))
    kinds += [REPRESENTATIONS[0][:2]] * (len(readings) - len(kinds))
    return [
        f"INSERT INTO readings VALUES ({r.rid}, {_literal(r, *kinds[i])})"
        for r, i in zip(readings, rng.permutation(len(readings)))
    ]


class Stream:
    """The seeded statement stream and what each statement must return.

    Built by simulating the stream in python: the live rid set is tracked
    while statements are drawn, so a point lookup knows whether its rid is
    live (1 row) or deleted / never inserted (0 rows) at that moment.
    """

    def __init__(self, seed: int, sizes: dict):
        rng = np.random.default_rng([seed, 5])
        readings = generate_readings(sizes["preload"] + sizes["insert"], rng=rng)
        queries = generate_range_queries(sizes["range"] + sizes["prob"], rng=rng)
        self.first_range = queries[0]
        self.preload = _insert_statements(readings[: sizes["preload"]], rng)
        kinds = [k for k in sizes if k != "preload" for _ in range(sizes[k])]
        order = rng.permutation(len(kinds))
        live = [r.rid for r in readings[: sizes["preload"]]]
        live_set, dead = set(live), []
        fresh = iter(readings[sizes["preload"]:])
        inserts = iter(_insert_statements(readings[sizes["preload"]:], rng))
        ranges = iter(queries)
        #: (kind, sql, rows a point lookup must return or None, live rows then)
        self.statements = []
        for i in order:
            kind, expect = kinds[i], None
            if kind == "insert":
                reading, sql = next(fresh), next(inserts)
                live.append(reading.rid)
                live_set.add(reading.rid)
            elif kind in ("range", "prob"):
                q = next(ranges)
                cond = f"value > {q.lo!r} AND value < {q.hi!r}"
                where = cond if kind == "range" else f"PROB({cond}) >= 0.5"
                sql = f"SELECT rid FROM readings WHERE {where}"
            elif kind == "point":
                if rng.random() < 0.1:
                    rid = dead[int(rng.integers(len(dead)))] if dead else 10 ** 9
                else:
                    rid = live[int(rng.integers(len(live)))]
                expect = int(rid in live_set)
                sql = f"SELECT rid, value FROM readings WHERE rid = {rid}"
            else:
                at = int(rng.integers(len(live)))
                rid = live[at]
                if kind == "update":
                    mean, var = rng.uniform(0.0, 100.0), rng.uniform(1.0, 9.0)
                    sql = f"UPDATE readings SET value = GAUSSIAN({mean!r}, {var!r}) WHERE rid = {rid}"
                else:
                    sql = f"DELETE FROM readings WHERE rid = {rid}"
                    live[at] = live[-1]
                    live.pop()
                    live_set.discard(rid)
                    dead.append(rid)
            self.statements.append((kind, sql, expect, len(live)))
        self.final_rows = len(live)


def _open(path: str, every: int) -> Database:
    return Database(path=path, group_commit=1, checkpoint_every=every)


def _preload(db, stream: Stream, paced=None) -> None:
    """DDL, then every preloaded reading in one transaction; ``paced`` gets
    the seconds of each ``PRELOAD_SLICE`` statements under ``"preload"``."""
    for ddl in DDL:
        db.execute(ddl)
    db.execute("BEGIN")
    t0 = perf()
    for i, sql in enumerate(stream.preload, 1):
        db.execute(sql)
        if paced is not None and i % PRELOAD_SLICE == 0:
            paced.add("preload", perf() - t0)
            paced.mark()
            t0 = perf()
    db.execute("COMMIT")
    if paced is not None:
        paced.add("preload", perf() - t0)


def _play(run, db, stream: Stream, wal_path=None) -> None:
    """The stream, closed loop; latencies per statement kind.  On a durable
    database (``wal_path``) every mutating statement is one commit, one flush."""
    syncs = 1 if wal_path else 0
    wal_size = os.path.getsize(wal_path) if wal_path else 0
    since_checkpoint = len(DDL) + 1
    for i, (kind, sql, expect, live) in enumerate(stream.statements):
        if i % PACE_EVERY == 0:
            run.calibrate()
        if kind in MUTATING:
            result, seconds = run.op(kind, db.execute, sql, collect=False, syncs=syncs)
            if result is None:
                continue
            if kind == "insert":
                run.latency("insert_s", seconds, syncs)
                run.record("insert_ms", seconds * 1e3)
            if wal_path and run.traced:
                # Counts at the WAL boundary: log growth per commit, and the
                # statements that paid for a checkpoint (the log shrinks).
                size = os.path.getsize(wal_path)
                since_checkpoint += 1
                if size < wal_size:
                    run.add("wal.checkpoints", 1)
                    run.record("checkpoint_stall_ms", seconds * 1e3)
                    since_checkpoint = 0
                else:
                    run.add("wal.bytes", size - wal_size)
                    run.add("wal.commits", 1)
                wal_size = size
            continue
        rows, seconds = run.select(db, kind, sql, collect=False)
        if rows is None:
            continue
        run.add("rows_out", len(rows))
        if kind == "point":
            run.add("rows_in", 1)
            run.check("oracle.point", len(rows) == expect, sql)
        else:
            run.add("rows_in", live)
            run.latency("select_s", seconds)
    if wal_path and run.traced:
        run.add("wal.replayed_commits", since_checkpoint)


def run_sensor(run) -> dict:
    sizes = SMOKE_SIZES if run.smoke else SIZES
    every = SMOKE_CHECKPOINT_EVERY if run.smoke else CHECKPOINT_EVERY
    run.params.update(sizes=sizes, checkpoint_every=every, group_commit=1)
    stream = None
    setup_steps = []  # per pass: reference seconds of stream generation and each preload slice

    def one_pass():
        nonlocal stream
        with private_dir("sensor") as workdir:
            path = os.path.join(workdir, "db")
            gc.collect()
            paced = Paced()
            paced.mark()
            t0 = perf()
            stream = Stream(run.seed, sizes)
            t1 = perf()
            paced.add("stream", t1 - t0)
            paced.mark()
            db = _open(path, every)
            _preload(db, stream, paced)
            if not run.trace:  # the warm-up's set-up is as good a sample as any
                steps = paced.close()
                setup_steps.append(steps["stream"] + steps["preload"])
            run.record("synthesize_s", t1 - t0)
            before = buffer_counters([db])
            gc.collect()
            probe = SyncProbe(os.path.join(workdir, "sync.probe"))
            run.probe_syncs(probe)
            try:
                _play(run, db, stream, wal_path=os.path.join(path, "wal.log"))
                run.calibrate()
            finally:
                run.probe_syncs(None)
                probe.close()
            if run.traced:
                run.add_buffer_deltas([db], before)
            run.check("final_rows", len(db.table("readings")) == stream.final_rows)
            # The expensive whole-state comparison rides on the untimed pass.
            live_state = db.dump_state() if run.mode == "warmup" else None
            run.op("close", db.close, into="")
            # Every reopen replays the same log over the last checkpoint: the
            # log is folded only after the last one, to weigh what is stored.
            for _ in range(REOPENS):
                db, seconds = run.op("reopen", lambda: _open(path, every), into="recovery_s")
                if db is None:
                    break
                run.check("reopened_rows", len(db.table("readings")) == stream.final_rows)
                if live_state is not None:
                    run.check("reopened_state", db.dump_state() == live_state)
                    live_state = None
                db.close()
            else:
                db = _open(path, every)
                db.checkpoint()
                db.close()
                stored = sum(
                    os.path.getsize(os.path.join(path, f)) for f in ("data.ckpt", "wal.log")
                )
                run.record("stored_bytes_per_tuple", stored / stream.final_rows)
            run.check("no_spill_leftovers", not spill_leftovers(workdir))

    run.passes(one_pass, min_timed=5)
    if not run.trace:
        wall = run.total("wall_s")
        return {
            "setup_s": sum_of_medians(setup_steps),
            "wall_s": wall,
            "tuples_per_s": len(stream.statements) / wall,
            # no statement of the stream can spill: the bounded pass is the pass
            "spill_wall_s": wall,
            "insert_p50_ms": run.typical_latency("insert_s") * 1e3,
            "select_p50_ms": run.typical_latency("select_s") * 1e3,
            "recovery_s": run.typical_latency("recovery_s"),
            "stored_bytes_per_tuple": run.med("stored_bytes_per_tuple"),
            "peak_rss_mb": peak_rss_mb(),
        }
    return _layers(run, stream, sizes, run.med("wall_s"))


def _layers(run, stream: Stream, sizes: dict, wall: float) -> dict:
    """Replay the stream on an in-memory database (the no-WAL baseline), then
    the codec and storage probes over its table."""
    db = Database()
    t0 = perf()
    _preload(db, stream)
    preload_s = perf() - t0
    memory_inserts = []
    gc.collect()
    for kind, sql, _expect, _live in stream.statements:
        if kind in MUTATING:
            _result, seconds = run.op("insert_nowal", db.execute, sql, collect=False, into="")
            if kind == "insert" and seconds is not None:
                memory_inserts.append(seconds * 1e3)
    durable_inserts = run.samples["insert_ms"]
    durable_p50, memory_p50 = median(durable_inserts), median(memory_inserts)

    codec = probes.codec_and_storage(run, db, ("readings",))
    # the range / PROB selections decode lazily: only surviving rows in full
    out = probes.pass_layers(run, codec, {"readings": run.med("traced:rows_out")})
    q = stream.first_range
    out.update(
        probes.kernel_sweep(
            run, db, "readings", "value", IntervalSet.between(q.lo, q.hi, False, False)
        )
    )
    # INSERT / UPDATE / DELETE never show a parse span (Database.execute
    # parses inside); replay the parser over their text.
    parse = resolve("repro.engine.sql.parser:parse")
    if parse is not None:
        texts = [sql for kind, sql, _e, _l in stream.statements if kind in MUTATING]
        gc.collect()
        t0 = perf()
        for sql in texts:
            parse(sql)
        out["sql.parse_s"] += perf() - t0
        out["sql.share"] = (out["sql.parse_s"] + out["sql.plan_s"]) / wall
    rows = stream.final_rows
    with private_dir("sensor_snapshot") as workdir:
        snapshot = os.path.join(workdir, "readings.snapshot")
        t0 = perf()
        db.save(snapshot)
        t1 = perf()
        Database.open(snapshot)
        t2 = perf()
        snapshot_bytes = os.path.getsize(snapshot)
    commits = run.med("traced:wal.commits")
    tail = percentile(durable_inserts, 0.99)
    out.update(
        {
            "table.insert_us_per_tuple": preload_s / sizes["preload"] * 1e6,
            "history.entries_per_tuple": len(db.catalog.store) / rows,
            "snapshot.save_s": t1 - t0,
            "snapshot.open_s": t2 - t1,
            "snapshot.bytes_per_tuple": snapshot_bytes / rows,
            "workloads.synthesize_s": run.med("synthesize_s"),
            "wal.bytes_per_commit": run.med("traced:wal.bytes") / commits if commits else 0.0,
            "wal.insert_overhead_us": (durable_p50 - memory_p50) * 1e3,
            "wal.insert_p99_ms": tail if tail is not None else 0.0,
            "wal.checkpoint_stall_ms": run.med("traced:checkpoint_stall_ms"),
            "wal.checkpoints": run.med("traced:wal.checkpoints"),
            "wal.replayed_commits": run.med("traced:wal.replayed_commits"),
        }
    )
    probes.insert_residual(out)
    return out


RUNNERS = {"sensor_durable": run_sensor}
