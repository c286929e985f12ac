"""The three uncertain-TPC-H workloads: ``tpch_load``, ``tpch_scan``, ``tpch_join``.

All three drive the engine through ``Database`` and the public
``repro.workloads`` generator only.  Expected answers come from
:class:`Oracle`, which reads the *generated python rows* with the scalar
``repro.pdf`` API and never asks the engine.
"""

from __future__ import annotations

import gc
import os
import re
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from repro.core.model import ModelConfig
from repro.engine.database import Database
from repro.pdf.regions import IntervalSet
from repro.workloads import (
    TpchConfig,
    create_tables,
    load_into,
    query_suite,
    synthesize,
    table_row_counts,
)

import probes
from harness import (
    Paced,
    buffer_counters,
    median,
    peak_rss_mb,
    perf,
    private_dir,
    resolve,
    spill_leftovers,
    sum_of_medians,
    timed_repeats,
)

#: Sized on the 2-core reference box so one run (set-up five times, a
#: warm-up and the timed passes) stays near 25 s and holds ten or more passes
#: of short operations (at most ~0.3 s, the spilled join 0.8 s): the box's
#: speed wanders by tens of percent within seconds, and only a median over
#: many short repeats is steady.  At 0.0006 the load writes ~595 lineitem
#: pages through the 256-page pool, so it evicts and flushes; at 0.0003 the
#: lineitem heap is ~297 pages against the 256-page = 1 MiB pool, and a
#: sequential scan of more pages than an LRU pool holds misses on every one.
SCALE = {"tpch_load": 0.0006, "tpch_scan": 0.0003, "tpch_join": 0.0003}
SMOKE_SCALE = 0.0003
#: an eighth of the lineitem heap: the join has to partition, the sort to merge runs
WORK_MEM = 128 * 1024
#: one timed pass of the smoke run must spill too
SMOKE_WORK_MEM = 32 * 1024
SETUP_REPEATS = 5
#: ``tpch_load`` sets up nothing but the generated instance
SYNTHESIZE_REPEATS = 10
#: ``recovery_s``: reopens of the saved snapshot, each from a collected heap
#: (set-up's own second open runs beside the first database and pays a full
#: collection over both, so it is not one of them)
REOPENS = 10
#: ``load_into`` is fed the instance in slices of this many rows of one table,
#: so a load is timed as a sequence of ~60 ms operations into one database
LOAD_SLICE_ROWS = 500
#: read-back windows per load pass, each over this many consecutive lineitems.
#: Windows rather than single rows: a sub-millisecond point lookup swings by
#: 30 % with the VM's noise phases, a ~10 ms window by no more than wall_s.
READBACKS_PER_PASS = 5
READBACK_ROWS = 100

EXTRA_STATEMENTS = {
    "count_by_status": "SELECT l_linestatus, COUNT(*) FROM lineitem GROUP BY l_linestatus",
    "price_threshold": (
        "SELECT l_linenumber FROM lineitem WHERE PROB(l_extendedprice > 30000) >= 0.5"
    ),
    "price_range": (
        "SELECT l_linenumber, l_extendedprice FROM lineitem "
        "WHERE l_extendedprice > 20000 AND l_extendedprice < 30000"
    ),
}
TABLES_OF = {
    "expected_by_status": ("lineitem",),
    "count_by_status": ("lineitem",),
    "price_threshold": ("lineitem",),
    "price_range": ("lineitem",),
    "orderby_linenumber": ("lineitem",),
    "groupby_priority": ("orders",),
    "rank_violations": ("lineitem",),
    "join_orders": ("lineitem", "orders"),
}
#: statement mix of one ``tpch_scan`` pass; each entry is one timed operation
SCAN_MIX = (
    ("expected_by_status", 1),
    ("count_by_status", 1),
    ("price_threshold", 1),
    ("price_range", 1),
    ("orderby_linenumber", 1),
    ("groupby_priority", 5),
    ("rank_violations", 20),
)
PRICE_GT = IntervalSet.greater_than(30000.0)
PRICE_RANGE = IntervalSet.between(20000.0, 30000.0, False, False)
QUANTITY_GT = IntervalSet.greater_than(25.0)


def _config(run) -> TpchConfig:
    sf = SMOKE_SCALE if run.smoke else SCALE[run.workload]
    run.params.update(scale_factor=sf, work_mem=_work_mem(run))
    return TpchConfig(scale_factor=sf, seed=run.seed)


def _work_mem(run) -> int:
    return SMOKE_WORK_MEM if run.smoke else WORK_MEM


def _statements(cfg) -> dict:
    sql = dict(query_suite(cfg))
    sql.update(EXTRA_STATEMENTS)
    return sql


def _slices(data) -> list:
    """The instance cut into ``TpchData`` slices, in ``load_into``'s table order."""
    empty = {"lineitem": [], "orders": [], "part": []}
    return [
        replace(data, **{**empty, name: getattr(data, name)[at:at + LOAD_SLICE_ROWS]})
        for name in empty
        for at in range(0, len(getattr(data, name)), LOAD_SLICE_ROWS)
    ]


def _new_database() -> Database:
    db = Database()
    create_tables(db)
    return db


def _weighted_sum(pdf) -> float:
    return float(sum(v * p for v, p in pdf.items()))


class Oracle:
    """Expected answers, from the generated rows and scalar pdf calls only.

    Selections drop a row once its surviving joint mass falls to the
    engine's ``mass_epsilon`` (1e-6), so a row count is accepted anywhere
    between "mass clearly above the epsilon" and "mass above zero".
    """

    def __init__(self, data):
        cfg = data.config
        self.counts = table_row_counts(cfg)
        self.tuples = sum(self.counts.values())
        self.violators = int(len(data.violators["quantity_cap"]))
        exists, in_range, over, above25 = [], [], [], []
        self.expected_quantity = 0.0
        for _certain, u in data.lineitem:
            quantity, price = u["l_quantity"], u["l_extendedprice"]
            others = price.mass() * u["l_shipdate"].mass()
            mass = quantity.mass() * others
            exists.append(mass)
            self.expected_quantity += _weighted_sum(quantity)
            in_range.append(price.prob_interval(PRICE_RANGE) * mass)
            over.append(price.prob_interval(PRICE_GT) * mass)
            above25.append(quantity.prob_interval(QUANTITY_GT) * others)
        self.existence = float(sum(exists))
        self.range_rows = _band(in_range, 2e-6, 0.0)
        self.threshold_rows = (
            sum(p >= 0.5 + 1e-9 for p in over),
            sum(p >= 0.5 - 1e-9 for p in over),
        )
        self.orderby_rows = _band(above25, 2e-6, 0.0)

    def check(self, run, name: str, rows) -> None:
        """Compare one statement's result with what the generator implies."""
        if rows is None:
            return  # already counted as a failed operation
        n = len(rows)
        if name == "join_orders":
            ok = n == self.counts["lineitem"]
        elif name == "rank_violations":
            ok = n == min(100, self.violators)
        elif name == "groupby_priority":
            total = sum(_weighted_sum(_only_pdf(t)) for t in rows)
            ok = n == 5 and abs(total - self.counts["orders"]) < 1e-6
        elif name == "expected_by_status":
            total = sum(t.certain["expected_l_quantity"] for t in rows)
            ok = _close(total, self.expected_quantity)
        elif name == "count_by_status":
            total = sum(_weighted_sum(_only_pdf(t)) for t in rows)
            ok = _close(total, self.existence)
        elif name == "price_threshold":
            ok = self.threshold_rows[0] <= n <= self.threshold_rows[1]
        elif name == "price_range":
            ok = self.range_rows[0] <= n <= self.range_rows[1]
        elif name == "orderby_linenumber":
            keys = [t.certain["l_orderkey"] for t in rows]
            ok = self.orderby_rows[0] <= n <= self.orderby_rows[1] and keys == sorted(
                keys, reverse=True
            )
        else:
            raise KeyError(name)
        run.check(f"oracle.{name}", ok, f"{n} rows")


def _band(masses, strict: float, loose: float):
    return sum(m > strict for m in masses), sum(m > loose for m in masses)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1.0)


def _only_pdf(t):
    (pdf,) = t.pdfs.values()
    return pdf


def _same_rows(a, b) -> bool:
    """Row-for-row equality: certain values and pdfs; tuple ids are ignored."""
    return (
        a is not None
        and b is not None
        and len(a) == len(b)
        and all(x.certain == y.certain and x.pdfs == y.pdfs for x, y in zip(a, b))
    )


def heap_bytes(db, names) -> int:
    page_size = db.catalog.pool.disk.page_size
    return sum(db.table(n).stats()["pages"] for n in names) * page_size


# -- set-up shared by tpch_scan and tpch_join --------------------------------


SETUP_STEPS = ("synthesize", "load", "save", "open")


@dataclass
class Built:
    """What set-up leaves behind: two databases opened from one snapshot."""

    #: step -> wall seconds, one value per set-up repeat ("open": two)
    raw: dict = field(default_factory=lambda: {step: [] for step in SETUP_STEPS})
    #: one dict per set-up repeat: step -> reference seconds of each timed piece
    #: (synthesize; create and every load slice; save; the two opens)
    paced: list = field(default_factory=list)
    #: reference seconds of ``REOPENS`` reopens of the snapshot
    reopen_s: list = field(default_factory=list)
    db: Optional[Database] = None
    db_spill: Optional[Database] = None
    oracle: Optional[Oracle] = None
    statements: dict = field(default_factory=dict)
    stored_bytes: int = 0
    snapshot_bytes: int = 0
    history_entries: int = 0

    def reference_s(self, *steps) -> float:
        """Σ over the pieces of ``steps`` of each one's median over the repeats."""
        return sum(sum_of_medians([repeat[step] for repeat in self.paced]) for step in steps)


def build(run, cfg, workdir: str, nohist: bool = False) -> Built:
    """Synthesize → load → save → reopen, ``SETUP_REPEATS`` times.

    The queries run against databases *reopened from the snapshot*: once
    with the default config and once with ``work_mem`` bounded, so the
    spilled and the in-memory statements see byte-identical tables without
    touching any private attribute.  ``recovery_s`` is the reopen time.
    """
    built = Built()
    snapshot = os.path.join(workdir, "tpch.snapshot")
    spill_config = ModelConfig(
        work_mem=_work_mem(run), spill_dir=os.path.join(workdir, "spill")
    )
    repeats = 1 if (run.trace or run.smoke) else SETUP_REPEATS
    for i in range(repeats):
        built.db = built.db_spill = None
        gc.collect()
        paced, raw = Paced(), dict.fromkeys(SETUP_STEPS, 0.0)

        def step(name, fn, *args, **kwargs):
            paced.mark()
            t0 = perf()
            result = fn(*args, **kwargs)
            seconds = perf() - t0
            paced.add(name, seconds)
            raw[name] += seconds
            return result

        data = step("synthesize", synthesize, cfg)
        db = step("load", _new_database)
        for part in _slices(data):
            step("load", load_into, db, cfg, part)
        step("save", db.save, snapshot)
        if i == repeats - 1:
            built.oracle = Oracle(data)
            built.stored_bytes = heap_bytes(db, built.oracle.counts)
            built.history_entries = len(db.catalog.store)
            if nohist:
                _save_without_history(cfg, data, snapshot + ".nohist")
        del db, data
        gc.collect()
        built.db = step("open", Database.open, snapshot)
        built.db_spill = step("open", Database.open, snapshot, config=spill_config)
        built.paced.append(paced.close())
        for name, seconds in raw.items():
            built.raw[name].append(seconds / 2 if name == "open" else seconds)
    built.reopen_s = timed_repeats(
        lambda: Database.open(snapshot), 1 if (run.trace or run.smoke) else REOPENS
    )[2]
    built.snapshot_bytes = os.path.getsize(snapshot)
    built.statements = _statements(cfg)
    for name, table in built.oracle.counts.items():
        run.check(f"rowcount.{name}", len(built.db.table(name)) == table)
    return built


def _save_without_history(cfg, data, path: str) -> None:
    """The paper's Fig. 6 baseline: same rows, no history, no stored lineage."""
    db = Database(config=ModelConfig(use_history=False), store_lineage=False)
    create_tables(db)
    load_into(db, cfg, data)
    db.save(path)


def _check_spills(run, db_spill, statements, wanted) -> None:
    """Mandatory-spill check through ``EXPLAIN ANALYZE`` (public surface)."""
    for name, counter in wanted:
        result, _ = run.op(
            f"explain.{name}", db_spill.execute, "EXPLAIN ANALYZE " + statements[name], into=""
        )
        text = (result.plan_text or "") if result is not None else ""
        found = re.search(counter + r"=(\d+)", text)
        run.check(f"spilled.{name}", bool(found) and int(found.group(1)) >= 1, counter)


def _spill_counters():
    stats = resolve("repro.engine.executor.spill:SPILL_STATS")
    return stats.snapshot() if stats is not None else None


def _add_spill_deltas(run, before) -> None:
    after = _spill_counters()
    if before is None or after is None:
        run.unavailable.update(
            "spill." + k for k in ("join_spills", "join_partitions", "sort_runs",
                                   "bytes_written", "bytes_written_per_input_byte")
        )
        return
    for key in ("join_spills", "join_partitions", "sort_runs", "bytes_written"):
        run.add("spill." + key, after[key] - before[key])


def _common_e2e(built: Built, tuples: int) -> dict:
    return {
        "setup_s": built.reference_s(*SETUP_STEPS),
        "insert_p50_ms": built.reference_s("load") / tuples * 1e3,
        "recovery_s": median(built.reopen_s),
        "stored_bytes_per_tuple": built.stored_bytes / tuples,
        "peak_rss_mb": peak_rss_mb(),
    }


def _common_layers(run, built: Built, tuples: int, tables, decoded_per_pass: dict) -> dict:
    """Replay probes over the reopened tables, plus what set-up measured."""
    codec = probes.codec_and_storage(run, built.db, tables)
    out = probes.pass_layers(run, codec, decoded_per_pass)
    out.update(probes.kernel_sweep(run, built.db, "lineitem", "l_extendedprice", PRICE_GT))
    out.update(
        {
            "table.insert_us_per_tuple": median(built.raw["load"]) / tuples * 1e6,
            "history.entries_per_tuple": built.history_entries / tuples,
            "snapshot.save_s": median(built.raw["save"]),
            "snapshot.open_s": median(built.raw["open"]),
            "snapshot.bytes_per_tuple": built.snapshot_bytes / tuples,
            "workloads.synthesize_s": median(built.raw["synthesize"]),
        }
    )
    probes.insert_residual(out)
    return out


# -- tpch_load ----------------------------------------------------------------


def run_load(run) -> dict:
    """Write path: fresh database, ``create_tables``, ``load_into`` per pass."""
    cfg = _config(run)
    data, synth_s, synth_reference_s = timed_repeats(
        lambda: synthesize(cfg), 1 if (run.trace or run.smoke) else SYNTHESIZE_REPEATS
    )
    oracle = Oracle(data)
    tuples = oracle.tuples
    slices = _slices(data)
    # Seeded read-backs of what was just written (l_linenumber is the 1-based
    # load position), the same windows every pass: the latency a loader sees
    # when it verifies its own rows, certain values and pdfs compared with ==.
    window = min(READBACK_ROWS, oracle.counts["lineitem"])
    starts = np.random.default_rng([run.seed, 77]).integers(
        0, oracle.counts["lineitem"] - window + 1, READBACKS_PER_PASS
    )
    db = None

    def one_pass():
        nonlocal db
        db = None  # the previous pass's database is garbage now
        # One load, timed slice by slice: the collector is emptied once, before
        # the first slice, and then runs as it would through an uncut load.
        db, _ = run.op("create", _new_database)
        if db is None:
            return
        for part in slices:
            run.calibrate()
            run.op("load", load_into, db, cfg, part, collect=False)
        for name, rows in oracle.counts.items():
            run.check(f"rowcount.{name}", len(db.table(name)) == rows)
        run.calibrate()
        for start in map(int, starts):
            sql = (
                "SELECT * FROM lineitem "
                f"WHERE l_linenumber > {start} AND l_linenumber <= {start + window}"
            )
            rows, seconds = run.select(db, "readback", sql, collect=False, into="")
            expected = data.lineitem[start:start + window]
            # heap order is not load order (inserts back-fill the previous page)
            stored = sorted(rows or [], key=lambda t: t.certain["l_linenumber"])
            ok = len(stored) == window and all(
                t.certain == certain and all(t.pdf_of_attr(a) == pdf for a, pdf in pdfs.items())
                for t, (certain, pdfs) in zip(stored, expected)
            )
            run.check("oracle.readback", ok, sql)
            if seconds is not None:
                run.latency("select_s", seconds)

    run.passes(one_pass, min_timed=5)
    with private_dir("tpch_load") as workdir:
        snapshot = os.path.join(workdir, "tpch.snapshot")
        t0 = perf()
        db.save(snapshot)
        save_s = perf() - t0
        reopened, open_s, open_reference_s = timed_repeats(
            lambda: Database.open(snapshot), 1 if run.smoke else REOPENS
        )
        for name, rows in oracle.counts.items():
            run.check(f"reopened.{name}", len(reopened.table(name)) == rows)
        snapshot_bytes = os.path.getsize(snapshot)
    if not run.trace:
        wall = run.total("wall_s")
        return {
            "setup_s": median(synth_reference_s),
            "wall_s": wall,
            "tuples_per_s": tuples / wall,
            # nothing in a load can spill: the memory-bounded pass is the pass
            "spill_wall_s": wall,
            "insert_p50_ms": wall / tuples * 1e3,
            "select_p50_ms": run.typical_latency("select_s") * 1e3,
            "recovery_s": median(open_reference_s),
            "stored_bytes_per_tuple": heap_bytes(db, oracle.counts) / tuples,
            "peak_rss_mb": peak_rss_mb(),
        }
    del data, slices
    built = Built(
        raw={"synthesize": synth_s, "load": run.samples["wall_s"], "save": [save_s], "open": open_s},
        db=db, snapshot_bytes=snapshot_bytes, history_entries=len(db.catalog.store),
    )
    return _common_layers(run, built, tuples, tuple(oracle.counts), {})


# -- tpch_scan ----------------------------------------------------------------


def run_scan(run) -> dict:
    """Single-table read path over a table four times the buffer pool."""
    cfg = _config(run)
    with private_dir("tpch_scan") as workdir:
        built = build(run, cfg, workdir)
        metrics = _scan_passes(run, built)
        run.check("no_spill_leftovers", not spill_leftovers(workdir))
    return metrics


def _scan_passes(run, built: Built) -> dict:
    db, db_spill, oracle, sql = built.db, built.db_spill, built.oracle, built.statements
    counts = oracle.counts
    rows_per_pass = sum(
        repeat * sum(counts[t] for t in TABLES_OF[name]) for name, repeat in SCAN_MIX
    )

    def one_pass():
        if run.mode == "warmup":
            _check_spills(run, db_spill, sql, [("orderby_linenumber", "sort_runs")])
        before = buffer_counters([db])
        in_memory_sort = None
        for name, repeat in SCAN_MIX:
            for i in range(repeat):
                rows, seconds = run.select(db, name, sql[name], collect=(i == 0))
                oracle.check(run, name, rows)
                if rows is None:
                    continue
                run.record(f"stmt_s.{name}", seconds)
                run.record(f"rows.{name}", len(rows))
                run.add("rows_out", len(rows))
                if name == "rank_violations":
                    run.latency("select_s", seconds)
                if name == "orderby_linenumber":
                    in_memory_sort = rows
        run.add("rows_in", rows_per_pass)
        if run.traced:
            run.add_buffer_deltas([db], before)
        # The same ORDER BY under ``WORK_MEM``: an external merge sort through
        # spill files.  Its own metric, so it never hides in wall_s.
        spilled = _spill_counters()
        rows, seconds = run.select(
            db_spill, "orderby_linenumber_spill", sql["orderby_linenumber"], into="spill_wall_s"
        )
        if run.traced:
            _add_spill_deltas(run, spilled)
        run.check("spill_equals_memory.orderby_linenumber", _same_rows(rows, in_memory_sort))
        if rows is not None:
            run.record("stmt_s.orderby_linenumber_spill", seconds)

    run.passes(one_pass, min_timed=5)
    tuples = oracle.tuples
    if not run.trace:
        wall = run.total("wall_s")
        out = _common_e2e(built, tuples)
        out.update(
            {
                "wall_s": wall,
                "tuples_per_s": rows_per_pass / wall,
                "spill_wall_s": run.total("spill_wall_s"),
                "select_p50_ms": run.typical_latency("select_s") * 1e3,
            }
        )
        return out
    # Tuples fully decoded per pass: the two aggregates read every lineitem,
    # the three selections decode lazily (survivors only), rank_violations is
    # pruned to a handful of pages.
    decoded = {
        "lineitem": 2 * counts["lineitem"] + sum(
            run.med(f"rows.{q}") for q in ("price_threshold", "price_range", "orderby_linenumber")
        ),
        "orders": 5 * counts["orders"],
    }
    out = _common_layers(run, built, tuples, ("lineitem", "orders", "part"), decoded)
    out.update(
        probes.spill_layers(
            run, out, ("lineitem",), "orderby_linenumber_spill", "orderby_linenumber"
        )
    )
    return out


# -- tpch_join ----------------------------------------------------------------


def run_join(run) -> dict:
    """Two-table path: in-memory hash join (A) against Grace join + external
    sort under ``WORK_MEM`` (B), B checked row for row against A."""
    cfg = _config(run)
    with private_dir("tpch_join") as workdir:
        built = build(run, cfg, workdir, nohist=run.trace)
        metrics = _join_passes(run, built, workdir)
        run.check("no_spill_leftovers", not spill_leftovers(workdir))
    return metrics


def _join_passes(run, built: Built, workdir: str) -> dict:
    db, db_spill, oracle, sql = built.db, built.db_spill, built.oracle, built.statements
    counts = oracle.counts
    joined = counts["lineitem"] + counts["orders"]
    reference = {}

    def one_pass():
        if run.mode == "warmup":
            _check_spills(
                run, db_spill, sql,
                [("join_orders", "spill_partitions"), ("orderby_linenumber", "sort_runs")],
            )
            reference["sort"], _ = run.select(
                db, "orderby_linenumber", sql["orderby_linenumber"], into=""
            )
            oracle.check(run, "orderby_linenumber", reference["sort"])
        before = buffer_counters([db, db_spill])
        spilled = _spill_counters()
        a, seconds = run.select(db, "join_orders", sql["join_orders"])
        oracle.check(run, "join_orders", a)
        if a is not None:
            run.record("stmt_s.join_orders", seconds)
            run.add("rows_out", len(a))
        if run.mode == "warmup":
            return  # EXPLAIN ANALYZE above already ran both bounded statements once
        b, seconds = run.select(
            db_spill, "join_orders_spill", sql["join_orders"], into="spill_wall_s"
        )
        run.check("spill_equals_memory.join_orders", _same_rows(b, a))
        if b is not None:
            run.record("stmt_s.join_orders_spill", seconds)
        a = b = None
        c, seconds = run.select(
            db_spill, "orderby_linenumber_spill", sql["orderby_linenumber"], into="spill_wall_s"
        )
        run.check("spill_equals_memory.orderby_linenumber", _same_rows(c, reference["sort"]))
        if c is not None:
            run.record("stmt_s.orderby_linenumber_spill", seconds)
        run.add("rows_in", joined)
        if run.traced:
            run.add_buffer_deltas([db, db_spill], before)
            _add_spill_deltas(run, spilled)

    run.passes(one_pass, min_timed=5)
    tuples = oracle.tuples
    if not run.trace:
        wall = run.total("wall_s")
        out = _common_e2e(built, tuples)
        out.update(
            {
                "wall_s": wall,
                "tuples_per_s": joined / wall,
                "spill_wall_s": run.total("spill_wall_s"),
                # the workload's one in-memory SELECT is the join itself
                "select_p50_ms": wall * 1e3,
            }
        )
        return out
    reference.clear()
    out = _common_layers(
        run, built, tuples, ("lineitem", "orders", "part"),
        {"lineitem": counts["lineitem"], "orders": counts["orders"]},
    )
    out.update(
        probes.spill_layers(
            run, out, ("lineitem", "orders", "lineitem"), "join_orders_spill", "join_orders"
        )
    )
    out["history.overhead_share"] = _history_overhead(run, built, workdir, sql["join_orders"])
    return out


def _history_overhead(run, built: Built, workdir: str, join_sql: str) -> float:
    """The paper's Fig. 6 A/B: pass A with and without histories, alternating
    so both sides see the same machine state."""
    built.db_spill = None
    without = Database.open(
        os.path.join(workdir, "tpch.snapshot.nohist"), config=ModelConfig(use_history=False)
    )
    shares = []
    for _ in range(1 if run.smoke else 3):
        _rows, a = run.select(built.db, "join_orders", join_sql, into="")
        _rows, b = run.select(without, "join_orders_nohist", join_sql, into="")
        if a and b:
            shares.append((a - b) / a)
    return median(shares) if shares else 0.0


RUNNERS = {"tpch_load": run_load, "tpch_scan": run_scan, "tpch_join": run_join}
