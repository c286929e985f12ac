"""Per-layer replay probes of the traced run.

The engine has no per-operator profile yet, so each layer's cost is
measured *from outside*: after the passes, the layer's public functions are
called over the very records the workload's tables hold, and timed.  A
probe is a replay, not an in-situ span — the sum of probes need not equal
``wall_s``, and the residual is reported as ``unattributed_s`` in the trace.

Every probe finds its symbol at run time.  When a later PR renames or
deletes one, the probe's metrics are listed in ``run.unavailable`` and the
run still succeeds.

Keys starting with ``_`` are intermediate per-table figures other metrics
are derived from; they are not metrics.
"""

from __future__ import annotations

import gc

from harness import median, perf, resolve

#: batch size the engine's own scans use (``ModelConfig.batch_size`` default)
SEGMENT_ROWS = 256


def _timed(run, name: str, fn):
    gc.collect()
    t0 = perf()
    result = fn()
    t1 = perf()
    run.span(name, "probe", t0, t1)
    return result, t1 - t0


def _attempt(run, metrics, fn) -> None:
    """Run one probe; a symbol that is gone makes its metrics unavailable."""
    try:
        fn()
    except (AttributeError, ImportError, TypeError) as exc:
        run.unavailable.update(metrics)
        run.params.setdefault("probe_errors", []).append(f"{metrics[0]}: {exc!r}")


def codec_and_storage(run, db, names) -> dict:
    """Replay page read, decode, encode, heap insert, segment scan and column
    build over every record of the named tables."""
    run.pass_no = -1
    tables = {name: db.table(name) for name in names}
    total = sum(len(t) for t in tables.values())
    out = {"_scan_s": {}, "_decode_s": {}, "_page_read_s": {}, "_record_bytes": {},
           "_rows": {name: max(len(t), 1) for name, t in tables.items()}}
    records, tuples, chunks = {}, {}, {}

    def per_table(label, source, work, seconds_into=None):
        """Time ``work(item)`` per table; returns (results, total seconds)."""
        results, spent = {}, 0.0
        for name, item in source.items():
            results[name], seconds = _timed(run, f"{label}.{name}", lambda i=item: work(i))
            if seconds_into is not None:
                out[seconds_into][name] = seconds
            spent += seconds
        return results, spent

    def read_pages():
        pages, spent = per_table(
            "storage.page_read", tables, lambda t: list(t.heap.scan_records()), "_page_read_s"
        )
        for name, page_list in pages.items():
            records[name] = [r for page in page_list for r in page]
        out["storage.page_read_us_per_tuple"] = spent / total * 1e6

    _attempt(run, ["storage.page_read_us_per_tuple"], read_pages)
    if not records:  # no scan_records(): the RID scan still feeds the codec probes
        for name, table in tables.items():
            records[name] = [record for _rid, record in table.heap.scan()]
    for name, recs in records.items():
        out["_record_bytes"][name] = sum(len(r) for r in recs)
    out["serialize.record_bytes_per_tuple"] = sum(out["_record_bytes"].values()) / total
    out["storage.pages_per_ktuple"] = (
        sum(t.stats()["pages"] for t in tables.values()) / total * 1e3
    )

    def decode():
        fn = resolve("repro.engine.storage.serialize:decode_tuple")
        decoded, spent = per_table(
            "serialize.decode_tuple", records, lambda r: [fn(x)[0] for x in r], "_decode_s"
        )
        tuples.update(decoded)
        out["serialize.decode_us_per_tuple"] = spent / total * 1e6

    _attempt(run, ["serialize.decode_us_per_tuple", "serialize.decode_share"], decode)

    def decode_prefix():
        fn = resolve("repro.engine.storage.serialize:decode_prefix")
        _, spent = per_table("serialize.decode_prefix", records, lambda r: [fn(x) for x in r])
        out["serialize.decode_prefix_us_per_tuple"] = spent / total * 1e6

    _attempt(run, ["serialize.decode_prefix_us_per_tuple"], decode_prefix)

    def encode():
        fn = resolve("repro.engine.storage.serialize:encode_tuple")
        _, spent = per_table("serialize.encode_tuple", tuples, lambda d: [fn(t) for t in d])
        out["serialize.encode_us_per_tuple"] = spent / total * 1e6

    _attempt(run, ["serialize.encode_us_per_tuple", "table.insert_other_us_per_tuple"], encode)

    def heap_insert():
        pool_cls = resolve("repro.engine.storage.buffer:BufferPool")
        heap_cls = resolve("repro.engine.storage.heapfile:HeapFile")

        def fill(recs):
            heap = heap_cls(pool_cls(capacity=256))
            for record in recs:
                heap.insert(record)

        _, spent = per_table("storage.heap_insert", records, fill)
        out["storage.heap_insert_us_per_tuple"] = spent / total * 1e6

    _attempt(
        run, ["storage.heap_insert_us_per_tuple", "table.insert_other_us_per_tuple"], heap_insert
    )

    def scan_segments():
        scanned, spent = per_table(
            "table.scan_segments", tables,
            lambda t: [chunk for chunk, _segment in t.scan_segments(SEGMENT_ROWS)], "_scan_s",
        )
        chunks.update(scanned)
        out["table.scan_s"] = spent
        out["table.scan_us_per_tuple"] = spent / total * 1e6

    _attempt(
        run, ["table.scan_s", "table.scan_us_per_tuple", "executor.nonscan_s"], scan_segments
    )

    def column_build():
        segment_cls = resolve("repro.core.columnar:ColumnarSegment")
        uncertain = {n: t for n, t in tables.items() if t.schema.dependency}
        source = chunks or {
            n: [d[i:i + SEGMENT_ROWS] for i in range(0, len(d), SEGMENT_ROWS)]
            for n, d in tuples.items()
        }

        def columns(table):
            for chunk in source[table.name]:
                segment = segment_cls(chunk)
                for dep in table.schema.dependency:
                    segment.column(dep)

        _, spent = per_table("columnar.column_build", uncertain, columns)
        rows = sum(len(t) for t in uncertain.values())
        out["columnar.column_build_us_per_tuple"] = spent / max(rows, 1) * 1e6

    _attempt(run, ["columnar.column_build_us_per_tuple"], column_build)
    return out


def kernel_sweep(run, db, table: str, attr: str, allowed) -> dict:
    """One ``batch_interval_probs`` sweep over every stored pdf of a column —
    the kernel behind range and ``PROB`` selections."""
    out = {}

    def sweep():
        fn = resolve("repro.pdf.kernels:batch_interval_probs")
        dep = frozenset({attr})
        pdfs = [
            t.pdfs[dep] for _rid, t in db.table(table).scan() if t.pdfs.get(dep) is not None
        ]
        alloweds = [allowed] * len(pdfs)
        _, seconds = _timed(run, "kernels.batch_interval_probs", lambda: fn(pdfs, alloweds))
        out["kernels.sweep_us_per_tuple"] = seconds / max(len(pdfs), 1) * 1e6

    _attempt(run, ["kernels.sweep_us_per_tuple"], sweep)
    return out


def pass_layers(run, codec: dict, decoded_per_pass: dict) -> dict:
    """Fold the traced passes' spans and counts into the per-layer metrics.

    ``decoded_per_pass`` maps a table to how many of its tuples the
    statements inside ``wall_s`` fully decode per pass (every row for a
    statement without a WHERE clause or a join input, the surviving rows for
    a lazily decoded selection).  With the probes' per-tuple seconds that
    sizes the decode share and the executor's non-scan estimate — both are
    estimates from replays, not in-situ spans.
    """
    out = dict(codec)
    wall = run.med("wall_s")
    traced_wall = run.med("traced:wall_s")
    parse_s = run.med("traced:sql.parse_s")
    plan_s = run.med("traced:sql.plan_s")
    execute_s = run.med("traced:executor.execute_s")

    def per_pass(key):
        return sum(
            n * codec[key].get(t, 0.0) / codec["_rows"][t] for t, n in decoded_per_pass.items()
        )

    rows_out = run.med("traced:rows_out")
    gc_s = run.med("traced:runtime.gc_s")
    hits = run.med("traced:storage.buffer_hits")
    misses = run.med("traced:storage.buffer_misses")
    out.update(
        {
            "sql.parse_s": parse_s,
            "sql.plan_s": plan_s,
            "sql.share": (parse_s + plan_s) / wall,
            "executor.execute_s": execute_s,
            "executor.nonscan_s": execute_s - per_pass("_scan_s"),
            "executor.rows_in_per_row_out": (
                run.med("traced:rows_in") / rows_out if rows_out else 0.0
            ),
            "executor.materialise_s": run.med("traced:executor.materialise_s"),
            "serialize.decode_share": per_pass("_decode_s") / wall,
            "storage.buffer_hits": hits,
            "storage.buffer_misses": misses,
            "storage.buffer_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "storage.evictions": run.med("traced:storage.evictions"),
            "storage.disk_reads": run.med("traced:storage.disk_reads"),
            "storage.disk_writes": run.med("traced:storage.disk_writes"),
            "runtime.gc_s": gc_s,
            "runtime.gc_share": gc_s / traced_wall if traced_wall else 0.0,
            "runtime.gc_gen2_collections": run.med("traced:runtime.gc_gen2_collections"),
            "trace.overhead_share": _overhead(run),
        }
    )
    for name, values in run.samples.items():
        if name.startswith("stmt_s."):
            out["executor." + name] = median(values)
    attributed = parse_s + plan_s + per_pass("_page_read_s") + per_pass("_decode_s") + gc_s
    run.params["unattributed_s"] = wall - attributed
    return out


def _overhead(run) -> float:
    """Traced ÷ untraced − 1 over everything both kinds of pass timed, each
    side taken at its least disturbed pass: a traced run has only two or three
    pairs, and one pass inside a slow phase of the VM would swamp a median."""

    def fastest(prefix):
        walls = run.samples.get(prefix + "wall_s", [])
        spills = run.samples.get(prefix + "spill_wall_s", [0.0] * len(walls))
        return min((w + s for w, s in zip(walls, spills)), default=0.0)

    untraced = fastest("")
    return fastest("traced:") / untraced - 1.0 if untraced else 0.0


def insert_residual(out: dict) -> None:
    """``table.insert_other`` = insert − encode − heap insert: tuple
    construction, history registration and synopsis upkeep."""
    parts = ("table.insert_us_per_tuple", "serialize.encode_us_per_tuple",
             "storage.heap_insert_us_per_tuple")
    if all(p in out for p in parts):
        out["table.insert_other_us_per_tuple"] = out[parts[0]] - out[parts[1]] - out[parts[2]]


def spill_layers(run, layers: dict, spilled_inputs, slow: str, fast: str) -> dict:
    """Spill counters per pass; ``spilled_inputs`` names the tables the
    memory-bounded statements read, ``slow``/``fast`` the statement pair whose
    ratio is the spill slowdown."""
    out = {}
    for key in ("join_spills", "join_partitions", "sort_runs", "bytes_written"):
        if "spill." + key not in run.unavailable:
            out["spill." + key] = run.med("traced:spill." + key)
    if "spill.bytes_written" in out:
        input_bytes = sum(layers["_record_bytes"][t] for t in spilled_inputs)
        out["spill.bytes_written_per_input_byte"] = out["spill.bytes_written"] / input_bytes
    fast_s = run.med("stmt_s." + fast)
    out["spill.slowdown"] = run.med("stmt_s." + slow) / fast_s if fast_s else 0.0
    return out
