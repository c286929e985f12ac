#!/usr/bin/env python3
"""python benchmarks/measure/measure_record_codec.py SRC [SRC ...] — bytes and microseconds of one heap record.

For each source tree (e.g. a clone of the parent commit's ``src`` and this checkout's), one child process loads the
``lineitem`` and ``orders`` tables of uncertain TPC-H at SF 0.0006 (seed 0, the ``tpch_load`` instance) and a
1,200-row ``readings`` table in ``sensor_durable``'s representation mix (60 % symbolic Gaussians, 20 % 5-bucket
histograms, 20 % 25-point samplings), takes every stored record and prints per table:

* bytes per record, split into the prefix (tuple id, certain values, dependency-set summaries, payload lengths), the
  part of that prefix that spells attribute names, the pdf payloads (``pdf_size``, Figure 5's metric) and the
  lineage sections;
* encode (``encode_record`` of the decoded tuple), decode (``decode_tuple`` of the stored bytes) and prefix decode
  (``decode_prefix``, what a scan runs on every record before its pruner) microseconds per record, the minimum over
  ten timed passes after a warm-up, with the collector off;

and, once per tree, ``fresh_lineage(ref)`` microseconds per set (a decoded base set's history, its ``AncestorRef``
built beforehand; same timing rule, over ``lineitem``'s sets).

Regenerates the "Record codec" table of docs/PERFORMANCE.md.
"""
import gc
import json
import os
import subprocess
import sys
import time


def _names_bytes(record, prefix):
    """Bytes the prefix spends on attribute names."""
    names = getattr(prefix, "names", None)
    if names is not None:  # one table: a u16 length, then each name NUL-terminated
        return 2 + sum(len(n.encode()) + 1 for n in names)
    # one u16-length-prefixed string per certain column, set member and support entry
    spelled = list(prefix.certain) + [a for s in prefix.deps for a in list(s.attrs) + list(s.support)]
    return sum(2 + len(n.encode()) for n in spelled)


def _measure(records):
    from repro.engine.storage.serialize import decode_prefix, decode_tuple, encode_record, pdf_size

    tuples = [decode_tuple(r)[0] for r in records]
    out = {"records": len(records), "bytes": 0, "prefix": 0, "names": 0, "pdfs": 0, "lineage": 0}
    for record, t in zip(records, tuples):
        prefix = decode_prefix(record)
        payloads = sum(entry[-1] for entry in prefix._payloads)  # each entry ends in its length
        pdfs = sum(pdf_size(pdf) for pdf in t.pdfs.values())
        out["bytes"] += len(record)
        out["prefix"] += len(record) - payloads
        out["names"] += _names_bytes(record, prefix)
        out["pdfs"] += pdfs
        out["lineage"] += payloads - pdfs
    for key in ("bytes", "prefix", "names", "pdfs", "lineage"):
        out[key] /= len(records)
    gc.disable()
    for key, step, items in (("encode_us", encode_record, tuples), ("decode_us", decode_tuple, records),
                             ("prefix_us", decode_prefix, records)):
        out[key] = _min_us(step, items)
    gc.enable()
    return out


def _min_us(step, items):
    """Microseconds per item of ``step``, the minimum of ten passes after a warm-up."""
    passes = []
    for _ in range(11):  # the first is the warm-up
        t0 = time.perf_counter()
        for item in items:
            step(item)
        passes.append(time.perf_counter() - t0)
    return min(passes[1:]) / len(items) * 1e6


def _lineage_us(tuples):
    from repro.core.history import AncestorRef, fresh_lineage

    refs = [AncestorRef(t.tuple_id, dep) for t in tuples for dep in t.pdfs]
    gc.disable()
    us = _min_us(fresh_lineage, refs)
    gc.enable()
    return us


def child():
    from repro.engine.database import Database
    from repro.workloads import TpchConfig, generate_tpch
    from repro.workloads.sensors import generate_readings, make_readings

    db = Database()
    generate_tpch(db, TpchConfig(scale_factor=0.0006, seed=0))
    db.execute("CREATE TABLE readings (rid INT, value REAL UNCERTAIN)")
    readings = generate_readings(1200, seed=0)
    mix = (("symbolic", 5, 720), ("histogram", 5, 240), ("discrete", 25, 240))
    start = 0
    for representation, size, n in mix:
        rows = [({"rid": rid}, {"value": pdf})
                for rid, pdf in make_readings(readings[start:start + n], representation, size)]
        db.table("readings").insert_many(rows)
        start += n
    result = {}
    for name in ("lineitem", "orders", "readings"):
        records = [record for _rid, record in db.table(name).heap.scan()]
        result[name] = _measure(records)
    lineitem = [t for _rid, t in db.table("lineitem").scan()]
    print(json.dumps({"tables": result, "fresh_lineage_us": _lineage_us(lineitem)}))


def main(argv):
    for src in argv:
        done = subprocess.run(
            [sys.executable, __file__, "--child"],
            env=dict(os.environ, PYTHONPATH=src), stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(src)
        print(f"  {'table':<9}{'records':>8}{'bytes':>8}{'prefix':>8}{'names':>7}{'pdfs':>7}"
              f"{'lineage':>8}{'enc_us':>8}{'dec_us':>8}{'pre_us':>8}")
        for name, r in result["tables"].items():
            print(f"  {name:<9}{r['records']:>8}{r['bytes']:>8.1f}{r['prefix']:>8.1f}{r['names']:>7.1f}"
                  f"{r['pdfs']:>7.1f}{r['lineage']:>8.1f}{r['encode_us']:>8.1f}{r['decode_us']:>8.1f}"
                  f"{r['prefix_us']:>8.1f}")
        print(f"  fresh_lineage: {result['fresh_lineage_us']:.2f} us per set")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child()
    else:
        main(sys.argv[1:])
