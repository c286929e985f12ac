"""Lazy page synopses: a restored page is built by the first pruned scan.

A snapshot open restores raw pages and marks their synopses unbuilt
(``Table.unbuilt``).  An insert, delete or undo that lands on such a page
leaves it unbuilt, and the first scan that tests the page builds its
synopsis from the page as it then is.  The property: after a reopen and
DML on pages that are still unbuilt (by ``rid``, through the B+tree, which
builds nothing), pruned range and ``PROB`` selects at ``work_mem`` None and
1 return the never-closed database's rows, and every synopsis built
afterwards admits every live row of its page.
"""

from __future__ import annotations

import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.model import ModelConfig
from repro.engine.database import Database
from repro.engine.storage.serialize import decode_prefix

from .test_scan_pruning import _assert_columns_kept, _build_pdf, certain_values, pdf_specs

_INF = float("inf")
#: widens each record, so that the smallest table spans several pages
PAD = "x" * 100

SELECTS = [
    "SELECT rid, cval, uval FROM r WHERE cval > -5 AND cval < 5 ORDER BY rid",
    "SELECT rid, uval FROM r WHERE uval > 0 AND uval < 4",
    "SELECT rid FROM r WHERE PROB(uval > 1) >= 0.3",
    "SELECT rid FROM r WHERE PROB(*) >= 0.6",
]

ops = st.lists(
    st.tuples(
        st.sampled_from(["insert", "delete", "update", "rollback"]),
        st.integers(0, 200),
        certain_values(),
        pdf_specs(),
    ),
    min_size=1,
    max_size=6,
)


def _apply(db, op, next_rid):
    kind, target, cval, spec = op
    rid = target % next_rid
    _kind, mu, width, _cut = spec
    if kind in ("insert", "rollback"):
        if kind == "rollback":
            db.begin()
            db.execute(f"DELETE FROM r WHERE rid = {rid}")
            db.execute(f"UPDATE r SET uval = UNIFORM({mu!r}, {mu + width!r}) WHERE rid = {rid + 1}")
        with db.transaction():
            db.table("r").insert(
                certain={"rid": next_rid, "cval": cval}, uncertain={"uval": _build_pdf(spec)}
            )
        if kind == "rollback":
            db.abort()
    elif kind == "delete":
        db.execute(f"DELETE FROM r WHERE rid = {rid}")
    else:
        db.execute(f"UPDATE r SET uval = UNIFORM({mu!r}, {mu + width!r}) WHERE rid = {rid}")


def _rows(result):
    return sorted(
        repr((t.tuple_id, sorted(t.certain.items()), sorted((sorted(d), repr(p)) for d, p in t.pdfs.items())))
        for t in result.rows
    )


def _assert_built_synopses_admit_live_rows(table):
    """Each built page synopsis admits what a range or threshold test on any
    live row of its page would: its bounds hold every value and support
    hull, its masses bound every row's, and it counts the live rows."""
    assert not table.unbuilt & set(table.synopses)
    for page_id, syn in table.synopses.items():
        _slots, records = table.heap.page_records(page_id)
        assert syn.live == len(records)
        for record in records:
            prefix = decode_prefix(record, 0, summaries=True)
            for name, v in prefix.certain.items():
                if isinstance(v, (int, float)) and not isinstance(v, bool):
                    lo, hi = syn.certain[name]
                    assert not (lo > v or hi < v)
            exist = 1.0
            for summary in prefix.deps:
                if not summary.has_pdf:
                    continue
                exist = min(exist, summary.mass)
                for attr in summary.attrs:
                    lo, hi = summary.support.get(attr, (-_INF, _INF))
                    entry = syn.uncertain[attr]
                    assert not (entry[0] > lo or entry[1] < hi or entry[2] < summary.mass)
            assert not syn.max_exist_mass < exist
    _assert_columns_kept(table)


@settings(max_examples=15, deadline=None)
@given(
    rows=st.lists(st.tuples(certain_values(), pdf_specs()), min_size=30, max_size=90),
    dml=ops,
)
def test_dml_on_unbuilt_pages_then_pruned_selects(rows, dml):
    live = Database()
    live.execute("CREATE TABLE r (rid INT, cval REAL, uval REAL UNCERTAIN, pad TEXT)")
    live.execute("CREATE INDEX ON r (rid)")
    with live.transaction():
        for rid, (cval, spec) in enumerate(rows):
            live.table("r").insert(
                certain={"rid": rid, "cval": cval, "pad": PAD}, uncertain={"uval": _build_pdf(spec)}
            )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.snapshot")
        live.save(path)
        reopened = [Database.open(path), Database.open(path, config=ModelConfig(work_mem=1))]
    restored = set(live.table("r").heap.page_ids)
    assert len(restored) > 1
    for db in reopened:
        assert db.table("r").unbuilt == restored and not db.table("r").synopses
    for i, op in enumerate(dml):
        for db in [live, *reopened]:
            _apply(db, op, len(rows) + i)
    for db in reopened:  # DML by rid reads through the B+tree: nothing built yet
        assert db.table("r").unbuilt == restored
    for sql in SELECTS:
        expected = _rows(live.execute(sql))
        for db in reopened:
            assert _rows(db.execute(sql)) == expected, sql
    for db in reopened:
        table = db.table("r")
        assert table.synopses
        _assert_built_synopses_admit_live_rows(table)
        assert _rows(db.execute("SELECT * FROM r")) == _rows(live.execute("SELECT * FROM r"))
