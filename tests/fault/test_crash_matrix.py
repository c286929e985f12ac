"""The crash matrix: inject a crash at every fault point x hit, recover,
and demand the committed-prefix oracle's exact state.

For each cell the workload runs against a durable database with a fault
armed; the injected crash abandons the process state (the WAL handle is
discarded unsynced, nothing is closed), recovery reopens the directory,
and the recovered dump must equal an *admissible* oracle prefix:

* ``oracle[k]`` — the units acknowledged before the crash, or
* ``oracle[k + 1]`` — additionally the in-flight unit, when its log
  append survived (e.g. a crash between the append and the commit
  acknowledgement).

Equality is bitwise over :meth:`Database.dump_state` — certain values,
pdf encodings, dependency sets, lineage, index definitions, and the full
history store.  Anything of an uncommitted suffix surviving recovery, or
anything committed getting lost, fails the cell.
"""

from __future__ import annotations

import pytest

from repro.engine import faults
from repro.engine.database import Database
from repro.engine.faults import FAULT_POINTS, InjectedCrash

from . import kill_wal

# The full matrix (every fault point x first/middle/last hit) is minutes of
# work; tier-1 deselects it and the dedicated slow CI job runs it.
pytestmark = pytest.mark.slow

#: The workload, as committed units.  Single-statement units autocommit;
#: the multi-statement unit runs as one explicit transaction.  "SAVE"
#: snapshots to a side file (exercising the snapshot fault points).
WORKLOAD = [
    ["CREATE TABLE sensors (sid INT, temp REAL UNCERTAIN)"],
    ["INSERT INTO sensors VALUES (1, GAUSSIAN(20, 5))"],
    ["INSERT INTO sensors VALUES (2, UNIFORM(0, 10)), (3, DISCRETE(1:0.4, 2:0.6))"],
    ["CREATE TABLE objects (oid INT, x REAL, y REAL, DEPENDENCY (x, y))"],
    ["INSERT INTO objects VALUES (10, JOINT_GAUSSIAN([0, 0], [[1, 0.5], [0.5, 1]]))"],
    ["CREATE INDEX ON sensors (sid)"],
    ["CREATE PROB INDEX ON sensors (temp)"],
    [  # one statement, four rows, both indexes live: NULL and partial pdfs
        "INSERT INTO sensors VALUES (5, NULL), (6, HISTOGRAM(0, 10, 30 ; 0.25, 0.5)), "
        "(7, DISCRETE(1:0.25, 2:0.25)), (8, GAUSSIAN(25, 4))"
    ],
    [
        "INSERT INTO sensors VALUES (4, GAUSSIAN(30, 2))",
        "INSERT INTO objects VALUES (11, JOINT_DISCRETE((4, 5): 0.9, (2, 3): 0.1))",
        "DELETE FROM sensors WHERE sid = 2",
    ],
    ["CREATE TABLE hot AS SELECT sid, temp FROM sensors WHERE PROB(temp > 15) >= 0.5"],
    ["SAVE"],
    ["UPDATE sensors SET temp = GAUSSIAN(21, 1) WHERE sid = 1"],
    ["CREATE INDEX ON objects (oid)"],
    ["DROP TABLE hot"],
    ["DELETE FROM objects WHERE oid = 10"],
]


#: index of the unit that is one multi-row INSERT; each point of the commit
#: protocol gets a matrix cell of its own ("multirow") for the hit inside it
MULTIROW_UNIT = 7
_COMMIT_POINTS = tuple(p for p in FAULT_POINTS if p.startswith(("wal.append", "wal.fsync")))


def run_workload(
    db: Database, snap_path: str, upto: int = len(WORKLOAD), start: int = 0
) -> int:
    """Execute workload units; returns the number fully acknowledged.

    An :class:`InjectedCrash` mid-unit leaves the returned count out of
    reach — callers catching it read the progress from ``db`` instead —
    so progress is tracked on the database object itself.
    """
    db.units_acked = start
    for unit in WORKLOAD[start:upto]:
        if unit == ["SAVE"]:
            db.save(snap_path)
        elif len(unit) == 1:
            db.execute(unit[0])
        else:
            db.begin()
            for sql in unit:
                db.execute(sql)
            db.commit()
        db.units_acked += 1
    return db.units_acked


@pytest.fixture(scope="module")
def oracle_dumps(tmp_path_factory):
    """dump_state() after each committed prefix of the workload, 0..N."""
    faults.disarm_all()
    snap = str(tmp_path_factory.mktemp("oracle") / "side.snap")
    dumps = []
    for k in range(len(WORKLOAD) + 1):
        db = Database()
        run_workload(db, snap, upto=k)
        dumps.append(db.dump_state())
    return dumps


_COUNTS = {}
_COUNTS_BEFORE_MULTIROW = {}
_COUNTS_AFTER_MULTIROW = {}


@pytest.fixture(scope="module", autouse=True)
def probe_counts(tmp_path_factory):
    """One fault-free durable run, recording how often each point fires —
    in all, and up to either side of the multi-row INSERT."""
    faults.disarm_all()
    base = tmp_path_factory.mktemp("probe")
    db = Database(path=str(base / "db"), group_commit=1, checkpoint_every=5)
    snap = str(base / "side.snap")
    run_workload(db, snap, upto=MULTIROW_UNIT)
    _COUNTS_BEFORE_MULTIROW.update(faults.INJECTOR.counts())
    run_workload(db, snap, upto=MULTIROW_UNIT + 1, start=MULTIROW_UNIT)
    _COUNTS_AFTER_MULTIROW.update(faults.INJECTOR.counts())
    run_workload(db, snap, start=MULTIROW_UNIT + 1)
    db.close()
    _COUNTS.update(faults.INJECTOR.counts())
    faults.disarm_all()


def _matrix_cells():
    """(point, which-hit) cells: first, middle, and last hit per point, and
    the hit that falls inside the multi-row INSERT."""
    cells = []
    for point in FAULT_POINTS:
        cells.append((point, "first"))
        cells.append((point, "middle"))
        cells.append((point, "last"))
        if point in _COMMIT_POINTS:
            cells.append((point, "multirow"))
    return cells


def _resolve_hit(point: str, which: str):
    total = _COUNTS.get(point, 0)
    if total == 0:
        return None
    if which == "multirow":
        before = _COUNTS_BEFORE_MULTIROW.get(point, 0)
        reached = _COUNTS_AFTER_MULTIROW.get(point, 0) > before
        return before + 1 if reached else None
    hit = {"first": 1, "middle": total // 2 + 1, "last": total}[which]
    if which == "middle" and hit in (1, total) and total > 1:
        return None  # coincides with first/last; skip the duplicate cell
    if which in ("middle", "last") and total == 1:
        return None
    return hit


def test_matrix_covers_required_points():
    """The acceptance bar: >= 12 fault points exercised by the workload."""
    reached = {p for p, n in _COUNTS.items() if n > 0}
    assert len(reached) >= 12, f"only {sorted(reached)} reached"
    assert len(FAULT_POINTS) >= 12


def test_multirow_insert_is_crashed_at_every_wal_commit_point():
    (sql,) = WORKLOAD[MULTIROW_UNIT]
    assert sql.startswith("INSERT") and sql.count("), (") == 3
    assert len(_COMMIT_POINTS) == 5
    assert all(_resolve_hit(p, "multirow") is not None for p in _COMMIT_POINTS)


@pytest.mark.parametrize("point,which", _matrix_cells())
def test_crash_and_recover(point, which, oracle_dumps, tmp_path):
    hit = _resolve_hit(point, which)
    if hit is None:
        pytest.skip(f"no distinct {which!r} hit for {point!r} in this workload")

    path = str(tmp_path / "db")
    snap = str(tmp_path / "side.snap")
    db = Database(path=path, group_commit=1, checkpoint_every=5)
    faults.arm(point, hit)
    crashed = False
    try:
        run_workload(db, snap)
    except InjectedCrash as boom:
        crashed = True
        assert boom.point == point
    finally:
        faults.disarm_all()
        if db._wal is not None:
            kill_wal(db)  # simulated process death: nothing syncs
    acked = db.units_acked

    recovered = Database(path=path)
    try:
        dump = recovered.dump_state()
    finally:
        recovered.close()

    if not crashed:
        # The armed hit was only reached by close(); recovery is still exact.
        assert dump == oracle_dumps[len(WORKLOAD)]
        return
    if which == "multirow":
        assert acked == MULTIROW_UNIT  # it died inside the multi-row INSERT

    # The recovered state must be some committed prefix of the workload
    # (prefix-consistency) *and* the right one: every acknowledged unit
    # recovered, at most the one in-flight unit beyond.
    matches = [k for k, d in enumerate(oracle_dumps) if d == dump]
    assert matches, f"recovered state matches no committed prefix ({point}@{hit})"
    assert any(k in (acked, acked + 1) for k in matches), (
        f"{point}@{hit}: recovered prefix(es) {matches}, but {acked} units "
        f"were acknowledged before the crash"
    )
