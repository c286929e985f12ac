"""Shared machinery of the end-to-end benchmark.

One :class:`Run` per process carries everything a workload measures:
closed-loop operation timing (one client, the next statement only after
the previous one returned), the pass protocol (one untimed warm-up, then
timed passes), the failure count that becomes ``failed``/``attempted``,
and — in a traced run — the in-memory span list written out at exit.
End-to-end timings are kept in reference seconds (:class:`Paced`): the host
this runs on is shared, and its speed is measured beside every operation.

Nothing here reaches into the engine: statements go through
``Database.execute`` and, in traced passes, through the three public calls
``parse`` → ``plan_select`` → ``execute_plan`` that ``Database`` itself
makes.  Symbols a later PR may rename are looked up with :func:`resolve`
at run time, so a missing one turns into an unavailable probe, not a crash.
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import struct
import sys
import tempfile
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[2]
#: every byte the benchmark writes lands under here (named in .gitignore)
SCRATCH = ROOT / ".bench_e2e"

#: these silently switch the engine's execution path (workers, row-batch
#: tier, forced spilling, torn-write injection); a benchmark run must not
#: inherit them from the caller's shell
SCRUBBED_ENV = (
    "REPRO_WORKERS",
    "REPRO_PARALLEL_BACKEND",
    "REPRO_COLUMNAR",
    "REPRO_WORK_MEM",
    "REPRO_FAULT_SEED",
)

perf = time.perf_counter


def prepare_environment() -> None:
    """Scrub engine switches and pin ``repro`` to this checkout's ``src``.

    The benchmark compares commits, so it must measure the source tree it
    sits in — never a copy of ``repro`` installed elsewhere.  Without
    ``src/repro`` next to it there is nothing to measure and it refuses.
    """
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"e2e benchmark: no engine source at {src / 'repro'}")
    sys.path.insert(0, str(src))
    # Engine scratch files (spill runs without an explicit spill_dir) must
    # stay inside the checkout too.
    (SCRATCH / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(SCRATCH / "tmp")


def resolve(dotted: str):
    """``"package.module:attr.path"`` looked up now; ``None`` if it is gone."""
    module, _, attr = dotted.partition(":")
    try:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
    except (ImportError, AttributeError):
        return None
    return obj


def git_commit() -> str:
    """HEAD of this checkout, read from ``.git`` files (the driver's copy has none)."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        loose = ROOT / ".git" / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    """Provenance recorded in every report."""
    info_fn = resolve("repro.bench.envinfo:environment_info")
    info = dict(info_fn()) if info_fn else {}
    info["nproc"] = len(os.sched_getaffinity(0))
    info["git_commit"] = git_commit()
    return info


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(list(values)))


#: what one :func:`_calibration` takes on the reference box when its
#: neighbours are quiet; only sets the scale, so that reference seconds read
#: as seconds there
REFERENCE_CALIBRATION_S = 0.0016
_CALIBRATION_RECORD = struct.Struct("<idd")


def _calibration() -> float:
    """Seconds a fixed piece of interpreter work takes right now.

    Shaped like the engine's own work (small objects, dicts, record
    packing, short numpy calls) but independent of it: it lives here, so no
    engine change can move it.
    """
    t0 = perf()
    rows = [{"a": i, "b": i * 0.5, "c": (i, i + 1)} for i in range(1500)]
    packed = [_CALIBRATION_RECORD.pack(r["a"], r["b"], r["b"] * 2.0) for r in rows]
    values = np.array([_CALIBRATION_RECORD.unpack(b)[1] for b in packed])
    total = 0
    for i in range(8000):
        total += i * i % 7
    for _ in range(25):
        values = np.sort(values * 1.0001)[::-1].copy()
        np.searchsorted(values[::-1], 100.0)
    rows.sort(key=lambda r: -r["a"])
    return perf() - t0


#: calibrations per measurement of the pace (~9 ms)
PACE_SAMPLES = 5


def pace() -> float:
    """How slow the machine is right now: 1.0 is the quiet reference box.

    The collector is off meanwhile: the calibration's own allocations would
    trigger collections that walk the *engine's* young objects, and the pace
    would read slow after whatever allocated most.  Its garbage has no
    cycles, so nothing is left behind for the collector either.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        total = sum(_calibration() for _ in range(PACE_SAMPLES))
    finally:
        if was_enabled:
            gc.enable()
    return total / PACE_SAMPLES / REFERENCE_CALIBRATION_S


#: what one :meth:`SyncProbe.seconds` reads on the quiet reference box; like
#: ``REFERENCE_CALIBRATION_S`` it only sets the scale
REFERENCE_SYNC_S = 0.0003
SYNC_SAMPLES = 5


class SyncProbe:
    """What an fsync costs right now: a scratch file, appended to and fsynced.

    The sandbox's disk is shared too, and its flushes wander by ±50 % for
    minutes independently of the CPU's pace.  A durable commit pays one flush
    of a log record about this size, so its wait for the device is measured
    beside it and taken out (see :class:`Paced`).
    """

    RECORD = b"\0" * 256

    def __init__(self, path: str) -> None:
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o600)

    def seconds(self) -> float:
        t0 = perf()
        for _ in range(SYNC_SAMPLES):
            os.write(self._fd, self.RECORD)
            os.fsync(self._fd)
        return (perf() - t0) / SYNC_SAMPLES

    def close(self) -> None:
        os.close(self._fd)


class Paced:
    """Timings in *reference seconds*: each divided by the pace around it.

    The reference VM shares its cores.  Bursts of 1.2-2x slowdown last from
    milliseconds to minutes there, and a burst that covers a whole run moves
    every wall-clock estimator, the fastest repeat included.  The
    calibration slows with the engine (same interpreter, same core), so a
    timing divided by the mean calibration measured just before and just
    after it stays put: on the same raw timings of ten-run recordings the
    quartile spread of ``wall_s`` fell from 8-39 % to 3-10 %.

    :meth:`mark` measures the pace; every timing :meth:`add` files between
    two marks is scaled by their mean.  With a :class:`SyncProbe` in
    ``sync``, a mark also measures a flush, and a timing filed with
    ``syncs=n`` has ``n`` flushes at the measured cost replaced by ``n`` at
    the reference cost before the rest is scaled.
    """

    def __init__(self) -> None:
        self.sync = None
        self._marks = []
        self._entries = []

    def mark(self) -> None:
        self._marks.append((pace(), self.sync.seconds() if self.sync else 0.0))

    def add(self, key: str, seconds: float, syncs: int = 0) -> None:
        if not self._marks:
            self.mark()
        self._entries.append((key, len(self._marks), seconds, syncs))

    def close(self) -> dict:
        """key -> its timings in reference seconds, in the order filed."""
        self.mark()
        out = defaultdict(list)
        for key, at, seconds, syncs in self._entries:
            (pace0, sync0), (pace1, sync1) = self._marks[at - 1], self._marks[at]
            waited = min(syncs * (sync0 + sync1) / 2, seconds)
            out[key].append((seconds - waited) / ((pace0 + pace1) / 2) + syncs * REFERENCE_SYNC_S)
        return out


def timed_repeats(fn, repeats: int):
    """``fn()`` ``repeats`` times, each from a collected heap with the previous
    result dropped.  Returns the last result and, per repeat, the wall
    seconds and the reference seconds."""
    paced, wall, result = Paced(), [], None
    for _ in range(repeats):
        result = None
        gc.collect()
        paced.mark()
        t0 = perf()
        result = fn()
        wall.append(perf() - t0)
        paced.add("", wall[-1])
    return result, wall, paced.close()[""]


def sum_of_medians(repeats) -> float:
    """A repeated sequence of operations: the sum of each one's median.

    ``repeats`` holds one list of timings per repeat, position ``i`` being
    the same operation every time.
    """
    return float(sum(median(column) for column in _columns(repeats)))


def median_of_medians(repeats) -> float:
    """Median over a sequence's operations of each one's median over repeats."""
    return median(median(column) for column in _columns(repeats))


def _columns(repeats):
    repeats = list(repeats)
    if len({len(r) for r in repeats}) != 1:
        # an operation failed somewhere; the run is incorrect anyway
        size = min(len(r) for r in repeats)
        repeats = [r[:size] for r in repeats]
    return list(zip(*repeats))


def percentile(values, q: float):
    """The ``q`` quantile, or ``None`` unless at least ten samples lie beyond it."""
    ordered = sorted(values)
    beyond = int(len(ordered) * (1.0 - q))
    if beyond < 10:
        return None
    return float(ordered[len(ordered) - beyond - 1])


@contextmanager
def private_dir(prefix: str):
    """A scratch directory of this process alone, removed on the way out."""
    base = SCRATCH / "tmp"
    base.mkdir(parents=True, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{prefix}-{os.getpid()}-", dir=str(base))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def spill_leftovers(directory: str) -> list:
    """Spill files still on disk under ``directory`` (there must be none)."""
    found = []
    for dirpath, _dirs, files in os.walk(directory):
        found.extend(os.path.join(dirpath, f) for f in files if f.endswith(".spill"))
    return found


BUFFER_COUNTERS = ("buffer_hits", "buffer_misses", "evictions", "disk_reads", "disk_writes")


def buffer_counters(dbs) -> list:
    """Summed ``db.buffer_stats`` / ``db.io_counters`` of some databases."""
    return [
        sum(values)
        for values in zip(*(
            (db.buffer_stats.hits, db.buffer_stats.misses, db.buffer_stats.evictions,
             db.io_counters.reads, db.io_counters.writes)
            for db in dbs
        ))
    ]


class GcTimer:
    """Wall time the cyclic collector runs, via ``gc.callbacks``."""

    def __init__(self) -> None:
        self.seconds = 0.0
        self.gen2 = 0
        self._start = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = perf()
        else:
            self.seconds += perf() - self._start
            if info["generation"] == 2:
                self.gen2 += 1


class Run:
    """State of one benchmark process: samples, spans, failures."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        #: name -> samples: one per statement for latencies, one per pass for
        #: the totals :meth:`add` accumulates; traced passes record under
        #: ``"traced:" + name``
        self.samples = defaultdict(list)
        #: name -> one list per timed pass: every operation counted into the
        #: total ``name``, or every latency of ``name``, in pass order
        self.series = defaultdict(list)
        self._pass_totals = defaultdict(float)
        self._pass_latencies = defaultdict(list)
        self._paced = None  # the timed pass under way, in reference seconds
        self.spans = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        #: per-layer metrics whose probe could not find its symbol
        self.unavailable = set()
        self.params = {}
        self.mode = "setup"  # setup | warmup | timed | traced
        self.pass_no = -1
        self.gc_timer = GcTimer()
        self._steps = None  # (parse, plan_select, execute_plan, QueryResult), looked up once

    # -- bookkeeping -------------------------------------------------------

    @property
    def traced(self) -> bool:
        return self.mode == "traced"

    def record(self, name: str, value: float) -> None:
        """Keep ``value`` as a sample of ``name`` (warm-up passes record nothing)."""
        if self.mode == "timed":
            self.samples[name].append(value)
        elif self.mode == "traced":
            self.samples["traced:" + name].append(value)

    def add(self, name: str, value: float) -> None:
        """Accumulate into this pass's total of ``name`` (one sample per pass)."""
        self._pass_totals[name] += value

    def latency(self, name: str, seconds: float, syncs: int = 0) -> None:
        """One statement's latency; ``name`` gets this pass's median of them."""
        self._pass_latencies[name].append(seconds)
        if self._paced is not None:
            self._paced.add(name, seconds, syncs)

    def calibrate(self) -> None:
        """Measure the machine's pace here (between operations of a timed pass)."""
        if self._paced is not None:
            self._paced.mark()

    def probe_syncs(self, probe) -> None:
        """From here on this pass's marks measure a flush too (``None``: stop)."""
        if self._paced is not None:
            self._paced.sync = probe

    def fail(self, what: str, detail: str = "") -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{what}: {detail}" if detail else what)

    def check(self, what: str, ok: bool, detail: str = "") -> bool:
        """An oracle check is an attempted operation; a miss is a failed one."""
        self.attempted += 1
        if not ok:
            self.fail(what, detail)
        return ok

    def add_buffer_deltas(self, dbs, before) -> None:
        """Count what the pass did to the buffer pool since ``buffer_counters(dbs)``."""
        for name, a, b in zip(BUFFER_COUNTERS, buffer_counters(dbs), before):
            self.add("storage." + name, a - b)

    def span(self, name: str, parent: str, start: float, end: float, op: str = "") -> None:
        self.spans.append(
            {
                "workload": self.workload,
                "pass": self.pass_no,
                "op": op or name,
                "name": name,
                "parent": parent,
                "start": start,
                "end": end,
            }
        )

    # -- timed operations --------------------------------------------------

    def op(self, name, fn, *args, parent="pass", collect=True, into="wall_s", syncs=0):
        """Run one closed-loop operation; returns ``(result, seconds)``.

        The seconds also count towards the pass total ``into`` (the pass's
        ``wall_s`` is the sum of its operations, so harness work between
        operations — oracle checks, replay probes — never enters it).

        ``gc.collect()`` first so every operation starts from the same heap
        state, then the interpreter's default collector stays on: users
        pay for it, so it is measured.  The machine's pace is measured at the
        same point; ``collect=False`` makes the operation part of the block
        the previous one started.  ``syncs`` is how many flushes to the
        device the operation waits for (see :class:`Paced`).  A raise makes
        the operation failed and returns ``(None, None)``.
        """
        if collect:
            gc.collect()
            self.calibrate()
        self.attempted += 1
        gc0 = self.gc_timer.seconds
        t0 = perf()
        try:
            result = fn(*args)
        except Exception as exc:  # boundary: a failed operation is a data point
            self.fail(name, repr(exc))
            return None, None
        t1 = perf()
        if into:
            self.add(into, t1 - t0)
            if self._paced is not None:
                self._paced.add(into, t1 - t0, syncs)
        if self.traced:
            self.span(name, parent, t0, t1)
            if into == "wall_s":
                self.add("runtime.gc_s", self.gc_timer.seconds - gc0)
        return result, t1 - t0

    def select(self, db, name: str, sql: str, collect: bool = True, into: str = "wall_s"):
        """One SELECT; returns ``(rows, seconds)``.

        Untraced: ``db.execute(sql)``.  Traced: the same three calls
        ``Database`` makes, each in its own span under the statement's.
        """
        steps = self._sql_steps() if self.traced else None
        if steps is None:
            result, seconds = self.op(name, db.execute, sql, collect=collect, into=into)
            return (None if result is None else result.rows), seconds
        parse, plan_select, execute_plan, result_cls = steps
        marks = []

        def run():
            marks.append(perf())
            stmt = parse(sql)
            marks.append(perf())
            plan = plan_select(db.catalog, stmt)
            marks.append(perf())
            rows = execute_plan(plan, db.config)
            marks.append(perf())
            return rows, plan

        result, seconds = self.op(name, run, collect=collect, into=into)
        if result is None:
            return None, None
        rows, plan = result
        for child, (a, b) in zip(
            ("sql.parse", "sql.plan", "executor.execute"), zip(marks, marks[1:])
        ):
            self.span(child, name, a, b, op=name)
            if into == "wall_s":  # per-layer sums cover what wall_s covers
                self.add(child + "_s", b - a)
        if into == "wall_s" and result_cls is not None:
            self._materialise(result_cls, name, plan, rows)
        return rows, seconds

    def _sql_steps(self):
        if self._steps is None:
            self._steps = (
                resolve("repro.engine.sql.parser:parse"),
                resolve("repro.engine.sql.planner:plan_select"),
                resolve("repro.engine.sql.planner:execute_plan"),
                resolve("repro.engine.database:QueryResult"),
            )
            if None in self._steps[:3]:
                self.unavailable.update(
                    ("sql.parse_s", "sql.plan_s", "sql.share", "executor.execute_s",
                     "executor.nonscan_s", "executor.materialise_s")
                )
            elif self._steps[3] is None:
                self.unavailable.add("executor.materialise_s")
        return None if None in self._steps[:3] else self._steps

    def _materialise(self, result_cls, name: str, plan, rows) -> None:
        """Probe: what flattening the result to dicts would have cost (a replay,
        outside the statement's own time)."""
        schema = plan.output_schema
        result = result_cls(columns=list(schema.visible_attrs), rows=rows, schema=schema)
        t0 = perf()
        result.to_dicts()
        t1 = perf()
        self.span("executor.materialise", name, t0, t1, op=name)
        self.add("executor.materialise_s", t1 - t0)

    # -- the pass protocol -------------------------------------------------

    def passes(self, one_pass, min_timed: int = 5) -> None:
        """One untimed warm-up pass, then timed passes until ``seconds`` of
        them have run, never fewer than ``min_timed``.  In a traced run each
        timed pass is followed by the same pass traced, so the two kinds see
        the same machine state and their difference is the tracing overhead.
        """
        if self.smoke:
            min_timed = 1
        elif self.trace:
            min_timed = min(min_timed, 2)  # pairs: each is one untraced + one traced pass
        self.mode = "warmup"
        one_pass()
        self._end_pass()
        spent, done = 0.0, 0
        while done < min_timed or (spent < self.seconds and not self.smoke):
            for mode in ("timed", "traced") if self.trace else ("timed",):
                self.mode = mode
                self.pass_no += 1
                gen2 = self.gc_timer.gen2
                if mode == "traced":
                    gc.callbacks.append(self.gc_timer)
                elif not self.trace:  # only an untraced run reports end-to-end metrics
                    self._paced = Paced()
                t0 = perf()
                try:
                    one_pass()
                finally:
                    if mode == "traced":
                        gc.callbacks.remove(self.gc_timer)
                spent += perf() - t0
                if mode == "traced":
                    self.add("runtime.gc_gen2_collections", self.gc_timer.gen2 - gen2)
                self._end_pass()
            done += 1
        self.mode = "setup"
        self.params["timed_passes"] = done

    def _end_pass(self) -> None:
        """File what the pass accumulated (a warm-up pass files nothing)."""
        for name, total in self._pass_totals.items():
            self.record(name, total)
        for name, values in self._pass_latencies.items():
            self.record(name, median(values))
        if self._paced is not None:
            for name, values in self._paced.close().items():
                self.series[name].append(values)
            self._paced = None
        self._pass_totals.clear()
        self._pass_latencies.clear()

    # -- summaries ----------------------------------------------------------

    def med(self, name: str, default=0.0):
        values = self.samples.get(name)
        return median(values) if values else default

    def total(self, name: str) -> float:
        """The pass total ``name`` in reference seconds: Σ of each operation's
        median over the timed passes."""
        return sum_of_medians(self.series[name])

    def typical_latency(self, name: str) -> float:
        """Median over the pass's statements of each one's median over the
        timed passes, in reference units."""
        return median_of_medians(self.series[name])


def write_json(path: Path, payload) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
