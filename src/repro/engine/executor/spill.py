"""Spill-to-disk machinery for the blocking operators.

``ModelConfig.work_mem`` is each blocking operator's working-memory budget
in bytes (``None`` or ``0``: unbounded).  Every operator has one body and
honours the budget inside it, the way one PostgreSQL sort or hash node
honours ``work_mem``:

* the hash join buffers its build side until it exceeds the budget, and
  only then partitions both sides to disk Grace-style and joins the
  partitions one at a time (``relational.HashJoin``),
* every other blocking operator — ``ORDER BY`` / ``ORDER BY PROB(*)`` and
  the sort-groups ``DISTINCT`` / ``GROUP BY`` — runs on the one budgeted
  sort (``relational._BudgetedSort``), whose :class:`ExternalSorter`
  spills a sorted run only when its buffer exceeds the budget and merges
  the runs back.

Whether or not anything spills, the result is the same tuples in the same
order with the same tuple ids.  The building blocks here are designed
around that invariant:

* :class:`SpillFile` has one frame format, ``[u64 seq][u32 len a][u32 len
  b][a][b]``: a sequence number and two byte payloads the caller encodes
  and decodes.  ``seq`` is the record's position in the original stream,
  so merging by ``(key, seq)`` reproduces a stable in-memory sort exactly.
  Row bytes are the storage layer's exact tuple encoding
  (:func:`~repro.engine.storage.serialize.encode_tuple` round-trips
  bitwise, lineage included).  The callers fill the two payloads so:

  ===================  =====================  =====================
  frame                ``a``                  ``b``
  ===================  =====================  =====================
  sorted run           pickled sort key       row bytes
  join partition       pickled join key       row bytes
  join pair            left row bytes         right row bytes
  ===================  =====================  =====================

  A join partition therefore carries its key beside the row, so a Grace
  leaf matches keys without decoding a tuple, and a pair frame is the two
  input rows' bytes as they were written — each row is encoded once.
  A sorted run and a join partition both write their key with
  :func:`dump_key` and read it back with :func:`keyed`.
* Writers and readers share ``work_mem`` the same way
  (:func:`buffer_share`): a Grace pass writes its 16 partition files
  through write buffers of ``work_mem / 16`` bytes each, a sorted run or a
  leaf's pair file through one of ``work_mem``, a Grace leaf reads its two
  partition files through read buffers of ``work_mem / 2``, and a merge
  (:func:`readers`) streams every file it merges through a read buffer of
  ``work_mem / files`` — each clamped to 1–64 KiB.  So neither a pass nor
  a merge holds the spilled bytes in memory.  A file is open only while
  its buffer refills, so a merge of many files holds no descriptor per
  file.
* :class:`SpillManager` owns the on-disk scratch space, created with the
  first spill file — an operator that stays within its budget touches no
  disk.  With ``ModelConfig.spill_dir`` set (durable databases point it
  inside the database directory) files land there; otherwise the manager
  creates a private temporary directory.  Cleanup runs on success and on
  ordinary exceptions — **not** on
  :class:`~repro.engine.faults.InjectedCrash` or other ``BaseException``,
  because nothing survives a real power cut; recovery on the next open
  clears the durable spill directory instead.

Every flush of frames to disk passes the ``"spill.write"`` fault point so the crash
matrix can kill the process mid-spill.
"""

from __future__ import annotations

import heapq
import io
import os
import pickle
import shutil
import struct
import tempfile
import threading
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from ...core.model import ProbabilisticTuple
from ...errors import SerializationError
from ..faults import reach
from ..storage.serialize import decode_tuple, encode_tuple

__all__ = [
    "SPILL_STATS",
    "ExternalSorter",
    "SpillFile",
    "SpillManager",
    "SpillStats",
    "buffer_share",
    "dump_key",
    "estimate_frame_bytes",
    "estimate_tuple_bytes",
    "keyed",
    "readers",
]

_FRAME_HEADER = struct.Struct("<QII")  # (seq, len a, len b)
#: a frame as read back: ``(seq, a, b)``
Frame = Tuple[int, bytes, bytes]
#: bounds of one file's buffer (writers and readers split ``work_mem`` between their files)
_MAX_BUFFER_BYTES = 1 << 16
_MIN_BUFFER_BYTES = 1 << 10


def buffer_share(work_mem: Optional[int], files: int) -> int:
    """One file's buffer when ``files`` write or read buffers share
    ``work_mem``: an equal part, at least 1 KiB and at most 64 KiB (the
    most when the budget is unbounded)."""
    if not work_mem or not files:
        return _MAX_BUFFER_BYTES
    return min(_MAX_BUFFER_BYTES, max(_MIN_BUFFER_BYTES, work_mem // files))


def estimate_tuple_bytes(t: ProbabilisticTuple) -> int:
    """A cheap, deterministic estimate of a tuple's in-memory footprint.

    Exact ``sys.getsizeof`` walks are too slow for per-tuple accounting and
    differ across interpreters; a coarse structural formula is enough to
    decide "does this input fit in work_mem" deterministically everywhere.
    """
    size = 96  # tuple object + dict headers
    for v in t.certain.values():
        size += 48 + (len(v) if isinstance(v, str) else 0)
    for dep, pdf in t.pdfs.items():
        size += 64 * len(dep)
        size += 160 if pdf is not None else 16
    if t.lineage:
        for lin in t.lineage.values():
            size += 48 + 32 * len(lin)
    return size


def estimate_frame_bytes(frame: Frame) -> int:
    """The in-memory footprint of a frame read back, by the same coarse rule."""
    return 128 + len(frame[1]) + len(frame[2])


class SpillStats:
    """Process-global spill counters (reset per benchmark cell / test)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.join_spills = 0
        self.join_partitions = 0
        self.sort_spills = 0
        self.sort_runs = 0
        self.bytes_written = 0

    def reset(self) -> None:
        with self._lock:
            self.join_spills = 0
            self.join_partitions = 0
            self.sort_spills = 0
            self.sort_runs = 0
            self.bytes_written = 0

    def on_join_spill(self, partitions: int) -> None:
        with self._lock:
            self.join_spills += 1
            self.join_partitions += partitions

    def on_sort_spill(self, runs: int) -> None:
        with self._lock:
            self.sort_spills += 1
            self.sort_runs += runs

    def on_write(self, nbytes: int) -> None:
        with self._lock:
            self.bytes_written += nbytes

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "join_spills": self.join_spills,
                "join_partitions": self.join_partitions,
                "sort_spills": self.sort_spills,
                "sort_runs": self.sort_runs,
                "bytes_written": self.bytes_written,
            }


#: Global spill activity counters; benchmarks assert on these to prove a
#: sweep actually spilled.
SPILL_STATS = SpillStats()


class SpillManager:
    """Owns one operator invocation's scratch directory and spill files.

    Use as a context manager.  The directory is removed on clean exit and
    on ordinary exceptions; an :class:`InjectedCrash` (any ``BaseException``
    that is not an ``Exception``) leaves files behind on purpose — the
    recovery path of a durable database clears its spill directory on the
    next open, and tests assert exactly that.
    """

    _counter = 0
    _counter_lock = threading.Lock()

    def __init__(self, spill_dir: Optional[str] = None, label: str = "spill"):
        self._spill_dir = spill_dir
        self._label = label
        #: the scratch directory, created by the first :meth:`create_file`
        self.dir: Optional[str] = None
        self._files: List["SpillFile"] = []
        self._next_file = 0

    # -- context management --------------------------------------------------

    def __enter__(self) -> "SpillManager":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        # A crash (BaseException that is not Exception) must leave the
        # scratch files on disk: nothing survives a real power cut, and
        # recovery is responsible for clearing durable spill directories.
        # GeneratorExit is ordinary control flow (a consumer abandoning a
        # spilling operator, e.g. under LIMIT), so it cleans up too.
        if exc_type is None or isinstance(exc, (Exception, GeneratorExit)):
            self.cleanup()
        return False

    def cleanup(self) -> None:
        for f in self._files:
            f.close()
        self._files.clear()
        if self.dir is not None:
            shutil.rmtree(self.dir, ignore_errors=True)

    # -- file creation -------------------------------------------------------

    def create_file(
        self, label: str = "run", buffer_bytes: int = _MAX_BUFFER_BYTES
    ) -> "SpillFile":
        if self.dir is None:
            if self._spill_dir is None:
                self.dir = tempfile.mkdtemp(prefix=f"repro-{self._label}-")
            else:
                with SpillManager._counter_lock:
                    SpillManager._counter += 1
                    n = SpillManager._counter
                self.dir = os.path.join(
                    self._spill_dir, f"{self._label}-{os.getpid()}-{n}"
                )
                os.makedirs(self.dir, exist_ok=True)
        self._next_file += 1
        path = os.path.join(self.dir, f"{label}-{self._next_file:05d}.spill")
        f = SpillFile(path, buffer_bytes)
        self._files.append(f)
        return f


class SpillFile:
    """A file of ``(seq, a, b)`` frames: a sequence number and two byte payloads.

    What the payloads hold is the caller's business (the module docstring
    lists the three frame kinds).  Frames are buffered and flushed once
    ``buffer_bytes`` are pending (the writer's :func:`buffer_share`);
    every flush passes the ``spill.write`` fault point *after* the data
    reached the file, so an armed crash leaves an observable file behind.
    """

    def __init__(self, path: str, buffer_bytes: int = _MAX_BUFFER_BYTES):
        self.path = path
        self.buffer_bytes = buffer_bytes
        self._buf = io.BytesIO()
        self._file: Optional[Any] = open(path, "wb")
        self.frames = 0
        self.bytes = 0

    # -- writing -------------------------------------------------------------

    def append(self, seq: int, a: bytes, b: bytes) -> None:
        buf = self._buf
        buf.write(_FRAME_HEADER.pack(seq, len(a), len(b)))
        buf.write(a)
        buf.write(b)
        self.frames += 1
        if buf.tell() >= self.buffer_bytes:
            self._flush()

    def _flush(self) -> None:
        data = self._buf.getvalue()
        if not data:
            return
        assert self._file is not None
        self._file.write(data)
        self._file.flush()
        self.bytes += len(data)
        SPILL_STATS.on_write(len(data))
        self._buf = io.BytesIO()
        reach("spill.write")

    def finish(self) -> None:
        """Flush buffered frames and close the write handle."""
        if self._file is not None:
            self._flush()
            self._file.close()
            self._file = None

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    # -- reading -------------------------------------------------------------

    def read(self, buffer_bytes: int = _MAX_BUFFER_BYTES) -> Iterator[Frame]:
        """Yield ``(seq, a, b)`` frames in file order.

        The file streams through a read buffer of ``buffer_bytes`` (more
        only while one frame is larger), so a reader holds about that much
        of the file at a time, whatever the file's size.  The file is open
        only while a refill reads it: a merge primes a reader per file, and
        must not hold a descriptor per file for its whole length.
        """
        self.finish()
        header = _FRAME_HEADER
        head = header.size
        pos = 0  # file offset of the first byte not yet in ``data``
        data = b""
        off = 0
        while True:
            avail = len(data) - off
            need = head
            if avail >= head:
                seq, len_a, len_b = header.unpack_from(data, off)
                need += len_a + len_b
            if avail < need:
                with open(self.path, "rb", buffering=0) as f:
                    f.seek(pos)
                    more = f.read(max(buffer_bytes, need - avail))
                if not more:
                    if avail:
                        raise SerializationError(
                            f"spill file {self.path} ends inside a frame"
                        )
                    return
                pos += len(more)
                data = data[off:] + more
                off = 0
                continue
            a_at = off + head
            b_at = a_at + len_a
            off = b_at + len_b
            yield seq, data[a_at:b_at], data[b_at:off]


def dump_key(key: Any) -> bytes:
    """A sort or join key as the ``a`` payload of a keyed frame."""
    return pickle.dumps(key, protocol=pickle.HIGHEST_PROTOCOL)


def keyed(frames: Iterable[Frame]) -> Iterator[Tuple[int, Any, bytes, bytes]]:
    """Keyed frames (sorted run, join partition) read back as ``(seq, key,
    key bytes, row bytes)`` — the one place a frame's key is unpickled."""
    loads = pickle.loads
    for seq, key_bytes, row in frames:
        yield seq, loads(key_bytes), key_bytes, row


def readers(files: Sequence[SpillFile], work_mem: Optional[int]) -> List[Iterator[Frame]]:
    """One :meth:`SpillFile.read` per file, for a merge that reads them all at once.

    The read buffers share ``work_mem`` (:func:`buffer_share`), so a merge
    holds about one budget of spilled bytes, not every file.  The merge is
    one pass: past ``work_mem / 1 KiB`` files its buffers outgrow the budget.
    """
    size = buffer_share(work_mem, len(files))
    return [f.read(size) for f in files]


class ExternalSorter:
    """A stable sort that spills sorted runs past ``work_mem`` bytes.

    Feed ``(key, tuple)`` pairs with :meth:`add`; iterate :meth:`sorted` to
    drain.  Output order is ``(key, seq)`` with ``seq`` the 0-based
    :meth:`add` order — exactly the order a stable in-memory sort of the
    same stream produces, whether or not runs spilled.  With ``work_mem``
    ``None`` or ``0`` nothing ever spills.

    ``key`` must be a picklable, orderable value (the operators build
    type-ranked tuples so cross-type comparisons never happen).
    """

    def __init__(
        self,
        manager: SpillManager,
        work_mem: Optional[int] = None,
        descending: bool = False,
    ):
        self._manager = manager
        self._work_mem = work_mem or 0
        self._descending = descending
        self._pending: List[Tuple[Any, int, ProbabilisticTuple]] = []
        self._pending_bytes = 0
        self._runs: List[SpillFile] = []
        self._seq = 0

    # -- feeding -------------------------------------------------------------

    def add(self, key: Any, t: ProbabilisticTuple) -> None:
        self._pending.append((key, self._seq, t))
        self._seq += 1
        if self._work_mem:
            self._pending_bytes += estimate_tuple_bytes(t) + 64
            if self._pending_bytes >= self._work_mem:
                self._spill_run()

    def _sort_pending(self) -> None:
        # Stable sort by key alone: ties keep add order.
        self._pending.sort(key=lambda item: item[0], reverse=self._descending)

    def _spill_run(self) -> None:
        if not self._pending:
            return
        self._sort_pending()
        run = self._manager.create_file("sortrun", buffer_share(self._work_mem, 1))
        for key, seq, t in self._pending:
            run.append(seq, dump_key(key), encode_tuple(t))
        run.finish()
        self._runs.append(run)
        self._pending = []
        self._pending_bytes = 0

    # -- draining ------------------------------------------------------------

    @property
    def run_count(self) -> int:
        """Number of spilled runs (0 means the sort stayed in memory)."""
        return len(self._runs)

    def sorted(self) -> Iterator[Tuple[Any, int, ProbabilisticTuple]]:
        """Yield ``(key, seq, tuple)`` in stable sorted order."""
        if not self._runs:
            self._sort_pending()
            yield from self._pending
            return
        # Spill the tail so everything merges uniformly.
        self._spill_run()
        SPILL_STATS.on_sort_spill(len(self._runs))

        descending = self._descending

        def merge_key(item: Tuple[int, Any, bytes, bytes]) -> Tuple[Any, int]:
            seq, key = item[0], item[1]
            return (_Reversed(key), seq) if descending else (key, seq)

        streams = [keyed(frames) for frames in readers(self._runs, self._work_mem)]
        for seq, key, _key_bytes, row in heapq.merge(*streams, key=merge_key):
            yield key, seq, decode_tuple(row)[0]


class _Reversed:
    """Inverts comparison so heapq.merge can honour ``descending``.

    Ties compare equal, letting the tuple's second element (ascending
    ``seq``) break them — the stable-sort tie rule.
    """

    __slots__ = ("value",)

    def __init__(self, value: Any):
        self.value = value

    def __lt__(self, other: "_Reversed") -> bool:
        return other.value < self.value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Reversed) and other.value == self.value
