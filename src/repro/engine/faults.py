"""Deterministic fault injection for crash-safety testing.

Durability code is only trustworthy if every crash window is exercised.
This module defines a process-global :class:`FaultInjector` with a fixed
catalog of *named fault points* — one for each OS-visible step of the
write-ahead log, checkpoint, and snapshot protocols.  Production code calls
:func:`reach` (a near-free counter bump when nothing is armed); tests arm a
point at a chosen hit count and the injector raises :class:`InjectedCrash`
there, simulating the process dying at exactly that instant.

``InjectedCrash`` derives from :class:`BaseException` on purpose: a crash
must not be swallowed by ``except Exception`` recovery paths — nothing
survives a real power cut.

Torn writes (the half-written frame a real crash can leave behind) are
simulated by :func:`torn_write`: when the named point is armed, only a
prefix of the buffer reaches the file before the crash.  The prefix length
is derived deterministically from ``REPRO_FAULT_SEED`` (default 0) so a
failing matrix cell can be replayed bit-for-bit by exporting the same seed.
"""

from __future__ import annotations

import os
import zlib
from typing import BinaryIO, Dict

__all__ = [
    "FAULT_POINTS",
    "FaultInjector",
    "InjectedCrash",
    "INJECTOR",
    "arm",
    "disarm_all",
    "fault_seed",
    "reach",
    "torn_write",
]

#: Every registered crash site, in rough protocol order.  The crash-matrix
#: test suite iterates this catalog; adding a durability step means adding
#: its point here so the matrix automatically covers it.
FAULT_POINTS = (
    # -- write-ahead log ----------------------------------------------------
    "wal.append.before",     # commit about to be written to the log
    "wal.append.torn",       # crash mid-append: a torn (partial) frame
    "wal.append.after",      # frames written, fsync not yet issued
    "wal.fsync.before",      # about to fsync the log
    "wal.fsync.after",       # log durable, commit not yet acknowledged
    "wal.reset.before",      # new (post-checkpoint) log about to replace old
    "wal.reset.after",       # log reset done, checkpoint complete
    # -- checkpoint: a snapshot installed as data.ckpt ---------------------
    "checkpoint.begin",      # checkpoint starting (nothing written yet)
    "checkpoint.write.torn", # crash mid-write of the checkpoint temp file
    "checkpoint.rename.before",  # temp file durable, rename not yet issued
    "checkpoint.rename.after",  # checkpoint installed, old WAL not yet reset
    # -- standalone snapshots (Database.save); the same install body --------
    "snapshot.write.torn",   # crash mid-write of the snapshot temp file
    "snapshot.rename.before",  # temp durable, rename not yet issued
    "snapshot.rename.after",   # snapshot installed
    # -- heap page flushes (reached while folding pages into a snapshot) ----
    "heap.page.write",
    # -- spill files (memory-bounded operators writing run/partition files) --
    "spill.write",           # crash just after a spill frame reached disk
)


class InjectedCrash(BaseException):
    """A simulated process death at a named fault point."""

    def __init__(self, point: str, hit: int):
        super().__init__(f"injected crash at {point!r} (hit {hit})")
        self.point = point
        self.hit = hit


def fault_seed() -> int:
    """The active fault seed (``REPRO_FAULT_SEED``, default 0)."""
    return int(os.environ.get("REPRO_FAULT_SEED", "0"))


class FaultInjector:
    """Named crash sites with per-point hit counting and arming."""

    def __init__(self) -> None:
        self._armed: Dict[str, int] = {}
        self._counts: Dict[str, int] = {}

    # -- configuration (tests) ---------------------------------------------

    def arm(self, point: str, hit: int = 1) -> None:
        """Crash at the ``hit``-th (1-based) future reach of ``point``."""
        if point not in FAULT_POINTS:
            raise ValueError(f"unknown fault point {point!r}")
        if hit < 1:
            raise ValueError("hit counts are 1-based")
        self._armed[point] = hit

    def disarm_all(self) -> None:
        """Clear every armed point and reset hit counters."""
        self._armed.clear()
        self._counts.clear()

    def counts(self) -> Dict[str, int]:
        """How many times each point has been reached since the last reset."""
        return dict(self._counts)

    # -- production-code hooks ---------------------------------------------

    def reach(self, point: str) -> None:
        """Record one pass through ``point``; crash if armed for this hit."""
        count = self._counts.get(point, 0) + 1
        self._counts[point] = count
        if self._armed.get(point) == count:
            raise InjectedCrash(point, count)

    def torn_write(self, point: str, f: BinaryIO, data: bytes) -> None:
        """Write ``data``; if ``point`` fires, write only a torn prefix.

        The prefix length is a deterministic function of the fault seed,
        the point name, and the hit number, so every matrix cell sees a
        reproducible tear (including the empty and nearly-complete ones).
        """
        count = self._counts.get(point, 0) + 1
        self._counts[point] = count
        if self._armed.get(point) == count:
            mix = zlib.crc32(f"{point}:{count}:{fault_seed()}".encode())
            cut = mix % (len(data) + 1) if data else 0
            f.write(data[:cut])
            f.flush()
            raise InjectedCrash(point, count)
        f.write(data)


#: The process-global injector used by the engine's durability code.
INJECTOR = FaultInjector()


def arm(point: str, hit: int = 1) -> None:
    INJECTOR.arm(point, hit)


def disarm_all() -> None:
    INJECTOR.disarm_all()


def reach(point: str) -> None:
    INJECTOR.reach(point)


def torn_write(point: str, f: BinaryIO, data: bytes) -> None:
    INJECTOR.torn_write(point, f, data)
