"""The crash-safety suite."""


def kill_wal(db) -> None:
    """Simulated process death: drop the WAL's append handle without a sync."""
    wal = db._wal
    if wal._f is not None:
        wal._f.close()
        wal._f = None
