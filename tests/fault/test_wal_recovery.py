"""Targeted WAL, checkpoint, and recovery unit tests.

The crash matrix sweeps every fault point; these tests pin down the
individual protocol guarantees — frame CRCs, torn-tail truncation,
uncommitted-suffix discard, the checkpoint LSN guard, atomic snapshot
installs, group-commit windows, and recovery idempotence.
"""

from __future__ import annotations

import os
import struct

import pytest

from repro.engine import faults
from repro.engine.database import Database
from repro.engine.faults import InjectedCrash
from repro.engine.snapshot import load_database, read_snapshot
from repro.engine.wal import scan_wal
from repro.errors import TransactionError, WalError

from . import kill_wal


def _mkdb(tmp_path, **kw):
    return Database(path=str(tmp_path / "db"), **kw)


def _seed(db):
    db.execute("CREATE TABLE r (rid INT, v REAL UNCERTAIN)")
    db.execute("INSERT INTO r VALUES (1, GAUSSIAN(20, 5))")
    db.execute("INSERT INTO r VALUES (2, UNIFORM(0, 10))")


class TestBasicDurability:
    def test_reopen_restores_committed_state(self, tmp_path):
        db = _mkdb(tmp_path)
        _seed(db)
        dump = db.dump_state()
        db.close()
        db2 = _mkdb(tmp_path)
        assert db2.dump_state() == dump
        db2.close()

    def test_unclosed_database_still_recovers(self, tmp_path):
        db = _mkdb(tmp_path)
        _seed(db)
        dump = db.dump_state()
        kill_wal(db)  # no close(), no final sync
        db2 = _mkdb(tmp_path)
        assert db2.dump_state() == dump
        db2.close()

    def test_recovery_is_idempotent(self, tmp_path):
        db = _mkdb(tmp_path)
        _seed(db)
        kill_wal(db)
        dumps = []
        for _ in range(3):
            db2 = _mkdb(tmp_path)
            dumps.append(db2.dump_state())
            db2.close()
        assert dumps[0] == dumps[1] == dumps[2]

    def test_derived_state_rebuilt_after_recovery(self, tmp_path):
        """Indexes come back with the recovered state: the B+tree is built by
        its first read, and the page synopses of the checkpoint's pages by
        the first pruned scan, which then equal those
        :meth:`Table.rebuild_synopses` builds from the pages."""
        db = _mkdb(tmp_path)
        _seed(db)
        db.execute("CREATE INDEX ON r (rid)")
        db.execute("CREATE PROB INDEX ON r (v)")
        db.checkpoint()
        db.execute("INSERT INTO r VALUES (3, GAUSSIAN(5, 1))")  # onto a restored page
        db.close()
        db2 = _mkdb(tmp_path)
        table = db2.table("r")
        assert table.btrees == {"rid": None} and "v" in table.ptis
        assert table.unbuilt == set(table.heap.page_ids) and not table.synopses
        assert len(db2.execute("SELECT rid FROM r WHERE rid = 1").rows) == 1  # builds the B+tree
        assert sorted(key for key, _rid in table.btrees["rid"].range_scan()) == [1, 2, 3]
        assert table.unbuilt  # ... and no page synopsis
        rows = db2.execute("SELECT rid FROM r WHERE v > -100 AND v < 100").rows
        assert sorted(t.certain["rid"] for t in rows) == [1, 2, 3]
        assert not table.unbuilt and set(table.synopses) == set(table.heap.page_ids)

        def state(syn):
            ladders = syn.rows.columns["v"].tolist()
            return syn.live, syn.certain, syn.uncertain, syn.max_exist_mass, syn.rows.slots, ladders

        built = {page_id: state(syn) for page_id, syn in table.synopses.items()}
        table.rebuild_synopses()
        assert {page_id: state(syn) for page_id, syn in table.synopses.items()} == built
        db2.close()

    def test_replay_without_a_delete_reads_no_stored_record(self, tmp_path, monkeypatch):
        """The tuple-id -> RID map of a replayed DELETE is read from the heap
        only when a DELETE is replayed: a log of inserts reads no stored id."""
        from repro.engine import wal

        db = _mkdb(tmp_path)
        _seed(db)
        db.checkpoint()
        db.execute("INSERT INTO r VALUES (3, GAUSSIAN(5, 1))")
        dump = db.dump_state()
        db.close()
        calls = []
        monkeypatch.setattr(wal, "record_tuple_id", lambda raw: calls.append(raw))
        db2 = _mkdb(tmp_path)
        assert calls == [] and db2.dump_state() == dump
        db2.close()

    @pytest.mark.parametrize("store_lineage", [True, False])
    def test_replay_stores_the_logged_record_bytes(self, tmp_path, monkeypatch, store_lineage):
        """A replayed insert stores the record the never-closed database
        stored: after logged base inserts, a CTAS and a delete, every heap
        page of the recovered tables is byte-equal to the live one.  A table
        that stores lineage stores the logged bytes as they are, encoding
        none; one that does not re-encodes each record without its lineage."""
        from repro.engine import table as table_module

        def page_images(db):
            db.catalog.pool.flush_all()
            disk = db.catalog.pool.disk
            return {
                name: [bytes(disk.read_page(page_id)) for page_id in t.heap.page_ids]
                for name, t in db.catalog.tables.items()
            }

        db = _mkdb(tmp_path, store_lineage=store_lineage)
        _seed(db)
        db.checkpoint()
        db.execute("INSERT INTO r VALUES (3, GAUSSIAN(5, 1))")
        db.execute("INSERT INTO r VALUES (4, UNIFORM(1, 9))")
        db.execute("CREATE TABLE s AS SELECT rid, v FROM r WHERE v > 4")
        db.execute("DELETE FROM r WHERE rid = 2")
        live = page_images(db)
        assert len(db.table("s")) == 4
        kill_wal(db)
        encoded = []
        original = table_module.encode_record
        monkeypatch.setattr(
            table_module, "encode_record", lambda *a: encoded.append(1) or original(*a)
        )
        db2 = _mkdb(tmp_path, store_lineage=store_lineage)
        assert page_images(db2) == live
        assert len(encoded) == (0 if store_lineage else 6)
        db2.close()

    def test_replayed_delete_of_a_row_the_log_inserted(self, tmp_path):
        db = _mkdb(tmp_path)
        _seed(db)
        db.checkpoint()
        db.execute("INSERT INTO r VALUES (3, GAUSSIAN(5, 1))")
        db.execute("INSERT INTO r VALUES (4, GAUSSIAN(6, 1))")
        db.execute("DELETE FROM r WHERE rid = 3")  # inserted by the log
        db.execute("DELETE FROM r WHERE rid = 1")  # stored in the checkpoint
        db.execute("INSERT INTO r VALUES (5, GAUSSIAN(7, 1))")
        db.execute("DELETE FROM r WHERE rid = 5")  # inserted after the map was read
        dump = db.dump_state()
        db.close()
        db2 = _mkdb(tmp_path)
        assert db2.dump_state() == dump
        assert [r["certain"]["rid"] for r in dump["tables"]["r"]["rows"]] == [2, 4]
        db2.close()

    def test_checkpoint_counter_covers_every_stored_tuple_id(self, tmp_path, monkeypatch):
        """Recovery takes the next tuple id from the checkpoint and the ids
        the log inserts: the checkpoint's counter is at or above every id it
        stores, also after a failed insert hands its ids back and after a
        rolled-back transaction."""
        from repro.engine.storage.heapfile import HeapFile
        from repro.engine.storage.serialize import record_tuple_id

        db = _mkdb(tmp_path)
        _seed(db)
        table = db.table("r")
        with monkeypatch.context() as m:
            m.setattr(HeapFile, "insert_many", lambda self, records: 1 / 0)
            with pytest.raises(ZeroDivisionError):  # outside a transaction: return_tuple_ids
                table.insert_many([({"rid": 7}, {"v": None}), ({"rid": 8}, {"v": None})])
        db.execute("INSERT INTO r VALUES (3, GAUSSIAN(5, 1))")  # reuses the handed-back id
        db.begin()
        db.execute("INSERT INTO r VALUES (9, GAUSSIAN(0, 1))")
        db.rollback()
        db.execute("DELETE FROM r WHERE rid = 1")
        db.execute("CREATE TABLE s AS SELECT rid, v FROM r WHERE v > 0")  # fresh ids
        db.checkpoint()
        with open(str(tmp_path / "db" / "data.ckpt"), "rb") as f:
            restored, _lsn = read_snapshot(f)
        ids = [
            record_tuple_id(raw) for t in restored.catalog.tables.values() for _, raw in t.heap.scan()
        ]
        assert len(ids) == 4 and restored.catalog.store._next_tuple_id >= max(ids)
        db.execute("INSERT INTO r VALUES (4, GAUSSIAN(1, 1))")
        db.close()
        db2 = _mkdb(tmp_path)
        db2.execute("INSERT INTO r VALUES (5, GAUSSIAN(2, 1))")
        stored = [row["tuple_id"] for t in db2.dump_state()["tables"].values() for row in t["rows"]]
        assert len(stored) == len(set(stored)) == 6
        db2.close()


class TestTornAndCorruptTails:
    def test_torn_frame_is_discarded(self, tmp_path):
        db = _mkdb(tmp_path)
        _seed(db)
        dump = db.dump_state()
        db.close()
        wal_path = str(tmp_path / "db" / "wal.log")
        with open(wal_path, "r+b") as f:
            f.seek(0, os.SEEK_END)
            # a torn frame: plausible header, missing payload bytes
            f.write(struct.pack("<II", 1000, 0) + b"partial")
        db2 = _mkdb(tmp_path)
        assert db2.dump_state() == dump
        db2.close()
        # recovery truncated the junk away
        _, committed, good_end = scan_wal(wal_path)
        assert os.path.getsize(wal_path) == good_end

    def test_crc_corruption_discards_suffix(self, tmp_path):
        db = _mkdb(tmp_path)
        db.execute("CREATE TABLE r (rid INT, v REAL UNCERTAIN)")
        dump_after_create = db.dump_state()
        size_after_create = os.path.getsize(str(tmp_path / "db" / "wal.log"))
        db.execute("INSERT INTO r VALUES (1, GAUSSIAN(20, 5))")
        db.close()
        wal_path = str(tmp_path / "db" / "wal.log")
        # Flip a payload byte inside the INSERT transaction's frames.
        with open(wal_path, "r+b") as f:
            f.seek(size_after_create + 12)
            byte = f.read(1)
            f.seek(size_after_create + 12)
            f.write(bytes([byte[0] ^ 0xFF]))
        db2 = _mkdb(tmp_path)
        # The corrupt transaction (and everything after) is gone; the
        # intact prefix survives.
        assert db2.dump_state() == dump_after_create
        db2.close()

    def test_uncommitted_transaction_never_reaches_the_log(self, tmp_path):
        db = _mkdb(tmp_path)
        _seed(db)
        dump = db.dump_state()
        db.begin()
        db.execute("INSERT INTO r VALUES (99, GAUSSIAN(0, 1))")
        # crash before COMMIT: the buffered ops were never appended
        kill_wal(db)
        db2 = _mkdb(tmp_path)
        assert db2.dump_state() == dump
        assert all(
            r["certain"]["rid"] != 99
            for r in db2.dump_state()["tables"]["r"]["rows"]
        )
        db2.close()


class TestTransactions:
    def test_rollback_restores_exact_state(self, tmp_path):
        db = _mkdb(tmp_path)
        _seed(db)
        dump = db.dump_state()
        db.begin()
        db.execute("INSERT INTO r VALUES (5, GAUSSIAN(1, 1))")
        db.execute("DELETE FROM r WHERE rid = 1")
        db.execute("CREATE TABLE side (x INT)")
        db.rollback()
        assert db.dump_state() == dump
        db.close()

    def test_rollback_matches_oracle_for_future_statements(self, tmp_path):
        """After an abort, later inserts draw the same ids as a database
        in which the aborted transaction never ran."""
        db = _mkdb(tmp_path)
        _seed(db)
        db.begin()
        db.execute("INSERT INTO r VALUES (5, GAUSSIAN(1, 1))")
        db.rollback()
        db.execute("INSERT INTO r VALUES (6, GAUSSIAN(2, 1))")
        oracle = Database()
        _seed(oracle)
        oracle.execute("INSERT INTO r VALUES (6, GAUSSIAN(2, 1))")
        assert db.dump_state() == oracle.dump_state()
        db.close()

    def test_nested_begin_rejected(self, tmp_path):
        db = _mkdb(tmp_path)
        db.begin()
        with pytest.raises(TransactionError):
            db.begin()
        db.rollback()
        db.close()

    def test_commit_without_begin_rejected(self, tmp_path):
        db = _mkdb(tmp_path)
        with pytest.raises(TransactionError):
            db.commit()
        with pytest.raises(TransactionError):
            db.abort()
        db.close()

    def test_failed_statement_autocommit_rolls_back(self, tmp_path):
        db = _mkdb(tmp_path)
        _seed(db)
        dump = db.dump_state()
        with pytest.raises(Exception):
            # second row has a bad arity pdf -> statement fails midway
            db.execute(
                "INSERT INTO r VALUES (7, GAUSSIAN(0, 1)), "
                "(8, JOINT_GAUSSIAN([0, 0], [[1, 0], [0, 1]]))"
            )
        assert db.dump_state() == dump
        db.close()

    def test_in_memory_transactions_work_without_wal(self):
        db = Database()
        _seed(db)
        dump = db.dump_state()
        db.begin()
        db.execute("INSERT INTO r VALUES (9, GAUSSIAN(0, 1))")
        db.rollback()
        assert db.dump_state() == dump


class TestCheckpoints:
    def test_checkpoint_then_recover(self, tmp_path):
        db = _mkdb(tmp_path)
        _seed(db)
        db.checkpoint()
        db.execute("INSERT INTO r VALUES (3, GAUSSIAN(5, 1))")
        dump = db.dump_state()
        kill_wal(db)
        db2 = _mkdb(tmp_path)
        assert db2.dump_state() == dump
        db2.close()

    def test_lsn_guard_skips_checkpointed_transactions(self, tmp_path):
        """A stale WAL alongside a newer checkpoint must not double-apply."""
        db = _mkdb(tmp_path)
        _seed(db)
        # Crash after the checkpoint rename but before the log reset: the
        # old WAL (with all three transactions) survives next to the new
        # checkpoint that already contains them.
        faults.arm("wal.reset.before")
        with pytest.raises(InjectedCrash):
            db.checkpoint()
        faults.disarm_all()
        kill_wal(db)
        assert os.path.exists(str(tmp_path / "db" / "data.ckpt"))
        db2 = _mkdb(tmp_path)
        rows = db2.dump_state()["tables"]["r"]["rows"]
        assert [r["certain"]["rid"] for r in rows] == [1, 2]
        db2.close()

    def test_torn_checkpoint_leaves_old_state_loadable(self, tmp_path):
        db = _mkdb(tmp_path)
        _seed(db)
        db.checkpoint()
        db.execute("INSERT INTO r VALUES (3, GAUSSIAN(5, 1))")
        dump = db.dump_state()
        faults.disarm_all()  # reset counts: the first checkpoint hit this point
        faults.arm("checkpoint.write.torn")
        with pytest.raises(InjectedCrash):
            db.checkpoint()
        faults.disarm_all()
        kill_wal(db)
        db2 = _mkdb(tmp_path)
        assert db2.dump_state() == dump
        db2.close()

    def test_checkpoint_opens_as_a_snapshot(self, tmp_path):
        """``data.ckpt`` is an ordinary snapshot file, which records the LSN
        it covers; a saved file records the last committed LSN too."""
        db = _mkdb(tmp_path)
        _seed(db)
        db.checkpoint()
        db.close()
        ckpt = str(tmp_path / "db" / "data.ckpt")
        opened = Database.open(ckpt)
        with _mkdb(tmp_path) as db:
            assert opened.dump_state() == db.dump_state()
            db.execute("INSERT INTO r VALUES (3, GAUSSIAN(5, 1))")
            db.save(str(tmp_path / "side.snap"))
        for path, lsn in ((ckpt, 3), (tmp_path / "side.snap", 4)):
            with open(path, "rb") as f:
                assert read_snapshot(f)[1] == lsn

    def test_stale_checkpoint_refused(self, tmp_path):
        """A checkpoint older than its log would silently drop the commits
        between them; opening names both LSNs and changes neither file."""
        ckpt, wal = tmp_path / "db" / "data.ckpt", tmp_path / "db" / "wal.log"
        with _mkdb(tmp_path) as db:
            db.execute("CREATE TABLE r (rid INT, v REAL UNCERTAIN)")
            db.execute("INSERT INTO r VALUES (1, GAUSSIAN(20, 5))")
            db.checkpoint()
            stale = ckpt.read_bytes()
            db.execute("INSERT INTO r VALUES (2, UNIFORM(0, 10))")
            db.checkpoint()
            db.execute("INSERT INTO r VALUES (3, GAUSSIAN(5, 1))")
        ckpt.write_bytes(stale)
        log = wal.read_bytes()
        with pytest.raises(WalError, match="continues from LSN 3, but data.ckpt covers LSN 2"):
            _mkdb(tmp_path)
        assert ckpt.read_bytes() == stale and wal.read_bytes() == log

    def test_checkpoint_every_triggers_automatically(self, tmp_path):
        db = _mkdb(tmp_path, checkpoint_every=2)
        _seed(db)  # 3 commits -> at least one checkpoint
        assert os.path.exists(str(tmp_path / "db" / "data.ckpt"))
        dump = db.dump_state()
        kill_wal(db)
        db2 = _mkdb(tmp_path)
        assert db2.dump_state() == dump
        db2.close()

    def test_save_and_checkpoint_refused_inside_a_transaction(self, tmp_path):
        """Either file would record the last committed LSN beside rows no
        commit covers, so a rollback after it would come back on reopen."""
        db = _mkdb(tmp_path)
        db.execute("CREATE TABLE r (rid INT, v REAL UNCERTAIN)")
        db.execute("INSERT INTO r VALUES (1, GAUSSIAN(20, 5))")
        ckpt, side = tmp_path / "db" / "data.ckpt", tmp_path / "side.snap"
        db.execute("BEGIN")
        db.execute("INSERT INTO r VALUES (2, UNIFORM(0, 10))")
        with pytest.raises(TransactionError):
            db.checkpoint()
        with pytest.raises(TransactionError):
            db.save(str(side))
        assert not ckpt.exists() and not side.exists()
        assert not os.path.exists(str(ckpt) + ".tmp") and not os.path.exists(str(side) + ".tmp")
        db.execute("ROLLBACK")
        db.close()
        db2 = _mkdb(tmp_path)
        assert [t.certain["rid"] for t in db2.execute("SELECT rid FROM r").rows] == [1]
        db2.close()

    def test_checkpoint_requires_durable_database(self):
        db = Database()
        with pytest.raises(WalError):
            db.checkpoint()


class TestGroupCommit:
    def test_group_commit_recovers_flushed_prefix(self, tmp_path):
        db = _mkdb(tmp_path, group_commit=8)
        _seed(db)
        dump = db.dump_state()
        kill_wal(db)
        # Unbuffered appends reached the OS even without fsync; in this
        # simulation (no page-cache loss) the full prefix recovers.
        db2 = _mkdb(tmp_path)
        assert db2.dump_state() == dump
        db2.close()

    def test_close_syncs_pending_group(self, tmp_path):
        db = _mkdb(tmp_path, group_commit=64)
        _seed(db)
        dump = db.dump_state()
        db.close()
        db2 = _mkdb(tmp_path)
        assert db2.dump_state() == dump
        db2.close()

    def test_group_commit_batches_fsyncs(self, tmp_path):
        faults.disarm_all()
        db = _mkdb(tmp_path, group_commit=4)
        _seed(db)  # 3 commits: below the window
        db.execute("INSERT INTO r VALUES (3, GAUSSIAN(1, 1))")  # 4th commit
        counts = faults.INJECTOR.counts()
        assert counts.get("wal.fsync.after", 0) == 1
        assert counts.get("wal.append.after", 0) == 4
        db.close()


class TestStoreLineageOff:
    def test_recovery_without_lineage_matches_live(self, tmp_path):
        db = Database(path=str(tmp_path / "db"), store_lineage=False)
        _seed(db)
        db.execute("DELETE FROM r WHERE rid = 1")
        dump = db.dump_state()
        kill_wal(db)
        db2 = Database(path=str(tmp_path / "db"), store_lineage=False)
        assert db2.dump_state() == dump
        db2.close()


class TestAtomicSnapshot:
    """Satellite: snapshots install via write-temp-then-os.replace."""

    def test_crash_mid_snapshot_preserves_old_snapshot(self, tmp_path):
        db = Database()
        _seed(db)
        snap = str(tmp_path / "data.snap")
        db.save(snap)
        old_dump = Database.open(snap).dump_state()
        db.execute("INSERT INTO r VALUES (3, GAUSSIAN(9, 1))")
        faults.disarm_all()  # reset counts: the first save hit this point
        faults.arm("snapshot.write.torn")
        with pytest.raises(InjectedCrash):
            db.save(snap)
        faults.disarm_all()
        # The old snapshot file is untouched and still loads.
        reloaded = load_database(snap)
        assert reloaded.dump_state() == old_dump

    def test_crash_before_rename_preserves_old_snapshot(self, tmp_path):
        db = Database()
        _seed(db)
        snap = str(tmp_path / "data.snap")
        db.save(snap)
        old_dump = Database.open(snap).dump_state()
        db.execute("INSERT INTO r VALUES (3, GAUSSIAN(9, 1))")
        faults.disarm_all()  # reset counts: the first save hit this point
        faults.arm("snapshot.rename.before")
        with pytest.raises(InjectedCrash):
            db.save(snap)
        faults.disarm_all()
        assert load_database(snap).dump_state() == old_dump
        # the temp file may linger; a retry then succeeds cleanly
        db.save(snap)
        assert load_database(snap).dump_state() == db.dump_state()

    def test_snapshot_roundtrip_dump_identical(self, tmp_path):
        db = Database()
        _seed(db)
        db.execute("CREATE INDEX ON r (rid)")
        snap = str(tmp_path / "data.snap")
        db.save(snap)
        assert Database.open(snap).dump_state() == db.dump_state()
