"""Hypothesis state machine: random workloads, random crashes, exact recovery.

A durable database and an in-memory oracle execute the same randomly
generated statement stream.  Statements inside an explicit transaction are
buffered and only applied to the oracle at COMMIT (dropped at ROLLBACK), so
the oracle always holds *exactly the committed prefix*.  At any step the
machine may kill the durable database — either cleanly (discard the WAL
handle unsynced) or by arming a torn-append fault mid-statement — reopen
it, and demand the recovered dump be bit-identical to the oracle's.
"""

from __future__ import annotations

import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.engine import faults
from repro.engine.database import Database
from repro.engine.faults import InjectedCrash

from . import kill_wal

_PDF_SQL = st.sampled_from(
    [
        "GAUSSIAN(20, 5)",
        "GAUSSIAN(-3, 0.5)",
        "UNIFORM(0, 10)",
        "UNIFORM(5, 6)",
        "DISCRETE(1:0.4, 2:0.6)",
        "DISCRETE(7:1.0)",
        "HISTOGRAM(0, 10, 20 ; 0.4, 0.6)",
    ]
)


class CrashRecoveryMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = tempfile.mkdtemp(prefix="repro-sm-")
        faults.disarm_all()
        self.db = Database(path=self.dir + "/db", group_commit=1)
        self.oracle = Database()
        self.in_txn = False
        self.txn_buffer = []
        self.next_key = 0

    # -- helpers -------------------------------------------------------------

    def _run(self, sql: str) -> None:
        """Execute on the durable db; mirror to the oracle when committed."""
        self.db.execute(sql)
        if self.in_txn:
            self.txn_buffer.append(sql)
        else:
            self.oracle.execute(sql)

    # -- schema --------------------------------------------------------------

    @initialize()
    def create_table(self):
        self._run("CREATE TABLE m (k INT, v REAL UNCERTAIN)")

    # -- mutations -----------------------------------------------------------

    @rule(pdf=_PDF_SQL)
    def insert(self, pdf):
        self.next_key += 1
        self._run(f"INSERT INTO m VALUES ({self.next_key}, {pdf})")

    @rule(data=st.data())
    def delete(self, data):
        if self.next_key == 0:
            return
        key = data.draw(st.integers(1, self.next_key), label="delete key")
        self._run(f"DELETE FROM m WHERE k = {key}")

    # -- transactions --------------------------------------------------------

    @precondition(lambda self: not self.in_txn)
    @rule()
    def begin(self):
        self.db.begin()
        self.in_txn = True
        self.txn_buffer = []

    @precondition(lambda self: self.in_txn)
    @rule()
    def commit(self):
        self.db.commit()
        self.in_txn = False
        for sql in self.txn_buffer:
            self.oracle.execute(sql)
        self.txn_buffer = []

    @precondition(lambda self: self.in_txn)
    @rule()
    def rollback(self):
        self.db.abort()
        self.in_txn = False
        self.txn_buffer = []

    # -- durability events ---------------------------------------------------

    @precondition(lambda self: not self.in_txn)
    @rule()
    def checkpoint(self):
        self.db.checkpoint()

    @precondition(lambda self: not self.in_txn)
    @rule()
    def crash_and_recover(self):
        """Process death between statements: nothing in flight is lost."""
        kill_wal(self.db)
        self.db = Database(path=self.dir + "/db", group_commit=1)
        assert self.db.dump_state() == self.oracle.dump_state()

    @precondition(lambda self: not self.in_txn)
    @rule(pdf=_PDF_SQL)
    def crash_mid_append(self, pdf):
        """Torn log append mid-INSERT: the statement must vanish entirely."""
        faults.disarm_all()
        faults.arm("wal.append.torn")
        try:
            self.db.execute(f"INSERT INTO m VALUES (0, {pdf})")
        except InjectedCrash:
            pass
        else:
            raise AssertionError("armed torn append did not fire")
        finally:
            faults.disarm_all()
        kill_wal(self.db)
        self.db = Database(path=self.dir + "/db", group_commit=1)
        assert self.db.dump_state() == self.oracle.dump_state()

    # -- invariant -----------------------------------------------------------

    @invariant()
    def durable_matches_oracle_outside_txn(self):
        if not self.in_txn:
            assert self.db.dump_state() == self.oracle.dump_state()

    def teardown(self):
        faults.disarm_all()
        try:
            self.db.close()
        except Exception:
            pass
        shutil.rmtree(self.dir, ignore_errors=True)


CrashRecoveryMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=25, deadline=None
)
TestCrashRecovery = CrashRecoveryMachine.TestCase
