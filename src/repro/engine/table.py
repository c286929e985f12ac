"""Persistent tables: probabilistic tuples stored in heap files.

A :class:`Table` is the engine's counterpart of a base
:class:`~repro.core.model.ProbabilisticRelation`: the same probabilistic
schema and histories, but tuples are serialized onto slotted pages behind a
buffer pool, and a base tuple's record is the only copy of its pdfs.
B+trees over certain columns are built by their first read, then kept on
every insert and delete; a PROB index over an uncertain one is a name in
:attr:`Table.ptis`, whose x-bound ladder every page synopsis keeps as a
row column.

``store_lineage=False`` turns off history persistence — the storage half of
the paper's Figure 6 "without histories" baseline (queries over such a
table silently treat all pdfs as independent).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from ..errors import CatalogError, QueryError
from ..core.history import HistoryStore
from ..core.model import (
    CertainValue,
    InsertRow,
    ProbabilisticSchema,
    ProbabilisticTuple,
    build_base_tuples,
)
from ..core.project import is_partial
from ..pdf.base import Pdf
from .index.btree import BPlusTree
from .index.pti import ladder
from ..core.columnar import ColumnarSegment
from .storage.buffer import BufferPool
from .storage.heapfile import HeapFile, RID
from .storage.serialize import Renaming, TuplePrefix, decode_prefix, decode_tuple, encode_record
from .storage.synopsis import PageSynopsis, ScanPruner

__all__ = ["ScanCounts", "Table"]

#: the pruner of an untested scan
_NO_TEST = ScanPruner()


class ScanCounts:
    """What a sequential scan read: pages fetched from the buffer pool,
    record prefixes decoded, and live records on the pages it visited."""

    __slots__ = ("pages", "decoded", "live")

    def __init__(self) -> None:
        self.pages = self.decoded = self.live = 0


class Table:
    """One on-disk probabilistic table with optional secondary indexes."""

    def __init__(
        self,
        name: str,
        schema: ProbabilisticSchema,
        pool: BufferPool,
        store: HistoryStore,
        store_lineage: bool = True,
        txn=None,
    ):
        self.name = name
        self.schema = schema
        self.pool = pool
        self.store = store
        self.store_lineage = store_lineage
        #: the catalog's TransactionManager (None for standalone tables);
        #: mutation hooks buffer WAL redo records and precise undo entries
        self.txn = txn
        self.heap = HeapFile(pool, name=name)
        #: column -> its B+tree, or None until the first read builds it (:meth:`_btree`)
        self.btrees: Dict[str, Optional[BPlusTree]] = {}
        #: the PROB-indexed attributes (their ladders: page synopsis row columns)
        self.ptis: set = set()
        #: per-page min/max + mass-bound synopses, maintained on insert/delete
        self.synopses: Dict[int, PageSynopsis] = {}
        #: restored pages no scan has built a synopsis for (:meth:`_build`) yet
        self.unbuilt: set = set()
        #: dependency sets some stored record held a partial pdf in; like the
        #: synopses, never shrunk by a delete (a stale entry costs a phantom)
        self.partial_sets: set = set()

    def __len__(self) -> int:
        return len(self.heap)

    # -- data modification ---------------------------------------------------

    def insert(
        self,
        certain: Optional[Mapping[str, CertainValue]] = None,
        uncertain: Optional[Mapping[Union[str, Tuple[str, ...]], Optional[Pdf]]] = None,
    ) -> RID:
        """Insert one base tuple."""
        return self.insert_many([(certain, uncertain)])[0]

    def insert_many(self, rows: Iterable[InsertRow]) -> List[RID]:
        """Insert ``(certain, uncertain)`` rows as base tuples, all or nothing.

        Every row is validated before an id is drawn and every record
        encoded before a page is touched: a failure leaves heap, id
        sequence, synopses and indexes as they were.  Callers streaming
        more rows than should sit in memory at once cut the stream
        themselves (``workloads.load_into`` does).
        """
        tuples = build_base_tuples(self.schema, self.store, rows)
        try:
            return self._place(tuples, base=True)
        except Exception:
            if tuples:
                self.store.return_tuple_ids(tuples[0].tuple_id, tuples[-1].tuple_id)
            raise

    def insert_tuple(self, t: ProbabilisticTuple) -> RID:
        """Insert an already-built tuple (used to materialize query results).

        Counts its references to its ancestors, so that deleting base data
        later keeps them alive as phantom nodes.  The row is stored under a
        fresh id (handed back on failure): a selected or projected row keeps
        its base tuple's id, and only a base tuple may hold its own.
        """
        t = ProbabilisticTuple._adopt(self.store.new_tuple_id(), t.certain, t.pdfs, t.lineage)
        try:
            return self._place([t], base=False)[0]
        except Exception:
            self.store.return_tuple_ids(t.tuple_id, t.tuple_id)
            raise

    def _place(self, tuples: List[ProbabilisticTuple], base: bool, encoded=None) -> List[RID]:
        """Store built tuples: each encoded (and its PROB ladders computed)
        once before a page is touched, appended page-at-a-time, its
        ancestor references counted unless it is a ``base`` tuple, entered
        into the indexes and the page synopses, and reported to the
        transaction manager in one call that reuses the encoded bytes.
        ``encoded`` holds each tuple's ``(record, summaries)`` when the
        caller has them already (WAL replay).  Nothing is left behind when
        a step raises.
        """
        if encoded is None:
            encoded = [encode_record(t, self.store_lineage) for t in tuples]
        records = [record for record, _deps in encoded]
        ladders = [self._ladders(t) for t in tuples]
        rids = self.heap.insert_many(records)
        referenced = 0
        try:
            if not base:
                for t in tuples:
                    self.store.acquire([link for lin in t.lineage.values() for link in lin])
                    referenced += 1
            if self.btrees:
                for rid, t in zip(rids, tuples):
                    self._index_insert(rid, t)
        except Exception:
            for i, (rid, t) in enumerate(zip(rids, tuples)):
                self._index_delete(rid, t)
                self.heap.delete(rid)
                if i < referenced:
                    self.store.drop_tuple(t)
            raise
        for rid, t, (_record, deps), row_ladders in zip(rids, tuples, encoded, ladders):
            self._synopsis_add(rid, t.certain, deps, row_ladders)
        if self.txn is not None:
            self.txn.on_insert(self, rids, tuples, records, base)
        return rids

    def _undo_insert(self, rid: RID, t: ProbabilisticTuple) -> None:
        """Take one placed tuple back out (transaction rollback)."""
        self._index_delete(rid, t)
        syn = self.synopses.get(rid.page_id)
        if syn is not None:
            syn.remove(rid.slot)
        self.heap.delete(rid)
        self.store.drop_tuple(t)

    def delete(self, rid: RID, t: Optional[ProbabilisticTuple] = None) -> None:
        """Delete a tuple; the base pdfs still referenced become phantom nodes.

        ``t`` is the tuple stored at ``rid`` when the caller has already
        decoded it; otherwise it is read here."""
        if t is None:
            t = self.read(rid)
        if self.txn is not None:
            # Hooked before mutating: captures the record bytes and the
            # reference counts and phantoms this delete will change.
            self.txn.on_delete(self, rid, t)
        self.heap.delete(rid)
        syn = self.synopses.get(rid.page_id)
        if syn is not None:
            syn.remove(rid.slot)
        self._index_delete(rid, t)
        self.store.drop_tuple(t)

    # -- access ------------------------------------------------------------------

    def read(self, rid: RID) -> ProbabilisticTuple:
        """Fetch and decode one tuple."""
        t, _ = decode_tuple(self.heap.read(rid))
        return t

    def scan(self, pruner: Optional[ScanPruner] = None) -> Iterator[Tuple[RID, ProbabilisticTuple]]:
        """Every stored tuple, decoded whole, in page order; under a
        ``pruner``, only those passing its tests, from the same slots as
        :meth:`scan_segments` (the B+tree's order when it names one)."""
        for page_id, slots, prefixes in self._survivors(pruner, ScanCounts()):
            for slot, prefix in zip(slots, prefixes):
                yield RID(page_id, slot), prefix.complete()

    def scan_segments(
        self,
        size: int,
        pruner: Optional[ScanPruner] = None,
        read_sets: Optional[frozenset] = None,
        renaming: Optional[Renaming] = None,
        counts: Optional[ScanCounts] = None,
    ) -> Iterator[Tuple[list, ColumnarSegment]]:
        """The scan of :meth:`_survivors`, its records completed in batches.

        Yields ``(tuples, segment)`` pairs of at most ``size`` tuples; the
        :class:`~repro.core.columnar.ColumnarSegment` is the lazy column
        view of exactly those tuples.  Only the records passing every test
        decode their payloads — those of ``read_sets``, under
        ``renaming``'s names (the statement's), see
        :meth:`TuplePrefix.complete`.  ``counts`` (a :class:`ScanCounts`)
        tallies pages fetched, prefixes decoded and live records on the
        pages visited.
        """
        buf: list = []
        for _page_id, _slots, prefixes in self._survivors(pruner, counts or ScanCounts()):
            for prefix in prefixes:
                buf.append(prefix.complete(read_sets, renaming))
                if len(buf) >= size:
                    yield buf, ColumnarSegment(buf)
                    buf = []
        if buf:
            yield buf, ColumnarSegment(buf)

    def _survivors(
        self, pruner: Optional[ScanPruner], counts: ScanCounts
    ) -> Iterator[Tuple[int, List[int], List[TuplePrefix]]]:
        """The one record loop: per page visited, the slots and record
        prefixes (stored names) that pass every test of ``pruner``.

        Without a pruner every page is read.  A pruner naming a B+tree
        (:attr:`ScanPruner.btree`) takes its slots from the tree's range, in
        key order, one :meth:`HeapFile.read_run` per run of same-page RIDs;
        no other record is read and no row column filled.  Any other
        pruner walks the pages its synopsis tests admit
        (:meth:`candidate_pages`) with one rule per page.  A page whose row
        columns (:attr:`PageSynopsis.rows`) hold every column the row test
        reads is read through the slots the test admits, and not fetched
        at all when it admits none.  Any other page has every record prefix
        decoded, the missing columns filled from those prefixes, and the
        test applied to them; an :attr:`unbuilt` page first has its
        synopsis built from the same prefixes and its page test run on it.
        Rows the test rejects would be dropped by
        the plan's own filters.  On every path the pruner's exact
        ``certain_predicate`` then runs on each prefix left.
        """
        if pruner is None:
            runs = self._page_runs(self.heap.page_ids, _NO_TEST, counts)
        elif pruner.btree is not None:
            runs = self._tree_runs(pruner.btree, counts)
        else:
            runs = self._page_runs(self.candidate_pages(pruner), pruner, counts)
        pred = None if pruner is None else pruner.certain_predicate
        for page_id, slots, prefixes in runs:
            if pred is not None:
                keep = [pred.evaluate(prefix.certain) is True for prefix in prefixes]
                slots = list(itertools.compress(slots, keep))
                prefixes = list(itertools.compress(prefixes, keep))
            yield page_id, slots, prefixes

    def _tree_runs(self, btree: tuple, counts: ScanCounts):
        """The records a B+tree's range names, one run of same-page RIDs at a time."""
        attr, lo, hi = btree
        rids = (rid for _key, rid in self._btree(attr).range_scan(lo, hi))
        for page_id, run in itertools.groupby(rids, key=lambda rid: rid.page_id):
            slots = [rid.slot for rid in run]
            counts.pages += 1
            syn = self.synopses.get(page_id)  # None: unbuilt, so count its slot directory
            counts.live += len(self.heap.page_records(page_id)[0]) if syn is None else syn.live
            counts.decoded += len(slots)
            yield page_id, slots, [decode_prefix(r) for r in self.heap.read_run(page_id, slots)]

    def _page_runs(self, page_ids: list, pruner: ScanPruner, counts: ScanCounts):
        """The records of ``page_ids`` the pruner's row test admits, a page at a time."""
        keys = pruner.row_keys
        summaries = pruner.reads_summaries
        for page_id in page_ids:
            syn = self.synopses.get(page_id) if keys else None
            rows = None if syn is None else syn.rows
            if rows is not None and keys.issubset(rows.columns):
                counts.live += len(rows.slots)
                slots = list(itertools.compress(rows.slots, pruner.admitted(rows)))
                if not slots:
                    continue
                prefixes = [decode_prefix(record) for record in self.heap.read_run(page_id, slots)]
                counts.decoded += len(prefixes)
            else:
                slots, records = self.heap.page_records(page_id)
                counts.live += len(records)
                counts.decoded += len(records)
                build = bool(keys) and syn is None  # an unbuilt page, admitted untested
                prefixes = [decode_prefix(record, 0, summaries or build) for record in records]
                if keys:
                    if build:
                        syn = self._build(page_id, slots, prefixes)
                    rows = pruner.fill(syn, slots, prefixes)
                    admitted = pruner.admitted(rows) if pruner.admits_page(syn) else ()
                    slots = list(itertools.compress(slots, admitted))
                    prefixes = list(itertools.compress(prefixes, admitted))
            counts.pages += 1
            yield page_id, slots, prefixes

    # -- page synopses -----------------------------------------------------------

    def _synopsis_add(self, rid: RID, certain, deps, ladders=None) -> None:
        """Fold one stored record's prefix and :meth:`_ladders` into its page
        synopsis, unless the page is :attr:`unbuilt`, and into :attr:`partial_sets`
        (insert, CTAS, replay, undo, build)."""
        if rid.page_id not in self.unbuilt:
            syn = self.synopses.get(rid.page_id)
            if syn is None:
                syn = self.synopses[rid.page_id] = PageSynopsis(self.ptis)
            syn.add(rid.slot, certain, deps, ladders)
        for summary in deps:
            if summary.has_pdf and is_partial(summary.mass):
                self.partial_sets.add(summary.attrs)

    def candidate_pages(self, pruner: ScanPruner) -> list:
        """The page ids a pruned sequential scan must visit: every
        :attr:`unbuilt` page (:meth:`_page_runs` builds and tests it), and
        those whose synopsis does not prove zero qualifying mass.

        Any other page without a synopsis is a page a failed insert
        allocated, and holds no record.
        """
        synopses, unbuilt = self.synopses, self.unbuilt
        return [
            page_id
            for page_id in self.heap.page_ids
            if page_id in unbuilt or (page_id in synopses and pruner.admits_page(synopses[page_id]))
        ]

    def _build(self, page_id: int, slots: List[int], prefixes: List[TuplePrefix]) -> PageSynopsis:
        """The synopsis of an unbuilt page, with the ladders of :attr:`ptis`,
        from the prefixes (summaries read) of its live ``slots``.  Only a
        PROB-indexed table decodes whole records here."""
        self.unbuilt.discard(page_id)
        syn = self.synopses[page_id] = PageSynopsis(self.ptis)
        for slot, prefix in zip(slots, prefixes):
            ladders = self._ladders(prefix.complete()) if self.ptis else None
            self._synopsis_add(RID(page_id, slot), prefix.certain, prefix.deps, ladders)
        return syn

    def rebuild_synopses(self) -> None:
        """Build every page's synopsis at once through :meth:`_build`, as a
        pruned scan would, unbuilt or not (``CREATE PROB INDEX`` fills its ladder so)."""
        self.synopses = {}
        for page_id in self.heap.page_ids:
            slots, records = self.heap.page_records(page_id)
            self._build(page_id, slots, [decode_prefix(r, 0, summaries=True) for r in records])

    # -- indexes --------------------------------------------------------------------

    def create_btree_index(self, attr: str) -> BPlusTree:
        """Create (and backfill) a B+tree over a certain column."""
        if not self.schema.has_column(attr):
            raise CatalogError(f"table {self.name!r} has no column {attr!r}")
        if self.schema.is_uncertain(attr):
            raise QueryError(
                f"column {attr!r} is uncertain; create a probability-threshold index"
            )
        if attr in self.btrees:
            raise CatalogError(f"index on {self.name}.{attr} already exists")
        tree = self._btree(attr)
        if self.txn is not None:
            self.txn.on_create_index(self, "btree", attr)
        return tree

    def _btree(self, attr: str) -> BPlusTree:
        """The B+tree over ``attr``, built from the heap's record prefixes
        when it has none yet (a restored tree's first read, ``CREATE
        INDEX``) and entered in :attr:`btrees` only once complete."""
        tree = self.btrees.get(attr)
        if tree is None:
            tree = BPlusTree()
            for rid, record in self.heap.scan():  # certain values: the prefix holds them
                value = decode_prefix(record).certain.get(attr)
                if value is not None:
                    tree.insert(value, rid)
            self.btrees[attr] = tree
        return tree

    def create_pti_index(self, attr: str) -> None:
        """Declare a PROB (probability-threshold) index on an uncertain
        column: every page synopsis keeps its ladder from now on."""
        if not self.schema.has_column(attr):
            raise CatalogError(f"table {self.name!r} has no column {attr!r}")
        if not self.schema.is_uncertain(attr):
            raise QueryError(f"column {attr!r} is certain; create a B+tree index")
        if attr in self.ptis:
            raise CatalogError(f"index on {self.name}.{attr} already exists")
        self.ptis.add(attr)
        self.rebuild_synopses()
        if self.txn is not None:
            self.txn.on_create_index(self, "pti", attr)

    def _ladders(self, t: ProbabilisticTuple) -> Dict[str, Tuple[float, ...]]:
        """Per attribute of :attr:`ptis`, the ladder of ``t``'s pdf on it."""
        return {a: ladder(t.pdfs.get(t.dependency_set_of(a)), a) for a in self.ptis}

    def _index_insert(self, rid: RID, t: ProbabilisticTuple) -> None:
        for attr, tree in self.btrees.items():
            value = t.certain.get(attr)
            if tree is not None and value is not None:
                tree.insert(value, rid)

    def _index_delete(self, rid: RID, t: ProbabilisticTuple) -> None:
        for attr, tree in self.btrees.items():
            value = t.certain.get(attr)
            if tree is not None and value is not None:
                tree.delete(value, rid)

    # -- statistics ------------------------------------------------------------------

    def stats(self) -> Dict[str, int]:
        return {
            "rows": len(self.heap),
            "pages": self.heap.num_pages,
            "btree_indexes": len(self.btrees),
            "pti_indexes": len(self.ptis),
        }

