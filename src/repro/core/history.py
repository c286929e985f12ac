"""Histories: ancestor tracking for inter-tuple dependencies (Section II-C).

Every dependency set in a freshly inserted tuple is its own *top-level
ancestor* (Definition 2).  Any pdf derived from it by database operations
carries a reference back to the base pdf; two pdfs whose ancestor sets
intersect are *historically dependent* (Definition 3), and the ``product``
primitive must reconstruct their joint from the ancestors rather than
multiply marginals (the Figure 3 correctness example).

:class:`HistoryStore` owns the base pdfs.  It reference-counts them so that
deleting a base tuple keeps any still-referenced dependency set alive as a
*phantom node* until its reference count drops to zero, exactly as the paper
prescribes.

Because relational operators may rename attributes (e.g. disambiguating a
self-join), each history entry is an :class:`AncestorLink` — an ancestor
reference plus the mapping from the ancestor's base attribute names to the
derived pdf's current names.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, Mapping, NamedTuple, Optional, Tuple

from ..errors import HistoryError
from ..pdf.base import Pdf

__all__ = ["AncestorRef", "AncestorLink", "Lineage", "HistoryStore", "fresh_lineage"]

#: ``tuple.__new__``: builds a named tuple from its fields without running
#: the Python-level ``__new__`` the class generates (the hot decode path).
_new_tuple = tuple.__new__


class AncestorRef(NamedTuple):
    """Identity of a base pdf: the inserting tuple and its dependency set."""

    tuple_id: int
    attrs: FrozenSet[str]

    def __repr__(self) -> str:
        return f"t{self.tuple_id}.{{{','.join(sorted(self.attrs))}}}"


class AncestorLink(NamedTuple):
    """An ancestor reference plus the base-name -> current-name mapping.

    Both classes are plain tuples: a decoded base set builds one of each
    with C-level calls, and equality and hashing are the tuple's own.
    """

    ref: AncestorRef
    mapping: Tuple[Tuple[str, str], ...]

    @classmethod
    def identity(cls, ref: AncestorRef) -> "AncestorLink":
        return cls(ref, _identity_mapping(ref.attrs))

    def mapping_dict(self) -> Dict[str, str]:
        return dict(self.mapping)

    def renamed(self, renames: Mapping[str, str]) -> "AncestorLink":
        """Compose an attribute rename onto the link's mapping."""
        return AncestorLink(self.ref, renamed_mapping(self.mapping, renames))

    def __repr__(self) -> str:
        renames = [f"{b}->{c}" for b, c in self.mapping if b != c]
        suffix = f"[{','.join(renames)}]" if renames else ""
        return f"{self.ref!r}{suffix}"


def renamed_mapping(
    mapping: Tuple[Tuple[str, str], ...], renames: Mapping[str, str]
) -> Tuple[Tuple[str, str], ...]:
    """A link mapping with an attribute rename composed onto its current names."""
    return tuple(sorted((base, renames.get(current, current)) for base, current in mapping))


@lru_cache(maxsize=1024)
def _identity_mapping(attrs: FrozenSet[str]) -> Tuple[Tuple[str, str], ...]:
    """The unrenamed mapping of a dependency set (one per set, not per tuple)."""
    return tuple(sorted((a, a) for a in attrs))


#: The history Λ(t.S) of one dependency set: its set of ancestor links.
Lineage = FrozenSet[AncestorLink]


def fresh_lineage(
    ref: AncestorRef, mapping: Optional[Tuple[Tuple[str, str], ...]] = None
) -> Lineage:
    """The lineage of a newly inserted base pdf: itself (Definition 2).

    ``mapping`` names the set's attributes as a statement reads them (the
    identity mapping when ``None``); it must be what
    :meth:`AncestorLink.renamed` makes of the identity mapping.
    """
    if mapping is None:
        mapping = _identity_mapping(ref.attrs)
    return frozenset((_new_tuple(AncestorLink, (ref, mapping)),))


def rename_lineage(lineage: Lineage, renames: Mapping[str, str]) -> Lineage:
    """Apply an attribute rename to every link of a lineage."""
    return frozenset(link.renamed(renames) for link in lineage)


def historically_dependent(a: Lineage, b: Lineage) -> bool:
    """Definition 3: lineages sharing any ancestor *reference*."""
    refs_a = {link.ref for link in a}
    return any(link.ref in refs_a for link in b)


@dataclass
class _Entry:
    pdf: Pdf
    refcount: int = 0
    #: False once the owning base tuple was deleted (phantom node).
    alive: bool = True


class HistoryStore:
    """Registry of base pdfs with reference counting and phantom nodes."""

    def __init__(self) -> None:
        self._entries: Dict[AncestorRef, _Entry] = {}
        #: secondary index: tuple_id -> its registered refs (kept in sync so
        #: base-tuple deletion and transaction undo capture are O(refs), not
        #: O(store)).
        self._by_tuple: Dict[int, set] = {}
        self._next_tuple_id = 0
        self._id_lock = threading.Lock()

    def _rebuild_by_tuple(self) -> None:
        """Recompute the tuple-id index from ``_entries``.

        Called after code paths that write ``_entries`` directly (snapshot
        load, transaction undo restore).
        """
        self._by_tuple = {}
        for ref in self._entries:
            self._by_tuple.setdefault(ref.tuple_id, set()).add(ref)

    def _index_add(self, ref: AncestorRef) -> None:
        self._by_tuple.setdefault(ref.tuple_id, set()).add(ref)

    def _index_discard(self, ref: AncestorRef) -> None:
        refs = self._by_tuple.get(ref.tuple_id)
        if refs is not None:
            refs.discard(ref)
            if not refs:
                del self._by_tuple[ref.tuple_id]

    def refs_of_tuple(self, tuple_id: int) -> frozenset:
        """Every registered ref (live or phantom) owned by ``tuple_id``."""
        return frozenset(self._by_tuple.get(tuple_id, ()))

    # -- identity ---------------------------------------------------------

    def new_tuple_id(self) -> int:
        """A unique id for a newly inserted base tuple.

        Locked: threads sharing a ``Database`` may draw ids
        concurrently, and ``+= 1`` is not atomic under free threading.
        """
        with self._id_lock:
            self._next_tuple_id += 1
            return self._next_tuple_id

    def new_tuple_ids(self, n: int):
        """``n`` consecutive fresh ids, taking the lock once.

        Returns ``range(first, first + n)`` — the exact sequence ``n``
        successive :meth:`new_tuple_id` calls would have produced, so batch
        producers (the columnar hash join) can pre-allocate ids for a whole
        probe sweep without changing the id stream relative to the
        tuple-at-a-time reference path.
        """
        if n <= 0:
            return range(0)
        with self._id_lock:
            first = self._next_tuple_id + 1
            self._next_tuple_id += n
        return range(first, first + n)

    def return_tuple_ids(self, first: int, last: int) -> None:
        """Hand back the block ``first..last`` of a failed insert, if no id
        was drawn since — the id sequence then equals that of a database
        which never ran the statement; otherwise the block stays a gap."""
        with self._id_lock:
            if self._next_tuple_id == last:
                self._next_tuple_id = first - 1

    # -- registration -------------------------------------------------------

    def register_base(self, tuple_id: int, pdf: Pdf) -> AncestorRef:
        """Record a base pdf at insert time and return its reference."""
        ref = AncestorRef(tuple_id, frozenset(pdf.attrs))
        if ref in self._entries:
            raise HistoryError(f"ancestor {ref!r} is already registered")
        self._entries[ref] = _Entry(pdf=pdf)
        self._index_add(ref)
        return ref

    def register_base_tuple(self, t) -> None:
        """Definition 2 for a freshly built base tuple, in one step.

        Every non-NULL pdf becomes its own top-level ancestor holding the
        tuple's self-reference — what :meth:`register_base` followed by
        :meth:`acquire` of the fresh lineage amounts to.
        """
        entries = self._entries
        fresh = [
            (link.ref, t.pdfs[dep])
            for dep, lineage in t.lineage.items()
            for link in lineage
        ]
        for ref, _pdf in fresh:
            if ref in entries:
                raise HistoryError(f"ancestor {ref!r} is already registered")
        for ref, pdf in fresh:
            entries[ref] = _Entry(pdf, 1)
        if fresh:
            self._by_tuple.setdefault(t.tuple_id, set()).update(ref for ref, _ in fresh)

    def __contains__(self, ref: AncestorRef) -> bool:
        return ref in self._entries

    def pdf(self, ref: AncestorRef) -> Pdf:
        """The base pdf for ``ref`` (works for phantom nodes too)."""
        entry = self._entries.get(ref)
        if entry is None:
            raise HistoryError(f"unknown or fully-released ancestor {ref!r}")
        return entry.pdf

    def is_phantom(self, ref: AncestorRef) -> bool:
        entry = self._entries.get(ref)
        if entry is None:
            raise HistoryError(f"unknown or fully-released ancestor {ref!r}")
        return not entry.alive

    # -- reference counting -----------------------------------------------------

    def acquire(self, lineage: Iterable[AncestorLink]) -> None:
        """Increment refcounts for every ancestor a derived pdf points to."""
        for link in lineage:
            entry = self._entries.get(link.ref)
            if entry is None:
                raise HistoryError(f"cannot reference unknown ancestor {link.ref!r}")
            entry.refcount += 1

    def release(self, lineage: Iterable[AncestorLink]) -> None:
        """Decrement refcounts; drop phantom nodes that reach zero."""
        for link in lineage:
            entry = self._entries.get(link.ref)
            if entry is None:
                raise HistoryError(f"cannot release unknown ancestor {link.ref!r}")
            if entry.refcount <= 0:
                raise HistoryError(f"refcount underflow for {link.ref!r}")
            entry.refcount -= 1
            if entry.refcount == 0 and not entry.alive:
                del self._entries[link.ref]
                self._index_discard(link.ref)

    def delete_base_tuple(self, tuple_id: int) -> None:
        """Base-tuple deletion: referenced sets become phantom nodes.

        Unreferenced dependency sets disappear immediately; referenced ones
        are kept (phantom) until their reference count falls to zero.
        """
        for ref in list(self._by_tuple.get(tuple_id, ())):
            entry = self._entries[ref]
            if entry.refcount == 0:
                del self._entries[ref]
                self._index_discard(ref)
            else:
                entry.alive = False

    # -- introspection --------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, int]:
        """Counts of live and phantom ancestor nodes (for tests/benchmarks)."""
        phantom = sum(1 for e in self._entries.values() if not e.alive)
        return {"total": len(self._entries), "phantom": phantom}
