"""Histories: ancestor tracking for inter-tuple dependencies (Section II-C).

Every dependency set in a freshly inserted tuple is its own *top-level
ancestor* (Definition 2).  Any pdf derived from it by database operations
carries a reference back to the base pdf; two pdfs whose ancestor sets
intersect are *historically dependent* (Definition 3), and the ``product``
primitive must reconstruct their joint from the ancestors rather than
multiply marginals (the Figure 3 correctness example).

A base pdf is needed only when ``product`` meets two inputs that share an
ancestor, and its only copy is where its tuple is stored: the heap record of
an engine table, or the in-memory relation that :func:`build_base_tuple`
filled.  :class:`HistoryStore` fetches it from there and counts the
references stored derived tuples hold, so that deleting a base tuple keeps
any still-referenced dependency set alive as a *phantom node* — the store
then keeps its pdf — until its reference count drops to zero, exactly as the
paper prescribes.

Because relational operators may rename attributes (e.g. disambiguating a
self-join), each history entry is an :class:`AncestorLink` — an ancestor
reference plus the mapping from the ancestor's base attribute names to the
derived pdf's current names.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, Iterable, Mapping, NamedTuple, Optional, Tuple

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


class HistoryStore:
    """Reference counts and phantom nodes of base pdfs.

    A base pdf itself stays where its tuple is stored; ``resolve`` fetches
    it by reference, and ``stored`` tells whether its tuple is stored
    without decoding it.  Without them, the store reads the base pdfs that
    :meth:`register_base` collects for in-memory relations.
    """

    def __init__(
        self,
        resolve: Optional[Callable[[AncestorRef], Pdf]] = None,
        stored: Optional[Callable[[AncestorRef], bool]] = None,
    ) -> None:
        #: references held by stored derived tuples (a base set's reference
        #: to itself is implied, never counted)
        self._refcounts: Dict[AncestorRef, int] = {}
        #: the pdf of each deleted base set still referenced
        self._phantoms: Dict[AncestorRef, Pdf] = {}
        #: base pdfs of in-memory relations, when no ``resolve`` is given
        self._bases: Dict[AncestorRef, Pdf] = {}
        self._resolve = resolve or self._registered
        self._stored = stored or self._bases.__contains__
        self._next_tuple_id = 0
        self._id_lock = threading.Lock()

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
        successive :meth:`new_tuple_id` calls would have produced, so
        :func:`~repro.core.model.build_base_tuples` draws the ids of a whole
        validated ``INSERT`` at once without changing the id stream.
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

    # -- base pdfs ------------------------------------------------------------

    def register_base(self, tuple_id: int, pdf: Pdf) -> AncestorRef:
        """Keep an in-memory relation's base pdf and return its reference."""
        ref = AncestorRef(tuple_id, frozenset(pdf.attrs))
        if ref in self._bases:
            raise HistoryError(f"ancestor {ref!r} is already registered")
        self._bases[ref] = pdf
        return ref

    def _registered(self, ref: AncestorRef) -> Pdf:
        pdf = self._bases.get(ref)
        if pdf is None:
            raise HistoryError(f"unknown or fully-released ancestor {ref!r}")
        return pdf

    def pdf(self, ref: AncestorRef) -> Pdf:
        """The base pdf for ``ref``: its phantom, else where it is stored."""
        phantom = self._phantoms.get(ref)
        return self._resolve(ref) if phantom is None else phantom

    def is_phantom(self, ref: AncestorRef) -> bool:
        return ref in self._phantoms

    # -- reference counting -----------------------------------------------------

    def acquire(self, lineage: Iterable[AncestorLink]) -> None:
        """Count a stored derived tuple's reference to each ancestor.

        An ancestor's first reference checks that its tuple is stored;
        nothing is counted if one is not.
        """
        links = list(lineage)
        counts = self._refcounts
        for link in links:
            if link.ref not in counts and not self._stored(link.ref):
                raise HistoryError(f"unknown or fully-released ancestor {link.ref!r}")
        for link in links:
            counts[link.ref] = counts.get(link.ref, 0) + 1

    def release(self, lineage: Iterable[AncestorLink]) -> None:
        """Drop references; an ancestor's last one takes its phantom along."""
        counts = self._refcounts
        for link in lineage:
            count = counts.get(link.ref, 0)
            if count <= 0:
                raise HistoryError(f"refcount underflow for {link.ref!r}")
            if count == 1:
                del counts[link.ref]
                self._phantoms.pop(link.ref, None)
            else:
                counts[link.ref] = count - 1

    def drop_tuple(self, t) -> None:
        """A stored tuple leaves: its references go, and each base set it
        holds becomes a phantom node if a derived tuple still refers to it.

        A base set's history is one link to the tuple's own id (Definition
        2); a stored derived tuple never links to its own id.
        """
        for dep, lineage in t.lineage.items():
            if not lineage:
                continue
            ref = next(iter(lineage)).ref
            if ref.tuple_id != t.tuple_id:
                self.release(lineage)
                continue
            if ref in self._refcounts:
                self._phantoms[ref] = t.pdfs[dep]
            self._bases.pop(ref, None)

    # -- transaction undo ------------------------------------------------------------

    def capture(self, refs: Iterable[AncestorRef]) -> Dict[AncestorRef, Tuple[int, Optional[Pdf]]]:
        """The refcount and phantom of each referenced one of ``refs``: what
        :meth:`restore` needs to undo a :meth:`drop_tuple` of tuples that
        link only to ``refs`` (a drop never adds a reference)."""
        counts, phantoms = self._refcounts, self._phantoms
        return {ref: (counts[ref], phantoms.get(ref)) for ref in refs if ref in counts}

    def restore(self, saved: Mapping[AncestorRef, Tuple[int, Optional[Pdf]]]) -> None:
        for ref, (count, phantom) in saved.items():
            self._refcounts[ref] = count
            if phantom is None:
                self._phantoms.pop(ref, None)
            else:
                self._phantoms[ref] = phantom

    # -- introspection --------------------------------------------------------------

    def __contains__(self, ref: AncestorRef) -> bool:
        """Whether ``ref`` is referenced, or an in-memory relation's base."""
        return ref in self._refcounts or ref in self._bases

    def __len__(self) -> int:
        """Referenced ancestors (every phantom among them)."""
        return len(self._refcounts)

    def stats(self) -> Dict[str, int]:
        """Counts of referenced and phantom ancestor nodes."""
        return {"total": len(self._refcounts), "phantom": len(self._phantoms)}
