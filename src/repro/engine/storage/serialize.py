"""Binary serialization of certain values, pdfs, and probabilistic tuples.

The paper's storage argument (Figures 4/5) hinges on representation size:
a symbolic Gaussian costs two floats, a 5-bucket histogram six floats plus
bucket masses, a 25-point discrete sampling fifty floats — and bigger
records mean fewer tuples per page and more I/O.  This module defines the
on-page format that realises those trade-offs:

* values: 1-byte tag + fixed/variable payload,
* pdfs: 1-byte type tag + the symbolic parameters (or the explicit
  buckets/points for generic representations), recursively for composites
  (floored, product, joint),
* tuples (heap record format v6): a name table, then certain section +
  per-dependency-set pdf and lineage sections that refer to names by index.

Everything round-trips exactly (floats are stored as IEEE 754 doubles).
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Tuple

import numpy as np

from ...errors import SerializationError
from ...pdf.base import Pdf
from ...pdf.continuous import GaussianPdf, TriangularPdf, UniformPdf
from ...pdf.discrete import (
    BernoulliPdf,
    BinomialPdf,
    CategoricalPdf,
    DiscretePdf,
    GeometricPdf,
    PoissonPdf,
)
from ...pdf.floors import FlooredPdf
from ...pdf.histogram import HistogramPdf
from ...pdf.joint import (
    ContinuousAxis,
    DiscreteAxis,
    JointDiscretePdf,
    JointGaussianPdf,
    JointGridPdf,
    ProductPdf,
)
from ...pdf.regions import Interval, IntervalSet
from ...core.history import (
    AncestorLink,
    AncestorRef,
    Lineage,
    _identity_mapping,
    _new_tuple,
    fresh_lineage,
    renamed_mapping,
)
from ...core.model import ProbabilisticTuple

__all__ = [
    "encode_value",
    "decode_value",
    "encode_pdf",
    "decode_pdf",
    "encode_record",
    "encode_tuple",
    "decode_tuple",
    "decode_prefix",
    "record_tuple_id",
    "dep_summary",
    "DepSummary",
    "Renaming",
    "TuplePrefix",
    "pdf_size",
]

# -- value tags ----------------------------------------------------------------

_V_NULL, _V_INT, _V_REAL, _V_BOOL, _V_TEXT = 0, 1, 2, 3, 4

# -- pdf tags -------------------------------------------------------------------

_P_NULL = 0
_P_GAUSSIAN = 10
_P_UNIFORM = 11
_P_TRIANGULAR = 13
_P_DISCRETE = 20
_P_CATEGORICAL = 21
_P_BERNOULLI = 22
_P_BINOMIAL = 23
_P_POISSON = 24
_P_GEOMETRIC = 25
_P_HISTOGRAM = 30
_P_FLOORED = 40
_P_JOINT_DISCRETE = 50
_P_JOINT_GAUSSIAN = 51
_P_JOINT_GRID = 52
_P_PRODUCT = 53

#: Tags of families the library no longer has.  They stay reserved, never
#: reused, so a record that carries one is refused by name.
_RETIRED_TAGS = {
    12: "EXPONENTIAL",
    14: "GAMMA",
    15: "LOGNORMAL",
    16: "BETA",
    17: "WEIBULL",
}


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise SerializationError(f"string too long to serialize ({len(raw)} bytes)")
    return struct.pack("<H", len(raw)) + raw


#: ``_pack_str`` for the attribute name inside a pdf payload: a table has a
#: handful.  Values go through ``_pack_str`` unmemoised.
_pack_name = lru_cache(maxsize=4096)(_pack_str)


@lru_cache(maxsize=1024)
def _sorted_attrs(dep: FrozenSet[str]) -> Tuple[str, ...]:
    """A dependency set's sorted names: its canonical order and sort key."""
    return tuple(sorted(dep))


def _unpack_str(buf: bytes, off: int) -> Tuple[str, int]:
    (n,) = struct.unpack_from("<H", buf, off)
    off += 2
    return buf[off : off + n].decode("utf-8"), off + n


def _pack_floats(values) -> bytes:
    arr = np.asarray(values, dtype="<f8")
    return struct.pack("<I", arr.size) + arr.tobytes()


def _unpack_floats(buf: bytes, off: int) -> Tuple[np.ndarray, int]:
    (n,) = struct.unpack_from("<I", buf, off)
    off += 4
    arr = np.frombuffer(buf, dtype="<f8", count=n, offset=off).copy()
    return arr, off + 8 * n


# ---------------------------------------------------------------------------
# Certain values
# ---------------------------------------------------------------------------


def encode_value(value: object) -> bytes:
    """Encode one certain value (int / float / bool / str / None)."""
    if value is None:
        return bytes([_V_NULL])
    if isinstance(value, bool):
        return bytes([_V_BOOL, 1 if value else 0])
    if isinstance(value, int):
        return bytes([_V_INT]) + struct.pack("<q", value)
    if isinstance(value, float):
        return bytes([_V_REAL]) + struct.pack("<d", value)
    if isinstance(value, str):
        return bytes([_V_TEXT]) + _pack_str(value)
    raise SerializationError(f"cannot serialize value of type {type(value).__name__}")


def decode_value(buf: bytes, off: int = 0) -> Tuple[object, int]:
    """Decode one value, returning (value, next offset)."""
    tag = buf[off]
    off += 1
    if tag == _V_NULL:
        return None, off
    if tag == _V_BOOL:
        return bool(buf[off]), off + 1
    if tag == _V_INT:
        (v,) = struct.unpack_from("<q", buf, off)
        return v, off + 8
    if tag == _V_REAL:
        (v,) = struct.unpack_from("<d", buf, off)
        return v, off + 8
    if tag == _V_TEXT:
        return _unpack_str(buf, off)
    raise SerializationError(f"unknown value tag {tag}")


# ---------------------------------------------------------------------------
# Pdfs
# ---------------------------------------------------------------------------

_SYMBOLIC_CONTINUOUS = {
    GaussianPdf: (_P_GAUSSIAN, ("mean", "variance")),
    UniformPdf: (_P_UNIFORM, ("lo", "hi")),
    TriangularPdf: (_P_TRIANGULAR, ("lo", "mode", "hi")),
}

_SYMBOLIC_DISCRETE = {
    BernoulliPdf: (_P_BERNOULLI, ("p",)),
    BinomialPdf: (_P_BINOMIAL, ("n", "p")),
    PoissonPdf: (_P_POISSON, ("rate",)),
    GeometricPdf: (_P_GEOMETRIC, ("p",)),
}

_TAG_TO_SYMBOLIC = {
    tag: (cls, fields)
    for cls, (tag, fields) in {**_SYMBOLIC_CONTINUOUS, **_SYMBOLIC_DISCRETE}.items()
}


def _encode_interval_set(allowed: IntervalSet) -> bytes:
    parts = [struct.pack("<I", len(allowed.intervals))]
    for iv in allowed.intervals:
        flags = (1 if iv.closed_lo else 0) | (2 if iv.closed_hi else 0)
        parts.append(struct.pack("<ddB", iv.lo, iv.hi, flags))
    return b"".join(parts)


def _decode_interval_set(buf: bytes, off: int) -> Tuple[IntervalSet, int]:
    (n,) = struct.unpack_from("<I", buf, off)
    off += 4
    intervals = []
    for _ in range(n):
        lo, hi, flags = struct.unpack_from("<ddB", buf, off)
        off += 17
        intervals.append(Interval(lo, hi, bool(flags & 1), bool(flags & 2)))
    return IntervalSet(intervals), off


def encode_pdf(pdf: Optional[Pdf]) -> bytes:
    """Encode a pdf (or a NULL pdf) to bytes."""
    if pdf is None:
        return bytes([_P_NULL])

    cls = type(pdf)
    if cls in _SYMBOLIC_CONTINUOUS or cls in _SYMBOLIC_DISCRETE:
        tag, fields = (_SYMBOLIC_CONTINUOUS.get(cls) or _SYMBOLIC_DISCRETE[cls])
        params = pdf.params  # type: ignore[attr-defined]
        body = _pack_name(pdf.attrs[0]) + struct.pack(
            f"<{len(fields)}d", *(params[f] for f in fields)
        )
        return bytes([tag]) + body

    if isinstance(pdf, CategoricalPdf):
        parts = [bytes([_P_CATEGORICAL]), _pack_name(pdf.attrs[0])]
        items = list(pdf.label_items())
        parts.append(struct.pack("<I", len(items)))
        for label, p in items:
            parts.append(_pack_str(label) + struct.pack("<d", p))
        return b"".join(parts)

    if isinstance(pdf, DiscretePdf):
        values, probs = pdf.values, pdf.probs
        return (
            bytes([_P_DISCRETE])
            + _pack_name(pdf.attrs[0])
            + _pack_floats(values)
            + _pack_floats(probs)
        )

    if isinstance(pdf, HistogramPdf):
        return (
            bytes([_P_HISTOGRAM])
            + _pack_name(pdf.attrs[0])
            + _pack_floats(pdf.edges)
            + _pack_floats(pdf.masses)
        )

    if isinstance(pdf, FlooredPdf):
        return bytes([_P_FLOORED]) + _encode_interval_set(pdf.allowed) + encode_pdf(pdf.base)

    if isinstance(pdf, JointDiscretePdf):
        parts = [bytes([_P_JOINT_DISCRETE]), struct.pack("<H", len(pdf.attrs))]
        parts.extend(_pack_name(a) for a in pdf.attrs)
        items = list(pdf.items())
        parts.append(struct.pack("<I", len(items)))
        for key, p in items:
            parts.append(struct.pack(f"<{len(key)}d", *key) + struct.pack("<d", p))
        return b"".join(parts)

    if isinstance(pdf, JointGaussianPdf):
        parts = [bytes([_P_JOINT_GAUSSIAN]), struct.pack("<H", len(pdf.attrs))]
        parts.extend(_pack_name(a) for a in pdf.attrs)
        parts.append(_pack_floats(pdf.mean_vec))
        parts.append(_pack_floats(pdf.cov.reshape(-1)))
        return b"".join(parts)

    if isinstance(pdf, JointGridPdf):
        parts = [bytes([_P_JOINT_GRID]), struct.pack("<H", len(pdf.axes))]
        for axis in pdf.axes:
            if isinstance(axis, ContinuousAxis):
                parts.append(bytes([0]) + _pack_name(axis.attr) + _pack_floats(axis.edges))
            elif isinstance(axis, DiscreteAxis):
                parts.append(bytes([1]) + _pack_name(axis.attr) + _pack_floats(axis.values))
            else:  # pragma: no cover - defensive
                raise SerializationError(f"unknown axis type {type(axis).__name__}")
        parts.append(_pack_floats(pdf.masses.reshape(-1)))
        return b"".join(parts)

    if isinstance(pdf, ProductPdf):
        parts = [
            bytes([_P_PRODUCT]),
            struct.pack("<d", pdf.weight),
            struct.pack("<H", len(pdf.factors)),
        ]
        parts.extend(encode_pdf(f) for f in pdf.factors)
        return b"".join(parts)

    raise SerializationError(f"cannot serialize pdf of type {cls.__name__}")


def _name_at(buf: bytes, off: int, attr: Optional[str]) -> Tuple[str, int]:
    """The name stored at ``off``, or ``attr`` (then the stored UTF-8 is skipped)."""
    if attr is None:
        return _unpack_str(buf, off)
    return attr, off + 2 + (buf[off] | buf[off + 1] << 8)


def decode_pdf(
    buf: bytes, off: int = 0, attr: Optional[str] = None
) -> Tuple[Optional[Pdf], int]:
    """Decode a pdf, returning (pdf_or_None, next offset).

    ``attr`` names a one-attribute payload (the symbolic families,
    categorical, discrete, histogram and a floor's base) instead of the name
    it stores: a record's set already says it.  Joint and product payloads
    always keep their stored names.
    """
    tag = buf[off]
    off += 1
    if tag == _P_NULL:
        return None, off

    if tag in _TAG_TO_SYMBOLIC:
        cls, fields = _TAG_TO_SYMBOLIC[tag]
        attr, off = _name_at(buf, off, attr)
        values = struct.unpack_from(f"<{len(fields)}d", buf, off)
        off += 8 * len(fields)
        return cls(attr=attr, **dict(zip(fields, values))), off  # type: ignore[arg-type]

    if tag == _P_CATEGORICAL:
        attr, off = _name_at(buf, off, attr)
        (n,) = struct.unpack_from("<I", buf, off)
        off += 4
        pairs: Dict[str, float] = {}
        for _ in range(n):
            label, off = _unpack_str(buf, off)
            (p,) = struct.unpack_from("<d", buf, off)
            off += 8
            pairs[label] = p
        return CategoricalPdf(pairs, attr=attr), off

    if tag == _P_DISCRETE:
        attr, off = _name_at(buf, off, attr)
        values, off = _unpack_floats(buf, off)
        probs, off = _unpack_floats(buf, off)
        # Encoded values are already sorted/validated: take the fast path.
        return DiscretePdf._from_arrays(values, probs, attr), off

    if tag == _P_HISTOGRAM:
        attr, off = _name_at(buf, off, attr)
        edges, off = _unpack_floats(buf, off)
        masses, off = _unpack_floats(buf, off)
        return HistogramPdf._from_arrays(edges, masses, attr), off

    if tag == _P_FLOORED:
        allowed, off = _decode_interval_set(buf, off)
        base, off = decode_pdf(buf, off, attr)
        if base is None:
            raise SerializationError("floored pdf with NULL base")
        return FlooredPdf(base, allowed), off  # type: ignore[arg-type]

    if tag == _P_JOINT_DISCRETE:
        (k,) = struct.unpack_from("<H", buf, off)
        off += 2
        attrs = []
        for _ in range(k):
            a, off = _unpack_str(buf, off)
            attrs.append(a)
        (n,) = struct.unpack_from("<I", buf, off)
        off += 4
        table: Dict[Tuple[float, ...], float] = {}
        for _ in range(n):
            key = struct.unpack_from(f"<{k}d", buf, off)
            off += 8 * k
            (p,) = struct.unpack_from("<d", buf, off)
            off += 8
            table[key] = p
        return JointDiscretePdf(attrs, table), off

    if tag == _P_JOINT_GAUSSIAN:
        (k,) = struct.unpack_from("<H", buf, off)
        off += 2
        attrs = []
        for _ in range(k):
            a, off = _unpack_str(buf, off)
            attrs.append(a)
        mean, off = _unpack_floats(buf, off)
        cov_flat, off = _unpack_floats(buf, off)
        return JointGaussianPdf(attrs, mean, cov_flat.reshape(k, k)), off

    if tag == _P_JOINT_GRID:
        (k,) = struct.unpack_from("<H", buf, off)
        off += 2
        axes = []
        for _ in range(k):
            kind = buf[off]
            off += 1
            attr, off = _unpack_str(buf, off)
            data, off = _unpack_floats(buf, off)
            axes.append(
                ContinuousAxis(attr, data) if kind == 0 else DiscreteAxis(attr, data)
            )
        flat, off = _unpack_floats(buf, off)
        shape = tuple(a.size for a in axes)
        return JointGridPdf(tuple(axes), flat.reshape(shape)), off

    if tag == _P_PRODUCT:
        (weight,) = struct.unpack_from("<d", buf, off)
        off += 8
        (n,) = struct.unpack_from("<H", buf, off)
        off += 2
        factors = []
        for _ in range(n):
            f, off = decode_pdf(buf, off)
            if f is None:
                raise SerializationError("product pdf with NULL factor")
            factors.append(f)
        return ProductPdf(factors, weight=weight), off

    if tag in _RETIRED_TAGS:
        raise SerializationError(
            f"pdf tag {tag} is the removed {_RETIRED_TAGS[tag]} family; this library "
            "cannot decode it"
        )
    raise SerializationError(f"unknown pdf tag {tag}")


def pdf_size(pdf: Optional[Pdf]) -> int:
    """Serialized size in bytes (the storage-cost metric of Figure 5)."""
    return len(encode_pdf(pdf))


# ---------------------------------------------------------------------------
# Tuples: heap record format v6
# ---------------------------------------------------------------------------
#
# A record names each attribute once.  It opens with the tuple id and a name
# table (u16 length, then every distinct name, UTF-8, NUL-terminated); past
# it a name is its u8 index into the table:
#
#   B certain count; per column: B name, value
#   B set count; per dependency set:
#     B member count, members; B has_pdf [<d mass, B count; per: B name, <dd lo hi];
#     <I payload length; payload = encode_pdf(pdf) + lineage section
#
# A lineage section is a u16 link count, or ``_BASE_LINEAGE`` for a base
# pdf's own history, ``fresh_lineage(AncestorRef(tuple id, set))``, which
# the decoder rebuilds from the prefix.  Each link of any other history is
# <q tuple id, B count + members, B count + (base, current) name pairs.

_HEAD = struct.Struct("<qH")
_SUMMARY = struct.Struct("<dB")
_BOUNDS = struct.Struct("<Bdd")
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_LINK_ID = struct.Struct("<q")
_MAX_NAMES = 255
_BASE_LINEAGE = 0xFFFF
_BASE_MARK = _U16.pack(_BASE_LINEAGE)
_NO_LINEAGE = _U16.pack(0)


def _name_table(codes: Dict[str, int]) -> bytes:
    """The name table of ``codes`` (names in code order)."""
    if any("\x00" in name for name in codes):
        raise SerializationError("an attribute name holding NUL cannot be stored")
    blob = "".join(name + "\x00" for name in codes).encode("utf-8")
    if len(blob) > 0xFFFF:
        raise SerializationError(f"a record's names take {len(blob)} bytes; at most 65535 fit")
    return blob


def _code(codes: Dict[str, int], name: str) -> int:
    """``name``'s index in ``codes``, appended if new."""
    code = codes.get(name)
    if code is None:
        if len(codes) >= _MAX_NAMES:
            raise SerializationError(f"a record can name at most {_MAX_NAMES} attributes")
        code = codes[name] = len(codes)
    return code


@lru_cache(maxsize=1024)
def _shape(certain_keys: Tuple[str, ...], dep_keys: Tuple[FrozenSet[str], ...]):
    """What every record of one table shape shares: the name codes, the
    name table, and the coded certain columns and set headers, each in
    canonical (sorted) order."""
    codes: Dict[str, int] = {}
    certain = sorted(certain_keys)
    deps = sorted(dep_keys, key=_sorted_attrs)
    for name in certain + [a for dep in deps for a in _sorted_attrs(dep)]:
        _code(codes, name)
    return (
        codes,
        _name_table(codes),
        [(name, bytes([codes[name]])) for name in certain],
        [(dep, bytes([len(dep), *(codes[a] for a in _sorted_attrs(dep))])) for dep in deps],
    )


def _is_base_lineage(lineage: Lineage, tuple_id: int, dep: FrozenSet[str]) -> bool:
    """Whether ``lineage`` is ``fresh_lineage(AncestorRef(tuple_id, dep))``."""
    if len(lineage) != 1:
        return False
    (link,) = lineage
    ref = link.ref
    return ref.tuple_id == tuple_id and ref.attrs == dep and link.mapping == _identity_mapping(dep)


def _encode_lineage(lineage: Lineage, codes: Dict[str, int]) -> bytes:
    """A derived history, its names coded into (and added to) ``codes``."""
    if len(lineage) >= _BASE_LINEAGE:
        raise SerializationError(f"a history of {len(lineage)} links cannot be stored")
    links = sorted(
        lineage, key=lambda l: (l.ref.tuple_id, _sorted_attrs(l.ref.attrs), l.mapping)
    )
    parts = [_U16.pack(len(links))]
    for link in links:
        attrs = _sorted_attrs(link.ref.attrs)
        parts.append(_LINK_ID.pack(link.ref.tuple_id))
        parts.append(bytes([len(attrs), *(_code(codes, a) for a in attrs)]))
        pairs = [_code(codes, name) for pair in link.mapping for name in pair]
        parts.append(bytes([len(link.mapping), *pairs]))
    return b"".join(parts)


def _decode_lineage(buf: bytes, off: int, n: int, table: "_NameTable", view: "_View") -> Lineage:
    """A derived history: each link's ancestor under its stored names, its
    mapping's current names under ``view``'s."""
    names, sets, mappings = table.names, table.sets, view.mappings
    links = []
    for _ in range(n):
        (tuple_id,) = _LINK_ID.unpack_from(buf, off)
        off += 8
        codes = buf[off : off + 1 + buf[off]]
        off += len(codes)
        attrs = sets.get(codes)
        if attrs is None:
            attrs = sets[codes] = frozenset(names[c] for c in codes[1:])
        end = off + 1 + 2 * buf[off]
        pairs = buf[off + 1 : end]
        off = end
        mapping = mappings.get(pairs)
        if mapping is None:
            mapping = mappings[pairs] = view.link_mapping(pairs)
        ref = _new_tuple(AncestorRef, (tuple_id, attrs))
        links.append(_new_tuple(AncestorLink, (ref, mapping)))
    return frozenset(links)


class _NameTable:
    """One stored name table: its names, a memo of the dependency sets coded
    against it (member count + members -> frozenset), and its identity view."""

    __slots__ = ("names", "sets", "identity")

    def __init__(self, blob: bytes):
        self.names = tuple(blob.decode("utf-8").split("\x00")[:-1])
        self.sets: Dict[bytes, FrozenSet[str]] = {}
        self.identity = _View(self, None)


@lru_cache(maxsize=1024)
def _read_table(blob: bytes) -> _NameTable:
    """The name table a blob spells; every record of one table shape shares it."""
    return _NameTable(blob)


class _View:
    """A name table read under one renaming (``None``: the stored names).

    What a record decodes to under the renaming depends on its name table
    alone, so each piece is worked out once per (table, renaming): per
    dependency set its output set, its one name when it has one member,
    and its base lineage's mapping; per coded link mapping the renamed
    mapping.
    """

    __slots__ = ("names", "renames", "sets", "mappings")

    def __init__(self, table: _NameTable, renames: Optional[Dict[str, str]]):
        self.names = table.names
        self.renames = renames
        self.sets: Dict[FrozenSet[str], tuple] = {}
        self.mappings: Dict[bytes, Tuple[Tuple[str, str], ...]] = {}

    def set_info(self, dep: FrozenSet[str]) -> tuple:
        """``(output set, its one name or None, base lineage mapping)``."""
        info = self.sets.get(dep)
        if info is None:
            base = _identity_mapping(dep)
            if self.renames is None:
                out_dep, mapping = dep, base
            else:
                out_dep = frozenset(self.renames.get(a, a) for a in dep)
                mapping = renamed_mapping(base, self.renames)
            solo = next(iter(out_dep)) if len(out_dep) == 1 else None
            info = self.sets[dep] = (out_dep, solo, mapping)
        return info

    def link_mapping(self, pairs: bytes) -> Tuple[Tuple[str, str], ...]:
        """A coded link mapping, its current names renamed."""
        names = iter([self.names[c] for c in pairs])
        mapping = tuple(zip(names, names))
        return mapping if self.renames is None else renamed_mapping(mapping, self.renames)


class Renaming:
    """The names a statement reads a table's records under: ``mapping``
    takes each stored attribute name to the statement's (a FROM binding's
    ``a.k`` for ``k``; names it lacks stay).  Holds one :class:`_View` per
    name table it has read, for as long as the statement runs."""

    __slots__ = ("mapping", "_views")

    def __init__(self, mapping: Dict[str, str]):
        self.mapping = dict(mapping)
        self._views: Dict[_NameTable, _View] = {}

    def view(self, table: _NameTable) -> _View:
        view = self._views.get(table)
        if view is None:
            view = self._views[table] = _View(table, self.mapping)
        return view


class DepSummary:
    """The cheap per-dependency-set summary stored ahead of the pdf payload.

    ``mass`` is the pdf's total probability mass (the tuple's existence
    probability through this set; 1.0 for complete pdfs) and ``support``
    maps each attribute of the set to the pdf's support bounds — the same
    ``[lo, hi]`` hull the probability-threshold index keys on.  ``has_pdf``
    is False for the NULL pdf (values unknown, tuple certainly exists), in
    which case mass/support are meaningless.
    """

    __slots__ = ("attrs", "has_pdf", "mass", "support")

    def __init__(
        self,
        attrs: FrozenSet[str],
        has_pdf: bool,
        mass: float,
        support: Dict[str, Tuple[float, float]],
    ):
        self.attrs = attrs
        self.has_pdf = has_pdf
        self.mass = mass
        self.support = support


def dep_summary(dep: FrozenSet[str], pdf: Optional[Pdf]) -> DepSummary:
    """Compute the prefix summary of one dependency set's pdf."""
    if pdf is None:
        return DepSummary(dep, False, 0.0, {})
    return DepSummary(dep, True, float(pdf.mass()), dict(pdf.support()))


class TuplePrefix:
    """The decoded fixed prefix of a stored tuple: everything but the pdfs.

    Holds the certain values (under the stored names) and, per dependency
    set, the offset of its undecoded pdf/lineage payload.  :attr:`deps`
    holds the set summaries if :func:`decode_prefix` read them in its walk
    and walks the prefix again for them otherwise.  :meth:`complete`
    finishes the decode for tuples that survive pruning.
    """

    __slots__ = (
        "buf", "tuple_id", "names", "certain", "_payloads", "_table", "_deps", "_start", "end"
    )

    def __init__(self, buf, start, tuple_id, table, certain, payloads, end, deps):
        self.buf = buf
        self._start = start
        self.tuple_id = tuple_id
        self.names = table.names  # the record's name table
        self._table = table
        self.certain = certain
        self._payloads = payloads  # List[(set, payload offset, payload length)]
        self._deps = deps
        self.end = end

    @property
    def deps(self) -> List[DepSummary]:
        """Each set's :class:`DepSummary` (mass and support), stored names."""
        if self._deps is None:
            self._deps = decode_prefix(self.buf, self._start, summaries=True)._deps
        return self._deps

    def complete(
        self, read_sets: Optional[frozenset] = None, renaming: Optional[Renaming] = None
    ) -> ProbabilisticTuple:
        """Decode the pdf/lineage payloads of ``read_sets`` (``None``: every
        dependency set) and build the tuple; other payloads are never parsed.

        Under a ``renaming`` the tuple comes out in its names — certain
        columns, sets, pdfs and lineage mappings — exactly as if the stored
        tuple were renamed afterwards; ``read_sets`` holds stored sets.
        """
        buf, tuple_id = self.buf, self.tuple_id
        table = self._table
        view = table.identity if renaming is None else renaming.view(table)
        renames = view.renames
        if renames is None:
            certain = dict(self.certain)
        else:
            get = renames.get
            certain = {get(k, k): v for k, v in self.certain.items()}
        set_info, known = view.set_info, view.sets
        pdfs: Dict[FrozenSet[str], Optional[Pdf]] = {}
        lineage: Dict[FrozenSet[str], Lineage] = {}
        for dep, off, _length in self._payloads:
            if read_sets is not None and dep not in read_sets:
                continue
            out_dep, solo, base_mapping = known.get(dep) or set_info(dep)
            pdf, off = decode_pdf(buf, off, solo)
            if renames is not None and pdf is not None and pdf.attrs[0] != solo:
                pdf = pdf.rename(renames)  # a joint or product payload
            pdfs[out_dep] = pdf
            (n,) = _U16.unpack_from(buf, off)
            if n == _BASE_LINEAGE:
                lineage[out_dep] = fresh_lineage(
                    _new_tuple(AncestorRef, (tuple_id, dep)), base_mapping
                )
            else:
                lineage[out_dep] = _decode_lineage(buf, off + 2, n, table, view)
        return ProbabilisticTuple._adopt(tuple_id, certain, pdfs, lineage)


def encode_record(
    t: ProbabilisticTuple, store_lineage: bool = True
) -> Tuple[bytes, List[DepSummary]]:
    """Encode a probabilistic tuple (certain values + pdfs + histories).

    The record is laid out as a cheap fixed prefix — tuple id, name table,
    certain values, and a per-dependency-set (mass, support-bounds) summary
    — followed by the pdf/lineage payloads, each preceded by its byte length
    so :func:`decode_prefix` can skip payloads it does not need.  The
    summaries written into the prefix are returned beside the bytes: they
    are what the page synopsis folds in, computed once.

    ``store_lineage=False`` omits the history section — the storage half of
    the Figure 6 "without histories" baseline.
    """
    shared, table, certain, deps = _shape(tuple(t.certain), tuple(t.pdfs))
    codes = shared
    values = t.certain
    parts = [b"", bytes([len(certain)])]
    for name, code in certain:
        parts.append(code)
        parts.append(encode_value(values[name]))
    parts.append(bytes([len(deps)]))
    summaries = []
    for dep, header in deps:
        pdf = t.pdfs[dep]
        summary = dep_summary(dep, pdf)
        summaries.append(summary)
        parts.append(header)
        if pdf is None:
            parts.append(b"\x00")
        else:
            support = summary.support
            parts.append(b"\x01" + _SUMMARY.pack(summary.mass, len(support)))
            for name in sorted(support):  # a pdf's attributes are its set's
                parts.append(_BOUNDS.pack(shared[name], *support[name]))
        lineage = t.lineage.get(dep) if store_lineage else None
        if not lineage:
            tail = _NO_LINEAGE
        elif _is_base_lineage(lineage, t.tuple_id, dep):
            tail = _BASE_MARK
        else:
            codes = dict(codes) if codes is shared else codes
            tail = _encode_lineage(lineage, codes)
        payload = encode_pdf(pdf)
        parts.append(_U32.pack(len(payload) + len(tail)))
        parts.append(payload)
        parts.append(tail)
    if codes is not shared:
        table = _name_table(codes)
    parts[0] = _HEAD.pack(t.tuple_id, len(table)) + table
    return b"".join(parts), summaries


def encode_tuple(t: ProbabilisticTuple, store_lineage: bool = True) -> bytes:
    """The record bytes of :func:`encode_record`."""
    return encode_record(t, store_lineage)[0]


def decode_tuple(buf: bytes, off: int = 0) -> Tuple[ProbabilisticTuple, int]:
    """Decode a whole probabilistic tuple, returning (tuple, next offset)."""
    prefix = decode_prefix(buf, off)
    return prefix.complete(), prefix.end


def record_tuple_id(buf: bytes, off: int = 0) -> int:
    """The tuple id of a record, read without decoding anything else."""
    return _HEAD.unpack_from(buf, off)[0]


def decode_prefix(buf: bytes, off: int = 0, summaries: bool = False) -> TuplePrefix:
    """Decode only the fixed prefix, skipping every pdf/lineage payload.

    Every record decodes in two steps: certain values and each set's
    payload offset come out here, and the (much larger) pdf payloads stay
    undecoded until :meth:`TuplePrefix.complete`, which a scan calls only
    for records its pruner admits.  The summaries
    (:attr:`TuplePrefix.deps`) are read in the same walk when ``summaries``
    is true — for a pruner with an uncertain test, a synopsis rebuild or a
    transaction undo — and otherwise only if asked for.
    """
    start = off
    tuple_id, n = _HEAD.unpack_from(buf, off)
    off += 10
    table = _read_table(buf[off : off + n])
    names, sets = table.names, table.sets
    off += n
    certain = {}
    count = buf[off]
    off += 1
    for _ in range(count):
        name = names[buf[off]]
        certain[name], off = decode_value(buf, off + 1)
    payloads = []
    deps = [] if summaries else None
    count = buf[off]
    off += 1
    for _ in range(count):
        codes = buf[off : off + 1 + buf[off]]
        off += len(codes)
        dep = sets.get(codes)
        if dep is None:
            dep = sets[codes] = frozenset(names[c] for c in codes[1:])
        if not buf[off]:
            off += 1
            if deps is not None:
                deps.append(DepSummary(dep, False, 0.0, {}))
        elif deps is None:
            off += 10 + 17 * buf[off + 9]  # <d mass, B n, n x (B, <d, <d) bounds
        else:
            mass, n_sup = _SUMMARY.unpack_from(buf, off + 1)
            off += 10
            support = {}
            for _ in range(n_sup):
                code, lo, hi = _BOUNDS.unpack_from(buf, off)
                support[names[code]] = (lo, hi)
                off += 17
            deps.append(DepSummary(dep, True, mass, support))
        (length,) = _U32.unpack_from(buf, off)
        off += 4
        payloads.append((dep, off, length))
        off += length
    return TuplePrefix(buf, start, tuple_id, table, certain, payloads, off, deps)
