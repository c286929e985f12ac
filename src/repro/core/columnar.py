"""Struct-of-arrays column views over vectors of probabilistic tuples.

A :class:`ColumnarSegment` snapshots an ordered tuple list and lazily
decomposes it, per dependency set, into an :class:`AttrColumn`: for each
symbolic pdf family present, a row-index vector plus that family's frozen
parameter arrays (``mu``/``sigma``, ``lo``/``hi``, ``rate``, …) gathered
once via :data:`repro.pdf.kernels.FAMILY_PARAMS`.  Selection predicates and
PROB threshold sweeps then run as fused ufunc kernels directly over the
parameter arrays — no per-tuple attribute lookups, no type dispatch, and no
pdf-op-cache fingerprinting in the hot loop.

Rows whose pdf is ``None`` (NULL) and rows of non-kernelized types
(``FlooredPdf``, discrete materializations, mixtures, …) are recorded as
explicit index vectors so consumers can route them through the reference
tuple-at-a-time path; every consumer asserts bitwise equivalence with that
path, so a fallback is a performance event, never a semantic one.

Segments are immutable snapshots: ``tuples`` is copied at construction, so
a caller that goes on mutating its list cannot skew the row ↔ parameter
alignment.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from ..pdf.kernels import FAMILY_PARAMS

__all__ = ["AttrColumn", "ColumnarSegment"]

#: sentinel distinguishing "dependency set absent" from a NULL pdf
_MISSING = object()


class AttrColumn:
    """One dependency set of a tuple span, decomposed per pdf family.

    ``groups`` is a list of ``(family, rows, params, pdfs, lineages)`` where
    ``rows`` is an ascending ``np.intp`` index vector into the span,
    ``params`` the family's gathered parameter arrays (aligned with
    ``rows``), ``pdfs`` the original pdf objects (kept so survivors can be
    rebuilt by reference without re-materializing anything), and
    ``lineages`` the rows' history Λ for this dependency set — gathered once
    at build time so selection survivors don't pay a per-row dict lookup.
    ``null_rows`` are NULL pdfs; ``other_rows`` everything the kernels
    cannot sweep.
    """

    __slots__ = ("n", "groups", "null_rows", "other_rows")

    def __init__(
        self,
        n: int,
        groups: List[Tuple[type, np.ndarray, Tuple[np.ndarray, ...], list, list]],
        null_rows: np.ndarray,
        other_rows: np.ndarray,
    ):
        self.n = n
        self.groups = groups
        self.null_rows = null_rows
        self.other_rows = other_rows

    @property
    def kernel_rows(self) -> int:
        return sum(len(g[1]) for g in self.groups)


def _build_column(tuples: Sequence, dep: FrozenSet[str]) -> AttrColumn:
    by_family: Dict[type, Tuple[List[int], list, list]] = {}
    null_rows: List[int] = []
    other_rows: List[int] = []
    for i, t in enumerate(tuples):
        pdf = t.pdfs.get(dep, _MISSING)
        if pdf is None:
            null_rows.append(i)
            continue
        entry = by_family.get(type(pdf))
        if entry is not None:
            entry[0].append(i)
            entry[1].append(pdf)
            entry[2].append(t.lineage[dep])
        elif type(pdf) in FAMILY_PARAMS:
            by_family[type(pdf)] = ([i], [pdf], [t.lineage[dep]])
        else:
            # includes _MISSING: the fallback path raises the same KeyError
            # the scalar path would, instead of silently dropping the row
            other_rows.append(i)
    groups = [
        (fam, np.asarray(rows, dtype=np.intp), FAMILY_PARAMS[fam](pdfs), pdfs, lins)
        for fam, (rows, pdfs, lins) in by_family.items()
    ]
    return AttrColumn(
        len(tuples),
        groups,
        np.asarray(null_rows, dtype=np.intp),
        np.asarray(other_rows, dtype=np.intp),
    )


class ColumnarSegment:
    """A snapshot of an ordered tuple vector with lazily built columns.

    Columns are built on first use and cached per dependency set, so every
    operator that sweeps one batch shares one gather.
    """

    __slots__ = ("tuples", "n", "_columns")

    def __init__(self, tuples: Sequence):
        self.tuples = list(tuples)
        self.n = len(self.tuples)
        self._columns: Dict[FrozenSet[str], AttrColumn] = {}

    def column(self, dep: FrozenSet[str]) -> AttrColumn:
        col = self._columns.get(dep)
        if col is None:
            col = self._columns[dep] = _build_column(self.tuples, dep)
        return col
