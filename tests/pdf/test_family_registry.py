"""The symbolic families are registered everywhere or nowhere.

A family lives in five places: the parser's literal table, the
serializer's tag map, ``repro.pdf.__all__``, the "Distribution literals"
table of docs/SQL.md and — for a continuous family — the kernel's
parameter gather with its bitwise kernel-vs-scalar case in
``test_kernels.py``.  These tests fail when a family is added to (or
removed from) only some of them.
"""

import inspect
import os
import re

import repro.pdf
from repro.engine.sql.parser import _SIMPLE_PDFS
from repro.engine.storage.serialize import _TAG_TO_SYMBOLIC
from repro.pdf.continuous import ContinuousPdf
from repro.pdf.discrete import SymbolicDiscretePdf
from repro.pdf.kernels import FAMILY_PARAMS

from . import test_kernels

SQL_MD = os.path.join(os.path.dirname(__file__), "..", "..", "docs", "SQL.md")

#: literals with a structured body rather than a family's parameter list
_STRUCTURED = {"DISCRETE", "CATEGORICAL", "HISTOGRAM", "JOINT_GAUSSIAN", "JOINT_DISCRETE"}


def _concrete_subclasses(base):
    out = set()
    for cls in base.__subclasses__():
        if not inspect.isabstract(cls):
            out.add(cls)
        out |= _concrete_subclasses(cls)
    return out


FAMILIES = _concrete_subclasses(ContinuousPdf) | _concrete_subclasses(SymbolicDiscretePdf)


def _documented_literals():
    text = open(SQL_MD).read()
    table = text.split("## Distribution literals", 1)[1].split("\n## ", 1)[0]
    rows = [line for line in table.splitlines() if line.startswith("| `")]
    first_cells = [row.split("|")[1] for row in rows]
    return {name for cell in first_cells for name in re.findall(r"`([A-Z_]+)\(", cell)}


def test_parser_serializer_and_exports_name_the_same_families():
    parsed = {cls for cls, _arity in _SIMPLE_PDFS.values()}
    stored = {cls for cls, _fields in _TAG_TO_SYMBOLIC.values()}
    exported = {getattr(repro.pdf, name) for name in repro.pdf.__all__} & FAMILIES
    assert parsed == stored == exported == FAMILIES


def test_docs_table_lists_every_literal_keyword():
    assert _documented_literals() - _STRUCTURED == set(_SIMPLE_PDFS)


def test_every_continuous_family_is_swept_and_tested_bitwise():
    continuous = _concrete_subclasses(ContinuousPdf)
    assert continuous == set(FAMILY_PARAMS)
    for cls in continuous:
        case = f"test_{cls.symbol.lower()}_kernel_property"
        assert hasattr(test_kernels, case), f"{cls.__name__} has no {case} in test_kernels.py"
