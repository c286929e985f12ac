"""Streaming relational operators: filter, project, joins, threshold, sort, limit.

Each probabilistic decision is delegated to the core plans
(:class:`~repro.core.select.SelectionPlan`,
:class:`~repro.core.project.ProjectionPlan`,
:func:`~repro.core.threshold.probability_of`), so the executor and the
in-memory model cannot diverge semantically.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from operator import itemgetter
from typing import (
    Any, Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from ...core.history import AncestorLink, HistoryStore
from ...core.model import (
    DEFAULT_CONFIG,
    Column,
    DataType,
    ModelConfig,
    ProbabilisticSchema,
    ProbabilisticTuple,
)
from ...core.operations import cached_marginalize, cached_mass
from ...core.predicates import Comparison, Predicate, TruePredicate
from ...core.project import ProjectionPlan
from ...core.select import SelectionPlan
from ...core.threshold import columnar_probability_of, probability_of
from ...errors import QueryError, SchemaError
from .base import Operator
from .batch import DEFAULT_BATCH_SIZE, TupleBatch, batched, flatten
from ..storage.serialize import decode_tuple, encode_tuple
from .spill import (
    SPILL_STATS,
    ExternalSorter,
    SpillFile,
    SpillManager,
    buffer_share,
    dump_key,
    estimate_frame_bytes,
    estimate_tuple_bytes,
    keyed,
    readers,
)

__all__ = [
    "Filter",
    "Project",
    "Scalarize",
    "RenameOp",
    "NestedLoopJoin",
    "HashJoin",
    "ThresholdFilter",
    "ProbFilter",
    "Sort",
    "SortByProbability",
    "Limit",
]

_THRESH_OPS = {
    ">": operator.gt,
    ">=": operator.ge,
    "<": operator.lt,
    "<=": operator.le,
}


def _kernel_extras(plan: SelectionPlan) -> List[str]:
    """EXPLAIN ANALYZE: rows a plan's kernels swept vs. rows that fell back."""
    stats = plan.columnar_stats
    kernel, fallback = stats["kernel_rows"], stats["fallback_rows"]
    if not kernel and not fallback:
        return []
    extras = [f"columnar_rows={kernel}/{kernel + fallback}"]
    if stats["families"]:
        fams = ",".join(
            f"{name}:{count}" for name, count in sorted(stats["families"].items())
        )
        extras.append(f"kernels={fams}")
    return extras


class Filter(Operator):
    """σ over a stream, via the shared SelectionPlan."""

    def __init__(
        self,
        child: Operator,
        predicate: Predicate,
        store: HistoryStore,
        config: ModelConfig = DEFAULT_CONFIG,
    ):
        self.child = child
        self.predicate = predicate
        self.store = store
        self.plan = SelectionPlan(child.output_schema, predicate, config)
        self.output_schema = self.plan.output_schema

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        for batch in self.child.batches(size):
            results = self.plan.apply_columnar(batch, self.store)
            kept = [r for r in results if r is not None]
            if kept:
                yield TupleBatch(kept)

    def children(self) -> List[Operator]:
        return [self.child]

    def explain_extras(self) -> List[str]:
        return _kernel_extras(self.plan)

    def label(self) -> str:
        return f"Filter({self.predicate!r})"


class Project(Operator):
    """Π over a stream (conservative phantom policy — see ProjectionPlan).

    The exact rule is the planner's read sets (``sql.planner._read_sets``):
    a scan below never emits an unnamed set that cannot be partial.
    """

    def __init__(
        self,
        child: Operator,
        attrs: Sequence[str],
        config: ModelConfig = DEFAULT_CONFIG,
    ):
        self.child = child
        self.attrs = list(attrs)
        self.plan = ProjectionPlan(child.output_schema, attrs, partial_sets=None, config=config)
        self.output_schema = self.plan.output_schema
        # A projection that keeps every visible attribute in order and every
        # dependency set intact rebuilds each tuple with the same contents;
        # such batches pass through untouched, a scan's segment included.
        self._identity = self.attrs == list(
            child.output_schema.visible_attrs
        ) and all(action == "keep" for _, action in self.plan._actions)

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        if self._identity:
            yield from self.child.batches(size)
            return
        apply = self.plan.apply
        for batch in self.child.batches(size):
            yield TupleBatch([apply(t) for t in batch.tuples])

    def children(self) -> List[Operator]:
        return [self.child]

    def label(self) -> str:
        return f"Project({', '.join(self.attrs)})"


def _merge_schemas(
    left: ProbabilisticSchema, right: ProbabilisticSchema
) -> Tuple[ProbabilisticSchema, Dict[str, str]]:
    """Combined cross-product schema, with colliding phantoms renamed on the right."""
    left_attrs = set(left.visible_attrs) | left.phantom_attrs
    right_attrs = set(right.visible_attrs) | right.phantom_attrs
    visible_overlap = set(left.visible_attrs) & set(right.visible_attrs)
    if visible_overlap:
        raise SchemaError(
            f"join attribute collision on {sorted(visible_overlap)}; alias one side"
        )
    renames: Dict[str, str] = {}
    overlap = (left_attrs & right_attrs) - visible_overlap
    taken = left_attrs | right_attrs
    for attr in sorted(overlap):
        if attr not in right.phantom_attrs:
            raise SchemaError(
                f"attribute {attr!r} is phantom on the left but visible on the "
                "right; alias one side"
            )
        i = 1
        while f"{attr}#{i}" in taken:
            i += 1
        renames[attr] = f"{attr}#{i}"
        taken.add(f"{attr}#{i}")
    renamed_right = right.renamed(renames) if renames else right
    merged = ProbabilisticSchema(
        list(left.columns) + list(renamed_right.columns),
        list(left.dependency) + list(renamed_right.dependency),
    )
    return merged, renames


class _TupleRenamer:
    """Renames attributes throughout one operator's tuple stream.

    What a rename makes of a dependency set, or of an ancestor link's
    mapping, depends on the operator's renames alone; both are worked out
    once per distinct value here, not once per tuple.
    """

    def __init__(self, renames: Dict[str, str]):
        self.renames = renames
        self._deps: Dict[FrozenSet[str], FrozenSet[str]] = {}
        self._mappings: Dict[tuple, tuple] = {}

    def __call__(self, t: ProbabilisticTuple) -> ProbabilisticTuple:
        renames = self.renames
        if not renames:
            return t
        certain = {renames.get(k, k): v for k, v in t.certain.items()}
        pdfs = {}
        lineage = {}
        for dep, pdf in t.pdfs.items():
            new_dep = self._deps.get(dep)
            if new_dep is None:
                new_dep = self._deps[dep] = frozenset(renames.get(a, a) for a in dep)
            pdfs[new_dep] = None if pdf is None else pdf.rename(renames)
            lineage[new_dep] = frozenset(
                [self._link(link) for link in t.lineage.get(dep, ())]
            )
        return ProbabilisticTuple._adopt(t.tuple_id, certain, pdfs, lineage)

    def _link(self, link: AncestorLink) -> AncestorLink:
        mapping = self._mappings.get(link.mapping)
        if mapping is None:
            mapping = self._mappings[link.mapping] = link.renamed(self.renames).mapping
        return AncestorLink(link.ref, mapping)


def _merge_pair(
    tl: ProbabilisticTuple, tr: ProbabilisticTuple, tuple_id: int
) -> ProbabilisticTuple:
    certain = dict(tl.certain)
    certain.update(tr.certain)
    pdfs = dict(tl.pdfs)
    pdfs.update(tr.pdfs)
    lineage = dict(tl.lineage)
    lineage.update(tr.lineage)
    # The dicts are freshly built and never aliased: skip __init__'s
    # defensive copies (this is the densest allocation site in every join).
    return ProbabilisticTuple._adopt(tuple_id, certain, pdfs, lineage)


def _select_batches(
    plan: SelectionPlan, store: HistoryStore, source, size: int
) -> Iterator[TupleBatch]:
    """Run a SelectionPlan over a tuple stream, ``size`` tuples per kernel sweep."""
    for batch in batched(source, size):
        results = plan.apply_columnar(batch, store)
        kept = [r for r in results if r is not None]
        if kept:
            yield TupleBatch(kept)


def _load_within(
    stream: Iterator[Any], work_mem: Optional[int], size: Callable[[Any], int]
) -> Tuple[List[Any], bool]:
    """Items pulled from ``stream`` until their ``size`` exceeds ``work_mem`` bytes.

    Returns ``(items, overflow)``; on overflow ``stream`` still holds the
    rest.  A budget of ``None`` / ``0`` drains the stream.
    """
    items: List[Any] = []
    total = 0
    for item in stream:
        items.append(item)
        if work_mem:
            total += size(item)
            if total > work_mem:
                return items, True
    return items, False


_MASK64 = (1 << 64) - 1


def _mix64(h: int) -> int:
    """The splitmix64 finaliser of ``h`` (a Python ``hash``): every output
    bit depends on every input bit, so any 4 bits of it spread keys evenly."""
    z = (h + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _partition_frames(
    rows: Iterable[ProbabilisticTuple], attr: str
) -> Iterator[Tuple[int, object, bytes, bytes]]:
    """``(seq, key, key bytes, row bytes)`` for each row whose key ``attr`` can
    match (not NULL, not NaN); ``seq`` is the row's position in ``rows``.
    This is the one place a Grace join encodes an input row."""
    for seq, t in enumerate(rows):
        key = t.certain.get(attr)
        if key is not None and key == key:
            yield seq, key, dump_key(key), encode_tuple(t)


class NestedLoopJoin(Operator):
    """⋈ via nested loops: the right input is materialised once."""

    def __init__(
        self,
        left: Operator,
        right: Operator,
        predicate: Predicate,
        store: HistoryStore,
        config: ModelConfig = DEFAULT_CONFIG,
    ):
        self.left = left
        self.right = right
        self.predicate = predicate
        self.store = store
        self.config = config
        merged, self._renames = _merge_schemas(left.output_schema, right.output_schema)
        self._rename = _TupleRenamer(self._renames)
        self.plan = SelectionPlan(merged, predicate, config)
        self.output_schema = self.plan.output_schema

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        inner = [
            self._rename(t)
            for t in flatten(self.right.batches(size))
        ]

        def pairs() -> Iterator[ProbabilisticTuple]:
            for batch in self.left.batches(size):
                for tl in batch.tuples:
                    for tr in inner:
                        yield _merge_pair(tl, tr, self.store.new_tuple_id())

        yield from _select_batches(self.plan, self.store, pairs(), size)

    def children(self) -> List[Operator]:
        return [self.left, self.right]

    def explain_extras(self) -> List[str]:
        return _kernel_extras(self.plan)

    def label(self) -> str:
        return f"NestedLoopJoin({self.predicate!r})"


class HashJoin(Operator):
    """Equi-join on *certain* key columns: hash build + probe.

    The full predicate (which may include additional probabilistic terms)
    is still applied through the SelectionPlan after the hash pre-filter —
    the hash only prunes pairs whose certain keys cannot match.

    Keys are the Python values in ``t.certain`` and match as dict keys do
    (``1 == 1.0 == True``, ``0.0 == -0.0``, TEXT, ints of any magnitude):
    the renamed right input is bucketed by key in scan order, each left
    row looks its key up, and matched pairs take consecutive tuple ids in
    emission order.  NULL and NaN keys match nothing — a dict would find
    one NaN *object* by identity, but ``nan = nan`` is false.

    Past ``work_mem`` the join runs Grace-style on bytes: each input row
    with a matchable key is encoded once, into a partition frame that
    carries its pickled key beside the row bytes; a leaf partition matches
    on those keys without decoding a tuple and writes each match as a pair
    frame of the two rows' bytes; only the final merge decodes, two rows
    per match.
    """

    def __init__(
        self,
        left: Operator,
        right: Operator,
        left_key: str,
        right_key: str,
        predicate: Predicate,
        store: HistoryStore,
        config: ModelConfig = DEFAULT_CONFIG,
    ):
        for schema, key, side in (
            (left.output_schema, left_key, "left"),
            (right.output_schema, right_key, "right"),
        ):
            if not schema.has_column(key) or schema.is_uncertain(key):
                raise QueryError(
                    f"hash join {side} key {key!r} must be a certain column"
                )
        self.left, self.right = left, right
        self.left_key, self.right_key = left_key, right_key
        self.predicate = predicate
        self.store = store
        self.config = config
        merged, self._renames = _merge_schemas(left.output_schema, right.output_schema)
        self._rename = _TupleRenamer(self._renames)
        #: the right key's name in the renamed build side
        self._probe_key = self._renames.get(right_key, right_key)
        self.plan = SelectionPlan(merged, predicate, config)
        self.output_schema = self.plan.output_schema
        #: EXPLAIN ANALYZE: leaf partitions processed by the Grace spill path
        self.spill_partitions = 0

    def _trivial_match_predicate(self) -> bool:
        """Whether a key-matched pair always survives the SelectionPlan.

        True when the plan is certain-only and the predicate is exactly the
        join's own key equality (or TRUE): both keys of a matched pair are
        non-null and equal under Python ``==`` (:meth:`_matches` buckets no
        NaN), so ``apply`` would merely rewrap the pair — the hot path
        skips it entirely.
        """
        if not self.plan.certain_only:
            return False
        p = self.predicate
        if isinstance(p, TruePredicate):
            return True
        return (
            isinstance(p, Comparison)
            and p.op == "="
            and p.is_column_comparison
            and {p.left, p.right.name} == {self.left_key, self.right_key}
        )

    @staticmethod
    def _matches(
        inner: Iterable[Tuple[object, Any]],
        left: Iterable[Tuple[int, object, Any]],
    ) -> Iterator[Tuple[int, Any, Any]]:
        """The one matching body: ``(seq, left row, right row)`` per key match.

        ``inner`` is the renamed build side as ``(key, row)`` pairs, ``left``
        the probe side as ``(seq, key, row)``; the sequence number comes back
        with a row's matches (the Grace merge orders by it).  Rows are opaque
        here — tuples in memory, record bytes in a Grace leaf.  Matches come
        out in probe order, and per probe row in build order.
        """
        buckets: Dict[object, List[Any]] = {}
        for key, row in inner:
            if key is not None and key == key:  # NULL and NaN match nothing
                buckets.setdefault(key, []).append(row)
        for seq, key, row in left:
            for match in buckets.get(key, ()):
                yield seq, row, match

    def _emit(self, merged: Iterator[ProbabilisticTuple], size: int) -> Iterator[TupleBatch]:
        """Key-matched pairs to output batches, through the plan unless it is trivial."""
        if self._trivial_match_predicate():
            return batched(merged, size)
        return _select_batches(self.plan, self.store, merged, size)

    #: Grace fan-out per partitioning pass (hash bits per level) and maximum
    #: recursion depth.
    _GRACE_BITS = 4
    _GRACE_FANOUT = 1 << _GRACE_BITS
    _GRACE_MAX_LEVEL = 6

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        """Join in memory while the build side fits ``work_mem``, else Grace.

        The build (right) side streams into memory until it exceeds
        ``work_mem`` bytes — never, when the budget is ``None`` / ``0``; if
        it fits, :meth:`_matches` probes it with the left input directly.
        Otherwise both sides hash-partition to disk on the join key, as
        ``(seq, key, row bytes)`` frames; equal keys land in the same
        partition, so every match for a left row lives in exactly one
        partition.  Each partition joins independently on the frames' keys,
        writing each match as a ``(left seq, left bytes, right bytes)`` pair
        frame; merging the pair files by left sequence restores the exact
        pair order of the in-memory join — matches for one left row stay in
        build-insertion order because they are consecutive in one file —
        and tuple ids are assigned sequentially at merge time, so ids,
        order, and contents do not depend on the budget.
        """
        work_mem = self.config.work_mem
        right_stream = flatten(self.right.batches(size))
        if self._renames:  # only a phantom collision renames the build side
            right_stream = map(self._rename, right_stream)
        inner, overflow = _load_within(right_stream, work_mem, estimate_tuple_bytes)
        left_rows = flatten(self.left.batches(size))
        if not overflow:
            new_id = self.store.new_tuple_id
            probe_key, left_key = self._probe_key, self.left_key
            matches = self._matches(
                ((t.certain.get(probe_key), t) for t in inner),
                ((seq, t.certain.get(left_key), t) for seq, t in enumerate(left_rows)),
            )
            yield from self._emit(
                (_merge_pair(tl, tr, new_id()) for _seq, tl, tr in matches), size
            )
            return

        with SpillManager(self.config.spill_dir, label="hashjoin") as mgr:
            rparts = self._partition(
                mgr, "right", 0,
                _partition_frames(itertools.chain(inner, right_stream), self._probe_key),
            )
            del inner
            lparts = self._partition(
                mgr, "left", 0, _partition_frames(left_rows, self.left_key)
            )
            pair_files: List[SpillFile] = []
            self._join_partitions(mgr, rparts, lparts, 1, pair_files, work_mem)
            SPILL_STATS.on_join_spill(self.spill_partitions)

            def merged_stream() -> Iterator[ProbabilisticTuple]:
                new_id = self.store.new_tuple_id
                pairs = heapq.merge(*readers(pair_files, work_mem), key=itemgetter(0))
                for _lseq, left, right in pairs:
                    yield _merge_pair(decode_tuple(left)[0], decode_tuple(right)[0], new_id())

            yield from self._emit(merged_stream(), size)

    def _partition(self, mgr, side: str, level: int, frames) -> List[Optional[SpillFile]]:
        """Hash ``(seq, key, key bytes, row bytes)`` frames into finished
        partition files: level L takes bits 4L..4L+3 of the key's mixed
        hash, so each recursion splits a partition on bits the levels above
        never looked at.  File order keeps input order; a partition no frame
        lands in has no file (``None``)."""
        fanout = self._GRACE_FANOUT
        shift = level * self._GRACE_BITS
        parts: List[Optional[SpillFile]] = [None] * fanout
        for seq, key, key_bytes, row in frames:
            i = (_mix64(hash(key)) >> shift) % fanout
            part = parts[i]
            if part is None:
                part = parts[i] = mgr.create_file(
                    f"{side}{level}x{i}", buffer_share(self.config.work_mem, fanout)
                )
            part.append(seq, key_bytes, row)
        for part in parts:
            if part is not None:
                part.finish()
        return parts

    def _join_partitions(self, mgr, rparts, lparts, level, pair_files, work_mem) -> None:
        """Join each partition that holds rows on both sides (a partition
        with rows on one side joins to nothing; it is not a leaf in
        ``spill_partitions``)."""
        for rfile, lfile in zip(rparts, lparts):
            if rfile is not None and lfile is not None:
                self._join_partition(mgr, rfile, lfile, level, pair_files, work_mem)

    def _join_partition(self, mgr, rfile, lfile, level, pair_files, work_mem) -> None:
        """Join one partition on its frames' keys, recursing on build-side overflow."""
        share = buffer_share(work_mem, 2)  # the read buffer of each of its two files
        frames = rfile.read(share)
        # Past the deepest level a partition joins in memory whatever its size.
        budget = work_mem if level < self._GRACE_MAX_LEVEL else None
        loaded, overflow = _load_within(frames, budget, estimate_frame_bytes)
        if overflow:
            # Recurse: re-partition both sides' frames as they are (nothing
            # is re-encoded).  File order within each sub-partition
            # preserves the parent order, so per-key match order is unchanged.
            sub_r = self._partition(
                mgr, "right", level, keyed(itertools.chain(loaded, frames))
            )
            sub_l = self._partition(mgr, "left", level, keyed(lfile.read(share)))
            self._join_partitions(mgr, sub_r, sub_l, level + 1, pair_files, work_mem)
            return

        self.spill_partitions += 1
        pf = None
        matches = self._matches(
            ((key, row) for _seq, key, _key_bytes, row in keyed(loaded)),
            ((seq, key, row) for seq, key, _key_bytes, row in keyed(lfile.read(share))),
        )
        for lseq, left, right in matches:
            if pf is None:
                pf = mgr.create_file(f"pairs{level}", buffer_share(work_mem, 1))
                pair_files.append(pf)
            pf.append(lseq, left, right)  # ids are drawn at merge time
        if pf is not None:
            pf.finish()

    def children(self) -> List[Operator]:
        return [self.left, self.right]

    def explain_extras(self) -> List[str]:
        extras = []
        if self.spill_partitions:
            extras.append(f"spill_partitions={self.spill_partitions}")
        return extras + _kernel_extras(self.plan)

    def label(self) -> str:
        return f"HashJoin({self.left_key} = {self.right_key}, {self.predicate!r})"


class Scalarize(Operator):
    """Per-row scalarisation of pdf columns: MEAN / VARIANCE / MASS.

    Appends certain REAL columns computed from each tuple's marginal pdf:
    ``mean`` and ``variance`` are conditional on existence, ``mass`` is the
    (unconditional) probability that the attribute's dependency set exists.
    NULL pdfs scalarise to NULL.
    """

    #: (spec func name) -> callable(marginal UnivariatePdf) -> float
    FUNCS = {
        "mean": lambda pdf: pdf.mean(),
        "variance": lambda pdf: pdf.variance(),
        "mass": cached_mass,
    }

    def __init__(self, child: Operator, items: Sequence[Tuple[str, str, str]]):
        """``items``: (func, source attr, output name) triples."""
        if not items:
            raise QueryError("Scalarize needs at least one item")
        self.child = child
        self.items = list(items)
        schema = child.output_schema
        taken = set(schema.visible_attrs) | schema.phantom_attrs
        columns = list(schema.columns)
        for func, attr, name in self.items:
            if func not in self.FUNCS:
                raise QueryError(f"unknown scalar function {func!r}")
            if not schema.has_column(attr):
                raise QueryError(f"unknown column {attr!r}")
            if not schema.is_uncertain(attr):
                raise QueryError(
                    f"{func.upper()}({attr}) needs an uncertain column; "
                    f"{attr!r} is certain"
                )
            if name in taken:
                raise QueryError(f"output column {name!r} already exists")
            taken.add(name)
            columns.append(Column(name, DataType.REAL))
        self.output_schema = ProbabilisticSchema(columns, schema.dependency)

    def _scalarize(self, t: ProbabilisticTuple) -> ProbabilisticTuple:
        certain = dict(t.certain)
        for func, attr, name in self.items:
            pdf = t.pdf_of_attr(attr)
            if pdf is None:
                certain[name] = None
                continue
            marginal = (
                cached_marginalize(pdf, [attr]) if len(pdf.attrs) > 1 else pdf
            )
            certain[name] = float(self.FUNCS[func](marginal))
        return ProbabilisticTuple(t.tuple_id, certain, t.pdfs, t.lineage)

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        for batch in self.child.batches(size):
            yield TupleBatch([self._scalarize(t) for t in batch.tuples])

    def children(self) -> List[Operator]:
        return [self.child]

    def label(self) -> str:
        inner = ", ".join(f"{f.upper()}({a}) AS {n}" for f, a, n in self.items)
        return f"Scalarize({inner})"


class RenameOp(Operator):
    """Rename attributes throughout a stream (aliasing, join disambiguation)."""

    def __init__(self, child: Operator, mapping: Dict[str, str]):
        self.child = child
        self.mapping = dict(mapping)
        self._rename = _TupleRenamer(self.mapping)
        self.output_schema = child.output_schema.renamed(self.mapping)

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        rename = self._rename
        for batch in self.child.batches(size):
            yield TupleBatch([rename(t) for t in batch.tuples])

    def children(self) -> List[Operator]:
        return [self.child]

    def label(self) -> str:
        pairs = ", ".join(f"{a}->{b}" for a, b in sorted(self.mapping.items()))
        return f"Rename({pairs})"


class ProbFilter(Operator):
    """``PROB(predicate) op p``: keep tuples whose predicate probability passes.

    The probability is computed by running the shared selection plan on the
    tuple and measuring the surviving joint mass (times the mass of every
    untouched partial pdf) — i.e. P(predicate holds AND the tuple exists).
    Qualifying tuples are emitted *unchanged* (no floors are applied), per
    Section III-E: operations on probability values copy histories over.
    """

    def __init__(
        self,
        child: Operator,
        predicate: Predicate,
        op: str,
        threshold: float,
        store: HistoryStore,
        config: ModelConfig = DEFAULT_CONFIG,
    ):
        if op not in _THRESH_OPS:
            raise QueryError(f"unknown threshold operator {op!r}")
        self.child = child
        self.predicate = predicate
        self.op = op
        self.threshold = float(threshold)
        self.store = store
        self.config = config
        self.plan = SelectionPlan(child.output_schema, predicate, config)
        self.output_schema = child.output_schema

    def _surviving_mass(self, selected: Optional[ProbabilisticTuple]) -> float:
        """The reference measure: ``Pr(*)`` of a selection's survivor, 0 if none."""
        if selected is None:
            return 0.0
        return probability_of(selected, self.store, None, self.config)

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        compare = _THRESH_OPS[self.op]
        measure = self._surviving_mass
        for batch in self.child.batches(size):
            fast = self.plan.probabilities_columnar(batch)
            if fast is not None:
                probs, leftover = fast
                for i in leftover:  # rows the column view cannot express
                    probs[i] = measure(self.plan.apply(batch.tuples[i], self.store))
            else:
                selected = self.plan.apply_columnar(batch, self.store)
                probs = [measure(s) for s in selected]
            kept = [
                t for t, p in zip(batch.tuples, probs) if compare(p, self.threshold)
            ]
            if kept:
                yield TupleBatch(kept)

    def children(self) -> List[Operator]:
        return [self.child]

    def explain_extras(self) -> List[str]:
        return _kernel_extras(self.plan)

    def label(self) -> str:
        return f"ProbFilter(Pr({self.predicate!r}) {self.op} {self.threshold:g})"


class ThresholdFilter(Operator):
    """σ over probability values: keep tuples with ``Pr(attrs) op p``."""

    def __init__(
        self,
        child: Operator,
        attrs: Optional[Sequence[str]],
        op: str,
        threshold: float,
        store: HistoryStore,
        config: ModelConfig = DEFAULT_CONFIG,
    ):
        if op not in _THRESH_OPS:
            raise QueryError(f"unknown threshold operator {op!r}")
        if attrs is not None:
            for a in attrs:
                if not child.output_schema.has_column(a):
                    raise QueryError(f"unknown attribute {a!r} in PROB()")
        self.child = child
        self.attrs = list(attrs) if attrs is not None else None
        self.op = op
        self.threshold = float(threshold)
        self.store = store
        self.config = config
        self.output_schema = child.output_schema

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        compare = _THRESH_OPS[self.op]
        for batch in self.child.batches(size):
            probs = columnar_probability_of(batch, self.store, self.attrs, self.config)
            kept = [
                t for t, p in zip(batch.tuples, probs) if compare(p, self.threshold)
            ]
            if kept:
                yield TupleBatch(kept)

    def children(self) -> List[Operator]:
        return [self.child]

    def label(self) -> str:
        target = ", ".join(self.attrs) if self.attrs else "*"
        return f"ThresholdFilter(Pr({target}) {self.op} {self.threshold:g})"


class _BudgetedSort(Operator):
    """The one budgeted sort, for every blocking operator but the hash join:
    a stable :class:`~.spill.ExternalSorter` under ``work_mem``, which
    spills sorted runs only when the buffered input exceeds the budget.
    Subclasses define ``_keys(batch, seq)``, the sort key of each row of a
    batch whose first row is input row ``seq``; :meth:`_sorted` yields
    ``(key, seq, row)``.  ``Sort`` and ``SortByProbability`` emit the rows
    (:meth:`_rows`), ``Distinct`` and ``Aggregate`` fold each run of equal
    keys into one."""

    child: Operator
    config: ModelConfig
    descending = False
    #: EXPLAIN ANALYZE: spilled runs merged by the sort
    sort_runs = 0

    def _sorted(self, size: int) -> Iterator[Tuple[Any, int, ProbabilisticTuple]]:
        with SpillManager(self.config.spill_dir, label="sort") as mgr:
            sorter = ExternalSorter(mgr, self.config.work_mem, self.descending)
            seq = 0
            for batch in self.child.batches(size):
                for key, t in zip(self._keys(batch, seq), batch.tuples):
                    sorter.add(key, t)
                seq += len(batch.tuples)
            try:
                yield from sorter.sorted()
            finally:  # a LIMIT above closes this generator mid-merge
                self.sort_runs += sorter.run_count

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        return batched(self._rows(size), size)

    def _rows(self, size: int) -> Iterator[ProbabilisticTuple]:
        return (t for _key, _seq, t in self._sorted(size))

    def children(self) -> List[Operator]:
        return [self.child]

    def explain_extras(self) -> List[str]:
        if not self.sort_runs:
            return []
        return [f"sort_runs={self.sort_runs}"]


class SortByProbability(_BudgetedSort):
    """ORDER BY PROB(*): rank tuples by existence probability.

    The classic probabilistic top-k pattern — pair with Limit to get the k
    most likely answers.  History-aware: shared ancestors are counted once
    per tuple.  Probabilities are computed per incoming batch (the kernels
    are elementwise, so per-batch values equal a whole-input sweep); ties
    keep input order.
    """

    def __init__(
        self,
        child: Operator,
        store: HistoryStore,
        descending: bool = True,
        config: ModelConfig = DEFAULT_CONFIG,
    ):
        self.child = child
        self.store = store
        self.descending = descending
        self.config = config
        self.output_schema = child.output_schema

    def _keys(self, batch: TupleBatch, seq: int) -> Iterable:
        return columnar_probability_of(batch, self.store, None, self.config)

    def label(self) -> str:
        direction = "DESC" if self.descending else "ASC"
        return f"SortByProbability({direction})"


class Sort(_BudgetedSort):
    """ORDER BY over certain columns (materialising and stable; NULL ranks
    above every value, so it comes last ascending and first descending)."""

    def __init__(
        self,
        child: Operator,
        attrs: Sequence[str],
        descending: bool = False,
        config: ModelConfig = DEFAULT_CONFIG,
    ):
        for a in attrs:
            if not child.output_schema.has_column(a) or child.output_schema.is_uncertain(a):
                raise QueryError(f"ORDER BY needs certain columns; {a!r} is not")
        self.child = child
        self.attrs = list(attrs)
        self.descending = descending
        self.config = config
        self.output_schema = child.output_schema

    def _keys(self, batch: TupleBatch, seq: int) -> Iterable:
        attrs = self.attrs
        return (
            tuple((t.certain.get(a) is None, t.certain.get(a)) for a in attrs)
            for t in batch.tuples
        )

    def label(self) -> str:
        direction = " DESC" if self.descending else ""
        return f"Sort({', '.join(self.attrs)}{direction})"


class Limit(Operator):
    """LIMIT n [OFFSET m]."""

    def __init__(self, child: Operator, count: int, offset: int = 0):
        if count < 0:
            raise QueryError("LIMIT must be non-negative")
        if offset < 0:
            raise QueryError("OFFSET must be non-negative")
        self.child = child
        self.count = count
        self.offset = offset
        self.output_schema = child.output_schema

    def batches(self, size: int = DEFAULT_BATCH_SIZE) -> Iterator[TupleBatch]:
        start, end = self.offset, self.offset + self.count
        seen = 0
        if self.count == 0:
            return
        for batch in self.child.batches(size):
            lo = max(start - seen, 0)
            hi = min(end - seen, len(batch.tuples))
            seen += len(batch.tuples)
            if hi > lo:
                yield TupleBatch(batch.tuples[lo:hi])
            if seen >= end:
                return

    def children(self) -> List[Operator]:
        return [self.child]

    def label(self) -> str:
        suffix = f" OFFSET {self.offset}" if self.offset else ""
        return f"Limit({self.count}{suffix})"
