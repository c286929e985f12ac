"""Uncertain TPC-H: million-tuple scale with injected attribute uncertainty.

The paper evaluates at hundreds of thousands to millions of tuples; this
generator reproduces that scale with TPC-H-shaped relations (``lineitem``,
``orders``, ``part``) whose measure columns carry per-column pdf families:

* ``l_quantity`` — discrete samplings over small integer supports,
* ``l_extendedprice`` — a declared mix of Uniform / Triangular / Histogram
  pdfs (:data:`PRICE_FAMILY_WEIGHTS`),
* ``l_shipdate`` — Uniform / Triangular over a day-number horizon
  (:data:`SHIPDATE_FAMILY_WEIGHTS`).

A configurable fraction of lineitems carry *partial* pdfs (mass < 1): the
tuple itself may not exist.  Every dependency set is a single attribute —
the independence assumptions are explicit in the schema, never implied
(following Grohe & Lindner's argument that independence structure must be
declared, not assumed).

The data-quality scenario injects **denial-constraint violations** with a
seeded, exact count per constraint: a violator's pdf support crosses the
constraint bound (so its violation probability is strictly positive) while
every non-violator's support stays strictly inside it (violation
probability exactly zero).  Cleaning queries run through the ordinary SQL
surface:

* *rank by violation probability* — ``WHERE <violation> ORDER BY PROB(*)
  DESC``: the selection floors each pdf to the violating region without
  renormalising, so ``PROB(*)`` of a surviving tuple is exactly
  P(violation ∧ exists),
* *repair by conditioning* — ``CREATE TABLE clean AS SELECT * FROM t WHERE
  <constraint>``: the materialised rows keep only the constraint-
  satisfying mass.

All randomness flows through per-table :class:`numpy.random.Generator`
streams derived from ``TpchConfig.seed`` — no module-level global state —
so equal seeds produce bitwise-identical databases.  Row streams are
generated in fixed-size chunks of vectorised draws, so ``load_into`` can
stream scale-factor 0.5 (~3M tuples) without materialising python rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..pdf.base import Pdf
from ..pdf.continuous import TriangularPdf, UniformPdf
from ..pdf.discrete import DiscretePdf
from ..pdf.histogram import HistogramPdf

__all__ = [
    "DenialConstraint",
    "PRICE_FAMILY_WEIGHTS",
    "PRICE_LO_RANGE",
    "QUANTITY_BOUND",
    "PRICE_BOUND",
    "SHIPDATE_BOUND",
    "SHIPDATE_FAMILY_WEIGHTS",
    "TpchConfig",
    "TpchData",
    "create_tables",
    "default_constraints",
    "generate_tpch",
    "load_into",
    "query_suite",
    "synthesize",
    "table_row_counts",
]

# -- declared statistical contract -------------------------------------------

#: Denial-constraint bounds: quantity <= 50 (TPC-H Q19's cap), price and
#: shipdate stay under a cap / horizon.  Non-violators keep all support
#: strictly inside the bound.
QUANTITY_BOUND = 50.0
PRICE_BOUND = 100_000.0
SHIPDATE_BOUND = 2_500.0  # days since the epoch of the order calendar

#: pdf-family mix for l_extendedprice, declared so tests can chi-square it.
PRICE_FAMILY_WEIGHTS: Sequence[Tuple[str, float]] = (
    ("uniform", 0.4),
    ("triangular", 0.3),
    ("histogram", 0.3),
)
#: pdf-family mix for l_shipdate.
SHIPDATE_FAMILY_WEIGHTS: Sequence[Tuple[str, float]] = (
    ("uniform", 0.5),
    ("triangular", 0.5),
)

#: l_extendedprice Uniform/Triangular/Histogram supports start at
#: ``lo ~ U(PRICE_LO_RANGE)`` with width ``~ U(PRICE_WIDTH_RANGE)`` — the
#: KS sanity test checks the realised ``lo`` draws against this.
PRICE_LO_RANGE = (100.0, 50_000.0)
PRICE_WIDTH_RANGE = (10.0, 5_000.0)
#: l_shipdate supports: lo ~ U(SHIPDATE_LO_RANGE), width ~ U(WIDTH_RANGE);
#: lo + width stays under SHIPDATE_BOUND for every non-violator.
SHIPDATE_LO_RANGE = (0.0, 2_300.0)
SHIPDATE_WIDTH_RANGE = (1.0, 100.0)

_LINESTATUS = ("O", "F", "P")
_PRIORITIES = ("1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW")

_CHUNK = 4096

#: rows per ``Table.insert_many`` call (and per commit) of :func:`load_into`
_LOAD_BATCH = 1024


@dataclass(frozen=True)
class TpchConfig:
    """Scale, seed, and injection knobs for the uncertain-TPC-H generator.

    ``scale_factor`` follows TPC-H sizing: ``lineitem`` ~ 6M x SF rows,
    ``orders`` ~ 1.5M x SF, ``part`` ~ 200k x SF (explicit ``*_rows``
    overrides win, for tiny fixed test instances).  ``partial_fraction``
    of lineitems get their quantity pdf scaled to mass < 1 (the tuple may
    not exist).  ``violations_per_constraint`` rows per denial constraint
    are re-drawn so their support crosses the constraint bound; ``None``
    scales with the table (``max(3, rows // 2000)``).
    """

    scale_factor: float = 0.01
    seed: int = 0
    lineitem_rows: Optional[int] = None
    orders_rows: Optional[int] = None
    part_rows: Optional[int] = None
    partial_fraction: float = 0.05
    violations_per_constraint: Optional[int] = None

    @property
    def n_lineitem(self) -> int:
        if self.lineitem_rows is not None:
            return self.lineitem_rows
        return max(1, int(round(6_000_000 * self.scale_factor)))

    @property
    def n_orders(self) -> int:
        if self.orders_rows is not None:
            return self.orders_rows
        return max(1, int(round(1_500_000 * self.scale_factor)))

    @property
    def n_part(self) -> int:
        if self.part_rows is not None:
            return self.part_rows
        return max(1, int(round(200_000 * self.scale_factor)))

    @property
    def n_violations(self) -> int:
        if self.violations_per_constraint is not None:
            return self.violations_per_constraint
        return min(self.n_lineitem, max(3, self.n_lineitem // 2000))


@dataclass(frozen=True)
class DenialConstraint:
    """One denial constraint over a single uncertain column: ``column <= bound``.

    ``count`` is the number of injected violators — rows whose pdf support
    crosses ``bound`` (violation probability strictly positive); every
    other row's violation probability is exactly zero.
    """

    name: str
    table: str
    column: str
    bound: float
    count: int

    @property
    def violation_predicate(self) -> str:
        """SQL predicate selecting (probabilistically) violating tuples."""
        return f"{self.column} > {self.bound:g}"

    @property
    def satisfaction_predicate(self) -> str:
        return f"{self.column} <= {self.bound:g}"

    def ranking_sql(self, columns: str = "*", limit: Optional[int] = None) -> str:
        """Rank tuples by violation probability (most suspicious first)."""
        sql = (
            f"SELECT {columns} FROM {self.table} "
            f"WHERE {self.violation_predicate} ORDER BY PROB(*) DESC"
        )
        if limit is not None:
            sql += f" LIMIT {limit}"
        return sql

    def repair_sql(self, target: str, columns: str = "*") -> str:
        """Repair by conditioning: keep only constraint-satisfying mass."""
        return (
            f"CREATE TABLE {target} AS SELECT {columns} FROM {self.table} "
            f"WHERE {self.satisfaction_predicate}"
        )


def default_constraints(config: TpchConfig) -> Tuple[DenialConstraint, ...]:
    """The three seeded denial constraints of the workload."""
    n = config.n_violations
    return (
        DenialConstraint("quantity_cap", "lineitem", "l_quantity", QUANTITY_BOUND, n),
        DenialConstraint("price_cap", "lineitem", "l_extendedprice", PRICE_BOUND, n),
        DenialConstraint(
            "shipdate_horizon", "lineitem", "l_shipdate", SHIPDATE_BOUND, n
        ),
    )


Row = Tuple[Dict[str, object], Dict[str, Optional[Pdf]]]


@dataclass
class TpchData:
    """A fully materialised instance (use streams for SF >= 0.1)."""

    config: TpchConfig
    lineitem: List[Row]
    orders: List[Row]
    part: List[Row]
    constraints: Tuple[DenialConstraint, ...]
    #: constraint name -> sorted row indices (0-based) of injected violators
    violators: Dict[str, np.ndarray] = field(default_factory=dict)


def _rng_for(config: TpchConfig, table: str) -> np.random.Generator:
    """A per-table generator stream derived from the config seed.

    Per-table streams keep each table's draws independent of the others'
    row counts, so e.g. shrinking ``part`` never reshuffles ``lineitem``.
    """
    salt = {"lineitem": 1, "orders": 2, "part": 3}[table]
    return np.random.default_rng([config.seed, salt])


def _violator_masks(
    config: TpchConfig, rng: np.random.Generator
) -> Dict[str, np.ndarray]:
    """Seeded, exact-count violator index masks, one per constraint."""
    n = config.n_lineitem
    masks: Dict[str, np.ndarray] = {}
    for constraint in default_constraints(config):
        picks = rng.choice(n, size=min(constraint.count, n), replace=False)
        mask = np.zeros(n, dtype=bool)
        mask[picks] = True
        masks[constraint.name] = mask
    return masks


def lineitem_stream(config: TpchConfig) -> Iterator[Row]:
    """Yield ``(certain, uncertain)`` lineitem rows in deterministic order."""
    rng = _rng_for(config, "lineitem")
    n = config.n_lineitem
    masks = _violator_masks(config, rng)
    q_viol, p_viol, s_viol = (
        masks["quantity_cap"],
        masks["price_cap"],
        masks["shipdate_horizon"],
    )
    price_edges = np.cumsum([w for _, w in PRICE_FAMILY_WEIGHTS])
    ship_edges = np.cumsum([w for _, w in SHIPDATE_FAMILY_WEIGHTS])

    for start in range(0, n, _CHUNK):
        m = min(_CHUNK, n - start)
        orderkey = rng.integers(1, config.n_orders + 1, size=m)
        partkey = rng.integers(1, config.n_part + 1, size=m)
        status = rng.integers(0, len(_LINESTATUS), size=m)
        # quantity: discrete over {base, base+1, base+2}, base <= 45 keeps
        # every non-violator strictly under QUANTITY_BOUND.
        qbase = rng.integers(1, 46, size=m)
        qraw = rng.random((m, 3)) + 0.05
        qraw /= qraw.sum(axis=1, keepdims=True)
        partial = rng.random(m) < config.partial_fraction
        pscale = rng.uniform(0.5, 0.95, size=m)
        # violation splits: P(cross the bound) per injected violator
        vprob = rng.uniform(0.05, 0.6, size=m)
        # extendedprice family draws
        pfam = np.searchsorted(price_edges, rng.random(m))
        plo = rng.uniform(*PRICE_LO_RANGE, size=m)
        pwidth = rng.uniform(*PRICE_WIDTH_RANGE, size=m)
        pmode = rng.random(m)
        pmasses = rng.random((m, 4)) + 0.05
        pmasses /= pmasses.sum(axis=1, keepdims=True)
        pv_lo = rng.uniform(500.0, 5_000.0, size=m)
        pv_hi = rng.uniform(500.0, 5_000.0, size=m)
        # shipdate family draws
        sfam = np.searchsorted(ship_edges, rng.random(m))
        slo = rng.uniform(*SHIPDATE_LO_RANGE, size=m)
        swidth = rng.uniform(*SHIPDATE_WIDTH_RANGE, size=m)
        smode = rng.random(m)
        sv_lo = rng.uniform(10.0, 200.0, size=m)
        sv_hi = rng.uniform(10.0, 200.0, size=m)

        for j in range(m):
            i = start + j
            scale = float(pscale[j]) if partial[j] else 1.0
            if q_viol[i]:
                pv = float(vprob[j])
                quantity: Pdf = DiscretePdf(
                    {
                        float(qbase[j]): (1.0 - pv) * scale,
                        QUANTITY_BOUND + 3.0: pv * scale,
                    },
                    attr="l_quantity",
                )
            else:
                base = float(qbase[j])
                quantity = DiscretePdf(
                    {
                        base: float(qraw[j, 0]) * scale,
                        base + 1.0: float(qraw[j, 1]) * scale,
                        base + 2.0: float(qraw[j, 2]) * scale,
                    },
                    attr="l_quantity",
                )
            if p_viol[i]:
                price: Pdf = UniformPdf(
                    PRICE_BOUND - float(pv_lo[j]),
                    PRICE_BOUND + float(pv_hi[j]),
                    attr="l_extendedprice",
                )
            else:
                lo, width = float(plo[j]), float(pwidth[j])
                fam = PRICE_FAMILY_WEIGHTS[int(pfam[j])][0]
                if fam == "uniform":
                    price = UniformPdf(lo, lo + width, attr="l_extendedprice")
                elif fam == "triangular":
                    price = TriangularPdf(
                        lo, lo + width * float(pmode[j]), lo + width,
                        attr="l_extendedprice",
                    )
                else:
                    edges = lo + width * np.array([0.0, 0.25, 0.5, 0.75, 1.0])
                    price = HistogramPdf(edges, pmasses[j], attr="l_extendedprice")
            if s_viol[i]:
                ship: Pdf = UniformPdf(
                    SHIPDATE_BOUND - float(sv_lo[j]),
                    SHIPDATE_BOUND + float(sv_hi[j]),
                    attr="l_shipdate",
                )
            else:
                lo, width = float(slo[j]), float(swidth[j])
                fam = SHIPDATE_FAMILY_WEIGHTS[int(sfam[j])][0]
                if fam == "uniform":
                    ship = UniformPdf(lo, lo + width, attr="l_shipdate")
                else:
                    ship = TriangularPdf(
                        lo, lo + width * float(smode[j]), lo + width,
                        attr="l_shipdate",
                    )
            yield (
                {
                    "l_orderkey": int(orderkey[j]),
                    "l_partkey": int(partkey[j]),
                    "l_linenumber": i + 1,
                    "l_linestatus": _LINESTATUS[int(status[j])],
                },
                {
                    "l_quantity": quantity,
                    "l_extendedprice": price,
                    "l_shipdate": ship,
                },
            )


def orders_stream(config: TpchConfig) -> Iterator[Row]:
    """Yield ``(certain, uncertain)`` orders rows (fully certain)."""
    rng = _rng_for(config, "orders")
    n = config.n_orders
    for start in range(0, n, _CHUNK):
        m = min(_CHUNK, n - start)
        custkey = rng.integers(1, max(2, n // 10), size=m)
        priority = rng.integers(0, len(_PRIORITIES), size=m)
        orderdate = np.round(rng.uniform(0.0, 2_400.0, size=m), 2)
        for j in range(m):
            yield (
                {
                    "o_orderkey": start + j + 1,
                    "o_custkey": int(custkey[j]),
                    "o_orderpriority": _PRIORITIES[int(priority[j])],
                    "o_orderdate": float(orderdate[j]),
                },
                {},
            )


def part_stream(config: TpchConfig) -> Iterator[Row]:
    """Yield ``(certain, uncertain)`` part rows (fully certain)."""
    rng = _rng_for(config, "part")
    n = config.n_part
    for start in range(0, n, _CHUNK):
        m = min(_CHUNK, n - start)
        brand = rng.integers(1, 6, size=(m, 2))
        price = np.round(rng.uniform(900.0, 2_000.0, size=m), 2)
        for j in range(m):
            yield (
                {
                    "p_partkey": start + j + 1,
                    "p_brand": f"Brand#{int(brand[j, 0])}{int(brand[j, 1])}",
                    "p_retailprice": float(price[j]),
                },
                {},
            )


_STREAMS = {
    "lineitem": lineitem_stream,
    "orders": orders_stream,
    "part": part_stream,
}

_DDL = (
    "CREATE TABLE lineitem ("
    "l_orderkey INT, l_partkey INT, l_linenumber INT, l_linestatus TEXT, "
    "l_quantity REAL UNCERTAIN, l_extendedprice REAL UNCERTAIN, "
    "l_shipdate REAL UNCERTAIN)",
    "CREATE TABLE orders ("
    "o_orderkey INT, o_custkey INT, o_orderpriority TEXT, o_orderdate REAL)",
    "CREATE TABLE part (p_partkey INT, p_brand TEXT, p_retailprice REAL)",
)


def table_row_counts(config: TpchConfig) -> Dict[str, int]:
    """Rows per table at this config (total is the workload's scale)."""
    return {
        "lineitem": config.n_lineitem,
        "orders": config.n_orders,
        "part": config.n_part,
    }


def synthesize(config: TpchConfig) -> TpchData:
    """Materialise the whole instance (tests / small SF; streams for big)."""
    rng = _rng_for(config, "lineitem")
    masks = _violator_masks(config, rng)
    return TpchData(
        config=config,
        lineitem=list(lineitem_stream(config)),
        orders=list(orders_stream(config)),
        part=list(part_stream(config)),
        constraints=default_constraints(config),
        violators={
            name: np.flatnonzero(mask) for name, mask in masks.items()
        },
    )


def create_tables(db) -> None:
    """Create the three TPC-H tables through the SQL surface."""
    for ddl in _DDL:
        db.execute(ddl)


def load_into(db, config: TpchConfig, data: Optional[TpchData] = None) -> Dict[str, int]:
    """Bulk-load an instance, streaming rows straight into the tables.

    Bypasses SQL parsing: the row stream is cut into batches of
    ``_LOAD_BATCH`` rows, each one ``Table.insert_many`` call, so memory
    stays bounded at any scale factor.  On a durable database every batch
    commits as its own transaction (one WAL append, one fsync); an
    in-memory database takes no transaction at all.  Returns rows loaded
    per table.
    """
    counts: Dict[str, int] = {}
    for name in ("lineitem", "orders", "part"):
        table = db.catalog.tables[name]
        rows: Iterator[Row]
        if data is not None:
            rows = iter(getattr(data, name))
        else:
            rows = _STREAMS[name](config)
        loaded = 0
        for batch in iter(lambda: list(itertools.islice(rows, _LOAD_BATCH)), []):
            if db.path is None:
                table.insert_many(batch)
            else:
                with db.transaction():
                    table.insert_many(batch)
            loaded += len(batch)
        counts[name] = loaded
    return counts


def generate_tpch(db, config: TpchConfig) -> Tuple[DenialConstraint, ...]:
    """Create + stream-load the workload; returns its denial constraints."""
    create_tables(db)
    load_into(db, config)
    return default_constraints(config)


def query_suite(config: TpchConfig) -> List[Tuple[str, str]]:
    """The benchmark query suite: joins, grouping, sorts, and cleaning.

    Read-only (repair-by-conditioning CTAS is exercised separately) so a
    benchmark can replay the suite under different configs against the
    same loaded database.
    """
    quantity_cap = default_constraints(config)[0]
    return [
        (
            "join_orders",
            "SELECT l_linenumber, o_orderpriority FROM lineitem, orders "
            "WHERE lineitem.l_orderkey = orders.o_orderkey",
        ),
        (
            # COUNT over the fully-certain table hits the O(n) shortcut.
            # COUNT over lineitem's partial tuples is an O(n^2)
            # Poisson-binomial; the end-to-end benchmark runs it beside
            # this suite (``count_by_status``).
            "groupby_priority",
            "SELECT o_orderpriority, COUNT(*) FROM orders "
            "GROUP BY o_orderpriority",
        ),
        (
            "expected_by_status",
            "SELECT l_linestatus, EXPECTED(l_quantity) "
            "FROM lineitem GROUP BY l_linestatus",
        ),
        (
            "orderby_linenumber",
            "SELECT l_linenumber, l_orderkey FROM lineitem "
            "WHERE l_quantity > 25 ORDER BY l_orderkey DESC",
        ),
        (
            "rank_violations",
            quantity_cap.ranking_sql(columns="l_linenumber", limit=100),
        ),
    ]
