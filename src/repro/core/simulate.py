"""Monte Carlo world sampling: the continuous counterpart of enumeration.

`repro.core.possible_worlds` expands *discrete* databases into all worlds
exactly; for continuous data the world set is infinite, so the paper's
Figure 1 semantics can only be *sampled*.  This module draws concrete
worlds from base relations — every dependency set realises a value (or the
tuple goes absent with its partial-mass probability) — turning any query
pipeline into an estimable statistic:

    estimate = (1 / N) * sum over sampled worlds of |query(world)|

Used by the test suite to validate continuous operator pipelines that the
exact enumerator cannot reach, and available to users as a generic
"explain this probability by simulation" tool.
"""

from __future__ import annotations

from typing import Callable, Iterator, List, Mapping

import numpy as np

from ..errors import UnsupportedOperationError
from .model import ProbabilisticRelation
from .possible_worlds import Row, WorldDb

__all__ = ["sample_worlds", "estimate_expected_rows"]


def sample_worlds(
    db: Mapping[str, ProbabilisticRelation],
    rng: np.random.Generator,
    n: int,
) -> Iterator[WorldDb]:
    """Draw ``n`` independent worlds from a database of base relations.

    Requires base relations (each dependency set its own ancestor), exactly
    like :func:`~repro.core.possible_worlds.enumerate_worlds`, but places no
    discreteness restriction: any sampleable pdf works.  NULL pdfs are not
    supported (a world must assign concrete values).
    """
    # Pre-draw everything vectorised: per (relation, tuple, dep set) an
    # existence draw plus n value samples.
    layout = []  # (name, certain, [(attrs, values-dict, exists-array)])
    for name, rel in db.items():
        for t in rel.tuples:
            sets = []
            for dep, pdf in t.pdfs.items():
                if pdf is None:
                    raise UnsupportedOperationError(
                        "world sampling does not support NULL pdfs"
                    )
                lineage = t.lineage.get(dep, frozenset())
                if len(lineage) != 1:
                    raise UnsupportedOperationError(
                        "world sampling needs base relations whose dependency "
                        "sets are their own ancestors"
                    )
                mass = pdf.mass()
                exists = rng.random(n) < mass
                values = pdf.sample(rng, n) if mass > 1e-12 else None
                sets.append((values, exists))
            layout.append((name, dict(t.certain), sets))

    for i in range(n):
        world: WorldDb = {name: [] for name in db}
        for name, certain, sets in layout:
            row: Row = dict(certain)  # type: ignore[arg-type]
            present = True
            for values, exists in sets:
                if not exists[i] or values is None:
                    present = False
                    break
                for attr, arr in values.items():
                    row[attr] = float(arr[i])
            if present:
                world[name].append(row)
        yield world


def estimate_expected_rows(
    db: Mapping[str, ProbabilisticRelation],
    query: Callable[[WorldDb], List[Row]],
    rng: np.random.Generator,
    n: int = 10_000,
) -> float:
    """Monte Carlo estimate of E[|query result|] under world semantics.

    The continuous analogue of summing
    :func:`~repro.core.possible_worlds.expected_multiplicities`: the
    expected total number of result rows, up to O(1/sqrt(n)) noise.
    """
    total = 0
    for world in sample_worlds(db, rng, n):
        total += len(query(world))
    return total / n
