#!/usr/bin/env python3
"""Compare two ``results.json`` files of ``run.py --all``: parent vs change.

::

    python3 benchmarks/e2e/compare.py BASE.json NEW.json [--layers]

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio *with its base*, the base's own quartile spread, the
metric's bound from ``BENCHMARK.json`` and a verdict:

``regression``  NEW's median is worse than BASE's by more than the bound
``unresolved``  BASE's own spread (q3 − q1, as a share of its median) exceeds
                the bound, so this pair of runs cannot tell
``ok``          neither

Exits non-zero on a regression or when NEW failed a larger share of its
operations than BASE.  Quartiles need several runs per side: record each
side with ``run.py --all --repeat 10``.  ``compare.py X.json X.json`` prints
the spreads of one recording, which is how repeatability is checked.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worsening(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def compare(base: dict, new: dict, spec: dict, layers: bool = False):
    """Yield one row dict per (workload, metric) present on both sides."""
    entries = [(e, True) for e in spec["end_to_end"]]
    if layers:
        entries += [(e, False) for e in spec["per_layer"]]
    for workload, base_w in base["workloads"].items():
        new_w = new["workloads"].get(workload)
        if new_w is None:
            continue
        for entry, bounded in entries:
            name = entry["name"]
            b = base_w["metrics"].get(name)
            n = new_w["metrics"].get(name)
            if not b or not n or not b["values"] or not n["values"]:
                continue
            bq, nq = quartiles(b["values"]), quartiles(n["values"])
            spread = (bq[2] - bq[0]) / abs(bq[1]) if bq[1] else 0.0
            worse = worsening(bq[1], nq[1], entry["better"])
            verdict = "-"
            if bounded:
                bound = entry["bound"]
                if spread > bound:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "regression"
                else:
                    verdict = "ok"
            yield {
                "workload": workload, "metric": name, "unit": entry["unit"],
                "base": bq, "new": nq, "runs": (len(b["values"]), len(n["values"])),
                "ratio": nq[1] / bq[1] if bq[1] else float("nan"),
                "spread": spread, "bound": entry.get("bound"), "verdict": verdict,
            }
        base_frac = base_w["failed"] / max(base_w["attempted"], 1)
        new_frac = new_w["failed"] / max(new_w["attempted"], 1)
        yield {
            "workload": workload, "metric": "failed_frac", "unit": "ratio",
            "base": (base_frac,) * 3, "new": (new_frac,) * 3, "runs": (1, 1),
            "ratio": float("nan"), "spread": 0.0, "bound": 0.0,
            "verdict": "regression" if new_frac > base_frac else "ok",
        }


def render(row: dict) -> str:
    def cell(q):
        return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    bound = "" if row["bound"] is None else f" bound {row['bound']:.0%}"
    return (
        f"{row['workload']:15s} {row['metric']:26s} base {cell(row['base'])}"
        f"  new {cell(row['new'])} {row['unit']}  new/base {row['ratio']:.4f}"
        f" (base {row['base'][1]:.6g}, n={row['runs'][0]}/{row['runs'][1]})"
        f"  base spread {row['spread']:.2%}{bound}  {row['verdict']}"
    )


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    layers = "--layers" in argv
    paths = [a for a in argv if not a.startswith("--")]
    if len(paths) != 2:
        print(__doc__)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in paths)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    regressions = 0
    for row in compare(base, new, spec, layers):
        print(render(row))
        regressions += row["verdict"] == "regression"
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
