#!/usr/bin/env python3
"""The repo's end-to-end benchmark: one command, every metric, checked answers.

::

    python3 benchmarks/e2e/run.py --workload tpch_scan --seed 0 --seconds 14 --trace 0
    python3 benchmarks/e2e/run.py --all [--trace] [--repeat 10] [--out DIR]
    python3 benchmarks/e2e/run.py --all --smoke

A single-workload run measures in this process (so ``peak_rss_mb`` and the
collector's state belong to that workload alone), prints each metric as
``workload metric value unit`` and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  ``--all`` runs every workload in a fresh subprocess and
collects the lines into ``<out>/results.json`` for ``compare.py``.  The exit
code is non-zero when any operation failed or any answer was wrong.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import harness

HERE = Path(__file__).resolve().parent
WORKLOADS = ("tpch_load", "tpch_scan", "tpch_join", "sensor_durable")


def load_spec() -> dict:
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, one subprocess each")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="how long the timed passes run (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: the traced run, reporting the per-layer metrics",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny instance, one timed pass")
    parser.add_argument("--repeat", type=int, default=1, help="--all: runs per workload, seeds seed..")
    parser.add_argument("--out", default=None, help="directory for results.json / trace-*.json")
    args = parser.parse_args(argv)
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload NAME and --all")
    return args


# -- one workload, in this process ---------------------------------------------


def run_workload(args, spec) -> int:
    harness.prepare_environment()
    import wl_sensor
    import wl_tpch

    runners = {**wl_tpch.RUNNERS, **wl_sensor.RUNNERS}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    run = harness.Run(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
    measured = runners[args.workload](run)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        value = measured.get(name)
        if value is None:
            if not args.trace:
                raise SystemExit(f"{args.workload}: end-to-end metric {name} was not measured")
            # A per-layer metric of a layer this workload does not exercise
            # reads 0, as does one whose probe lost its symbol (those are
            # named in probes_unavailable).
            value = 0.0
        metrics[name] = {"value": float(value), "unit": entry["unit"]}
        print(f"{args.workload} {name} {float(value):.6g} {entry['unit']}")
    failed_frac = run.failed / max(run.attempted, 1)
    print(f"{args.workload} failed_frac {failed_frac:.6g} ratio")
    for line in run.failures:
        print(f"# failed: {line}")
    unavailable = sorted(run.unavailable & {e["name"] for e in spec["per_layer"]})
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "params": run.params,
        "sample_counts": {k: len(v) for k, v in sorted(run.samples.items())},
        "probes_unavailable": unavailable,
        "environment": harness.environment(),
    }
    print("# meta " + json.dumps(meta, sort_keys=True))
    if args.trace:
        out_dir = Path(args.out) if args.out else harness.SCRATCH / "out"
        harness.write_json(
            out_dir / f"trace-{args.workload}.json",
            {"meta": meta, "metrics": metrics, "spans": run.spans},
        )
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if run.failed == 0 else 1


# -- every workload, one subprocess each ------------------------------------------


def run_all(args, spec) -> int:
    out_dir = Path(args.out) if args.out else harness.SCRATCH / "out"
    results = {"environment": None, "seed": args.seed, "repeat": args.repeat,
               "smoke": args.smoke, "workloads": {}}
    status = 0
    for workload in WORKLOADS:
        entry = results["workloads"][workload] = {
            "attempted": 0, "failed": 0, "metrics": {}, "runs": []}
        for rep in range(args.repeat):
            for trace in (0, 1) if args.trace else (0,):
                command = [
                    sys.executable, str(HERE / "run.py"), "--workload", workload,
                    "--seed", str(args.seed + rep), "--trace", str(trace), "--out", str(out_dir),
                ]
                if args.seconds is not None:
                    command += ["--seconds", str(args.seconds)]
                if args.smoke:
                    command.append("--smoke")
                done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
                sys.stdout.write(done.stdout)
                sys.stdout.flush()
                status = status or done.returncode
                lines = done.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1])
                except (IndexError, ValueError):
                    print(f"# {workload}: no result line (exit {done.returncode})")
                    status = status or 1
                    continue
                meta = next(
                    (json.loads(l[7:]) for l in lines if l.startswith("# meta ")), {}
                )
                results["environment"] = meta.pop("environment", results["environment"])
                entry["attempted"] += result["attempted"]
                entry["failed"] += result["failed"]
                entry["runs"].append(meta)
                for name, cell in result["metrics"].items():
                    slot = entry["metrics"].setdefault(name, {"unit": cell["unit"], "values": []})
                    slot["values"].append(cell["value"])
    harness.write_json(out_dir / "results.json", results)
    print(f"# wrote {out_dir / 'results.json'}")
    return status


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    spec = load_spec()
    return run_all(args, spec) if args.all else run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
