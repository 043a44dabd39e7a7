#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the root of a checkout::

    python3 perfbench/spread.py --workload event-sweep --seeds 1-10

Each seed is one ``run.py`` process (``--seconds`` from BENCHMARK.json
unless given).  For every metric it prints the median, the inter-quartile
distance as a share of the median (``statistics.quantiles(n=4)``), the
bound from BENCHMARK.json and whether the spread stays below a third of
it.  The raw per-seed results are appended to ``.perfbench/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run
from benchmath import median, quartile_spread
from record_reference import parse_seeds


def main(argv=None) -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in declared["end_to_end"]}
    values = {}
    run.OUT.mkdir(exist_ok=True)
    for seed in parse_seeds(args.seeds):
        child = subprocess.run(
            [
                sys.executable, str(run.Path(run.__file__).resolve()),
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            capture_output=True, text=True, cwd=str(run.ROOT), timeout=600,
        )
        if child.returncode != 0:
            sys.stderr.write(child.stderr)
            return 1
        result = json.loads(child.stdout.strip().splitlines()[-1])
        with open(run.OUT / "spread.jsonl", "a", encoding="utf-8") as log:
            log.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])

    steady = True
    print(f"{'metric':32s} {'median':>14s} {'iqr/med':>9s} {'bound':>7s}")
    for name, series in sorted(values.items()):
        spread = quartile_spread(series) if len(series) >= 2 else 0.0
        bound = bounds.get(name) if not args.trace else None
        verdict = ""
        if bound is not None and name != "setup_s":
            ok = spread < bound / 3.0
            steady = steady and ok
            verdict = "ok" if ok else "TOO WIDE"
        bound_text = f"{bound:7.3f}" if bound is not None else f"{'-':>7s}"
        print(f"{name:32s} {median(series):14.6g} {spread:9.4f} {bound_text} {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
