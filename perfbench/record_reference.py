#!/usr/bin/env python3
"""Record the reference record fields the benchmark checks outputs against.

Run from the root of a checkout, on the commit whose simulated
behaviour is the reference::

    python3 perfbench/record_reference.py --seeds 0-31

For every workload and seed it executes the batch once, requires every
scenario to succeed and to account for every request of its trace, and
stores the deterministic record fields (energy, GPU-hours, carbon, cost,
requests, squashed and, on the event backend, SLO attainment) in
``perfbench/reference.json``.  Existing entries for other seeds are kept.
Re-record only in a change that is meant to move simulated behaviour.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from typing import List

import run


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-31 or 1,2,5-9")
    parser.add_argument(
        "--workloads", default=",".join(run.WORKLOAD_NAMES), help="comma-separated"
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(run.SRC))
    from timing import SegmentTimer
    from workloads import build_batch

    try:
        recorded = json.loads(run.REFERENCE.read_text())
    except FileNotFoundError:
        recorded = {}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as out_dir:
        for workload in args.workloads.split(","):
            for seed in parse_seeds(args.seeds):
                batch = build_batch(workload, seed)
                handle = batch.execute(out_dir, SegmentTimer(calibrate=False))
                records = batch.records(handle)
                reference = run.reference_of(batch, records)
                problems = run.check_records(batch, records, reference)
                if problems:
                    print("\n".join(problems), file=sys.stderr)
                    return 1
                recorded.setdefault(workload, {})[str(seed)] = reference
                print(f"{workload} seed {seed}: {len(reference)} scenarios", flush=True)
                run.REFERENCE.write_text(dump(recorded))
    return 0


def dump(recorded: dict) -> str:
    """JSON with one line per (workload, seed), so diffs stay readable."""
    blocks = []
    for workload in sorted(recorded):
        seeds = sorted(recorded[workload], key=int)
        lines = [
            f" {json.dumps(seed)}: {json.dumps(recorded[workload][seed], sort_keys=True)}"
            for seed in seeds
        ]
        blocks.append(f"{json.dumps(workload)}: {{\n" + ",\n".join(lines) + "\n}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
