#!/usr/bin/env python3
"""Week-long policy sweep on the fluid backend, streamed to JSONL.

Runs the six evaluated systems over the synthetic week trace (the
Figures 14-16 workload) through ``Scenario(backend="fluid")`` — a full
week per policy in well under a second — and streams one JSON record
per completed scenario to disk instead of accumulating summaries in
memory.  The sweep runs with ``resume=True``, so rerunning the script
(or restarting it after an interruption) skips the scenarios already
recorded and appends only the missing ones; a file written by a sweep
with other parameters is refused with ``ResultsMismatchError``.  The
same sweep is available from the command line::

    python -m repro sweep --backend fluid --trace week --rate-scale 40 \
        --policies SinglePool,MultiPool,ScaleInst,ScaleShard,ScaleFreq,DynamoLLM \
        --out week.jsonl --resume

Run with::

    python examples/week_fluid_sweep.py [--service conversation] [--out week.jsonl]
"""

from __future__ import annotations

import argparse

from repro.api import JsonlSink, TraceSpec, read_jsonl, run_grid, sweep

POLICIES = ("SinglePool", "MultiPool", "ScaleInst", "ScaleShard", "ScaleFreq", "DynamoLLM")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--service", default="conversation", choices=("conversation", "coding"))
    parser.add_argument("--rate-scale", type=float, default=40.0, help="load scale factor")
    parser.add_argument("--out", default="week.jsonl", help="JSONL output path")
    parser.add_argument("--workers", type=int, default=None, help="parallel scenario runs")
    args = parser.parse_args()

    grid = sweep(
        policies=POLICIES,
        traces=(TraceSpec(kind="week", service=args.service, rate_scale=args.rate_scale),),
        backends=("fluid",),
    )
    # resume=True makes the sweep restartable: records already in the
    # file are kept (the sink never truncates) and their scenarios are
    # skipped, so interrupting and rerunning costs only the missing runs.
    sink = run_grid(grid, workers=args.workers, sink=JsonlSink(args.out), resume=True)
    print(
        f"{sink.report.ran} ran, {sink.report.skipped} skipped, "
        f"{sink.report.failed} failed"
    )

    # Resume refused any file holding another grid's records, so every
    # record here belongs to this grid.  Error records carry only
    # {scenario, error} (a retried failure leaves its stale error record
    # before the fresh one): keep the successful summaries for the table.
    records = [r for r in read_jsonl(args.out) if not r.get("error")]
    baseline = next(r for r in records if r["policy"] == "SinglePool")
    header = f"{'policy':12s} {'energy kWh':>11s} {'vs base':>8s} {'GPU-hours':>10s} {'kgCO2':>8s} {'reconf':>7s}"
    print(header)
    print("-" * len(header))
    for record in records:
        print(
            f"{record['policy']:12s} {record['energy_kwh']:11.1f} "
            f"{record['energy_kwh'] / baseline['energy_kwh']:8.2f} "
            f"{record['gpu_hours']:10.1f} {record['carbon_kg']:8.1f} "
            f"{record['reconfigurations']:7d}"
        )
    print(
        f"\n{sink.report.ran} week-long scenarios streamed to {args.out} "
        f"({len(records)} in the table)"
    )


if __name__ == "__main__":
    main()
