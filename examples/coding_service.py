#!/usr/bin/env python3
"""Week-long study of the Coding service: all six systems (Figure 14).

The Coding workload has deep night and weekend valleys (peak/valley of
roughly 35x in the paper), which is where instance scaling pays off the
most.  This example runs the week-long binned trace through the fluid
simulator for every evaluated system and prints the normalised energy,
average server count and number of reconfigurations.

Run with::

    python examples/coding_service.py [--rate-scale 40] [--service coding]

(Request-level scenario sweeps over the same policies are available via
``python -m repro sweep``; the week-long studies stay on the fast fluid
simulator.)
"""

from __future__ import annotations

import argparse

from repro.api import BinnedTrace, run_policies
from repro.experiments.large_scale import week_bins
from repro.policies import ALL_POLICIES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate-scale", type=float, default=40.0)
    parser.add_argument("--service", default="coding", choices=("conversation", "coding"))
    args = parser.parse_args()

    trace = BinnedTrace(
        name=f"{args.service}-week",
        bins=week_bins(args.service, rate_scale=args.rate_scale),
    )
    results = run_policies(trace, ALL_POLICIES, backend="fluid")
    baseline_energy = results["SinglePool"].energy.total_wh

    print(f"== {args.service.capitalize()} service, one week ==")
    print(
        f"{'policy':12s} {'energy kWh':>11s} {'normalized':>11s} "
        f"{'avg servers':>12s} {'reconfigs':>10s}"
    )
    for name, result in results.items():
        print(
            f"{name:12s} {result.energy_kwh:11.1f} "
            f"{result.energy.total_wh / baseline_energy:11.2f} "
            f"{result.average_servers:12.1f} {result.reconfigurations:10d}"
        )

    dynamo = results["DynamoLLM"]
    print(
        f"\nDynamoLLM weekly saving vs SinglePool: "
        f"{1.0 - dynamo.energy.total_wh / baseline_energy:.0%}"
    )


if __name__ == "__main__":
    main()
