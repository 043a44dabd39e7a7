#!/usr/bin/env python3
"""Serve a day of the Conversation service and report energy and carbon.

This mirrors the paper's long cluster-level experiment (Figure 15) and
the carbon analysis (Figure 16) for the Conversation service: the
day-long synthetic trace is run through the fluid simulator with the
SinglePool baseline and DynamoLLM, and the script prints the 5-minute
energy series head, daily totals, carbon emissions and cost.

Run with::

    python examples/conversation_service.py [--rate-scale 40]

(The registry-backed equivalents are ``python -m repro bench figure15
figure16``; request-level runs of the same systems are one
``python -m repro run --policy DynamoLLM --trace one_hour`` away.)
"""

from __future__ import annotations

import argparse

from repro import CarbonIntensityTrace, CostModel
from repro.api import BinnedTrace, run_policies
from repro.experiments.large_scale import week_bins
from repro.policies import DYNAMO_LLM, SINGLE_POOL
from repro.workload.synthetic import SECONDS_PER_DAY


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rate-scale", type=float, default=40.0)
    parser.add_argument("--service", default="conversation", choices=("conversation", "coding"))
    args = parser.parse_args()

    bins = week_bins(args.service, rate_scale=args.rate_scale, bin_seconds=300.0)
    day_bins = [b for b in bins if SECONDS_PER_DAY <= b.start_time < 2 * SECONDS_PER_DAY]

    trace = BinnedTrace(name=f"{args.service}-day2", bins=day_bins)
    results = run_policies(trace, (SINGLE_POOL, DYNAMO_LLM), backend="fluid")
    baseline, dynamo = results["SinglePool"], results["DynamoLLM"]

    print(f"== {args.service} service, one day ==")
    print(f"{'policy':12s} {'energy kWh':>11s} {'avg servers':>12s} {'GPU hours':>10s}")
    for result in (baseline, dynamo):
        print(
            f"{result.policy:12s} {result.energy_kwh:11.1f} "
            f"{result.average_servers:12.1f} {result.gpu_hours:10.1f}"
        )
    saving = 1.0 - dynamo.energy.total_wh / baseline.energy.total_wh
    print(f"\nDaily energy saving: {saving:.0%}")

    intensity = CarbonIntensityTrace()
    print(
        f"Carbon: SinglePool {baseline.carbon_kg(intensity):.1f} kg, "
        f"DynamoLLM {dynamo.carbon_kg(intensity):.1f} kg "
        f"({1.0 - dynamo.carbon_kg(intensity) / baseline.carbon_kg(intensity):.0%} saved)"
    )

    cost = CostModel()
    savings = cost.savings(
        baseline_gpu_hours=baseline.gpu_hours,
        baseline_energy_kwh=baseline.energy_kwh,
        optimized_gpu_hours=dynamo.gpu_hours,
        optimized_energy_kwh=dynamo.energy_kwh,
    )
    print(
        f"Cost: ${savings['baseline_cost_usd']:.0f} -> ${savings['optimized_cost_usd']:.0f} "
        f"({savings['saving_fraction']:.0%} cheaper for the customer)"
    )

    print("\nFirst hours of the 5-minute energy series (kWh per bin):")
    for (time, base_kwh), (_, dyn_kwh) in list(
        zip(
            ((t, wh / 1000.0) for t, wh in baseline.energy.timeline),
            ((t, wh / 1000.0) for t, wh in dynamo.energy.timeline),
        )
    )[:12]:
        hour = (time % SECONDS_PER_DAY) / 3600.0
        print(f"  {hour:5.2f} h   SinglePool {base_kwh:6.2f}   DynamoLLM {dyn_kwh:6.2f}")


if __name__ == "__main__":
    main()
