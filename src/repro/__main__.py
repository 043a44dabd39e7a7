"""``python -m repro`` — command-line front end for the reproduction.

Subcommands:

* ``run``   — simulate one policy on one trace and print the headline
  metrics (energy, latency percentiles, SLO attainment).  ``--backend
  fluid`` runs the binned fluid simulator (week-scale traces in
  milliseconds; no latency percentiles).
* ``sweep`` — expand a scenario grid over policies x trace x SLO scales
  x predictor accuracies x pool counts and run it, optionally in
  parallel (``--workers``).  ``--out results.jsonl`` streams one JSON
  Lines record per completed scenario to disk instead of
  accumulating summaries in memory; a scenario that raises becomes an
  error record instead of aborting the sweep.  ``--resume`` reruns an
  interrupted sweep: scenarios already recorded in ``--out`` are
  skipped, the rest append, and a skipped/ran/failed report is printed.
* ``campaign`` — manifest-driven sensitivity campaigns:
  ``campaign run <manifest>`` expands a JSON/TOML manifest into a
  (possibly 1000+-scenario) grid and streams it through resumable file
  sinks, ``--shard i/n`` runs one deterministic shard for multi-host
  campaigns, ``campaign status`` rolls up per-shard completion,
  ``campaign report`` pivots the results into the manifest's
  sensitivity table and ``campaign validate`` / ``campaign list`` check
  manifests and list the bundled ones (``smoke``, ``fig11_accuracy``,
  ``sensitivity_grid``, ...).
* ``lint`` — domain-aware static analysis (determinism / unit-suffix /
  concurrency / immutability rules, see :mod:`repro.lint`): ``lint src
  tests`` exits non-zero on findings; ``--select/--ignore`` filter rule
  families, ``--format json`` emits a machine-readable report and
  ``--list-rules`` prints the catalog.
* ``list-experiments`` — list the registered paper artefacts.
* ``bench`` — run registered experiments by id and report wall-clock
  times (defaults to the light, analytic artefacts).

Installed as the ``repro`` console script by ``pip install -e .``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional, Sequence


def _floats(text: str) -> List[float]:
    return [float(part) for part in text.split(",") if part]


def _ints(text: str) -> List[int]:
    return [int(part) for part in text.split(",") if part]


def _names(text: str) -> List[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _trace_spec(args, path: Optional[str] = None):
    from repro.api import TraceSpec

    path = path or getattr(args, "trace_file", None)
    if path or args.trace in ("csv", "azure"):
        if not path:
            raise ValueError(f"--trace {args.trace} requires --trace-file PATH")
        kind = args.trace if args.trace in ("csv", "azure") else "csv"
        return TraceSpec(
            kind=kind,
            path=path,
            service=args.service,
            duration_s=args.duration,
            resample=args.resample,
        )
    if args.trace in ("one_hour", "week"):
        return TraceSpec(
            kind=args.trace,
            service=args.service,
            rate_scale=args.rate_scale,
            duration_s=args.duration,
            seed=args.seed,
        )
    return TraceSpec(
        kind="poisson",
        level=args.level,
        load_multiplier=args.load_multiplier,
        duration_s=args.duration or 1800.0,
        seed=args.seed,
    )


def _headline_row(key: str, summary) -> dict:
    # One flattening for the CLI table, --json output and the file
    # sinks: anything added to summary_record shows up everywhere.
    from repro.api import summary_record

    return summary_record(key, summary)


def _print_rows(rows: Sequence[dict]) -> None:
    header = (
        f"{'scenario':48s} {'kWh':>9s} {'srv':>6s} {'P50 TTFT':>9s} "
        f"{'P99 TTFT':>9s} {'P99 TBT':>8s} {'SLO':>6s} {'reqs':>7s} "
        f"{'kgCO2':>8s} {'USD':>9s}"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{row['scenario']:48s} {row['energy_kwh']:9.3f} {row['average_servers']:6.1f} "
            f"{row['p50_ttft_s']:9.3f} {row['p99_ttft_s']:9.3f} {row['p99_tbt_s']:8.3f} "
            f"{row['slo_attainment']:6.3f} {row['requests']:7d} "
            f"{row['carbon_kg']:8.3f} {row['cost_usd']:9.2f}"
        )


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_run(args) -> int:
    from repro.api import Scenario, run_scenario

    scenario = Scenario(
        policy=args.policy,
        trace=_trace_spec(args),
        slo_scale=args.slo_scale,
        predictor_accuracy=args.accuracy,
        pool_count=args.pools,
        static_servers=args.static_servers,
        max_servers=args.max_servers,
        model=args.model,
        backend=args.backend,
        fluid_bin_s=args.fluid_bin,
    )
    started = time.perf_counter()
    summary = run_scenario(scenario, lean=args.lean)
    elapsed = time.perf_counter() - started
    row = _headline_row(scenario.key, summary)
    if args.json:
        print(json.dumps({**row, "wall_s": elapsed}, indent=2))
    else:
        _print_rows([row])
        print(f"\nsimulated {summary.duration_s:.0f}s in {elapsed:.1f}s wall-clock")
    return 0


def cmd_sweep(args) -> int:
    from repro.api import run_grid, sink_for_path, sweep

    policies = _names(args.policies)
    if not policies:
        raise ValueError("--policies must name at least one policy")
    if args.traces:
        traces = tuple(_trace_spec(args, path=path) for path in _names(args.traces))
    else:
        traces = (_trace_spec(args),)
    grid = sweep(
        policies=policies,
        traces=traces,
        slo_scales=_floats(args.slo_scales) if args.slo_scales else (None,),
        accuracies=_floats(args.accuracies) if args.accuracies else (None,),
        pool_counts=_ints(args.pool_counts) if args.pool_counts else (None,),
        models=tuple(_names(args.models)) if args.models else (None,),
        backends=(args.backend,),
    )
    if args.fluid_bin is not None:
        grid = grid.with_(fluid_bin_s=args.fluid_bin)
    if args.out and args.json:
        raise ValueError(
            "--json and --out are mutually exclusive: with --out the "
            "streamed file is the machine-readable output"
        )
    if args.resume and not args.out:
        raise ValueError(
            "--resume requires --out PATH: the results file defines which "
            "scenarios are already done"
        )
    if (
        args.out
        and not args.resume
        and os.path.exists(args.out)
        and os.path.getsize(args.out) > 0
    ):
        raise ValueError(
            f"{args.out} already holds results; pass --resume to skip the "
            "scenarios it records and append the rest, or remove the file "
            "for a fresh sweep (it is never truncated)"
        )
    print(f"running {len(grid)} scenarios (workers={args.workers}) ...", file=sys.stderr)
    started = time.perf_counter()
    if args.out:
        # Streamed mode: one record is flushed to the file per completed
        # scenario; nothing is accumulated in memory.
        sink = run_grid(
            grid,
            workers=args.workers,
            lean=not args.timelines,
            sink=sink_for_path(args.out),
            resume=args.resume,
        )
        elapsed = time.perf_counter() - started
        report = sink.report
        print(
            f"{args.out}: {report.ran} ran, {report.skipped} skipped, "
            f"{report.failed} failed ({sink.count} records on disk) "
            f"in {elapsed:.1f}s wall-clock",
            file=sys.stderr,
        )
        # Failed scenarios are recorded as error records and retried by
        # a --resume rerun; surface them in the exit status.
        return 1 if report.failed else 0
    summaries = run_grid(grid, workers=args.workers, lean=not args.timelines)
    elapsed = time.perf_counter() - started
    rows = [_headline_row(key, summary) for key, summary in summaries.items()]
    if args.json:
        print(json.dumps({"wall_s": elapsed, "results": rows}, indent=2))
    else:
        _print_rows(rows)
        print(f"\n{len(rows)} scenarios in {elapsed:.1f}s wall-clock")
    return 0


def _parse_shard(text: Optional[str]):
    if text is None:
        return None
    match = text.split("/")
    if len(match) != 2:
        raise ValueError(
            f"--shard must look like I/N (e.g. 0/4), got {text!r}"
        )
    try:
        index, count = int(match[0]), int(match[1])
    except ValueError:
        raise ValueError(
            f"--shard must look like I/N (e.g. 0/4), got {text!r}"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise ValueError(
            f"--shard {text}: the index must lie in 0..N-1 (shards are "
            "0-based)"
        )
    return index, count


def _campaign_runner(args):
    from repro.api.campaign import CampaignRunner, load_manifest
    from repro.experiments.manifests import resolve_manifest

    manifest = load_manifest(resolve_manifest(args.manifest))
    return CampaignRunner(manifest, out=getattr(args, "out", None))


def cmd_campaign(args) -> int:
    if args.action == "list":
        from repro.api.campaign import load_manifest
        from repro.experiments.manifests import list_manifests, manifest_path

        entries = {
            name: load_manifest(manifest_path(name)) for name in list_manifests()
        }
        if args.json:
            print(
                json.dumps(
                    {
                        name: {
                            "description": manifest.description,
                            "output": manifest.output,
                            "shards": manifest.shards,
                        }
                        for name, manifest in entries.items()
                    },
                    indent=2,
                )
            )
            return 0
        for name, manifest in entries.items():
            print(f"{name:20s} {manifest.description.split('. ')[0]}")
        return 0

    runner = _campaign_runner(args)
    if args.action == "validate":
        grid = runner.validate()
        shards = args.shards or runner.manifest.shards
        if args.json:
            print(
                json.dumps(
                    {
                        "name": runner.manifest.name,
                        "scenarios": len(grid),
                        "shards": shards,
                        "output": runner.out,
                        "keys": list(grid.keys()[:10]),
                    },
                    indent=2,
                )
            )
        else:
            print(
                f"{runner.manifest.name}: {len(grid)} scenarios, "
                f"{shards} shard(s), output {runner.out}"
            )
        return 0

    if args.action == "run":
        shard = _parse_shard(args.shard)
        started = time.perf_counter()
        shard_runs = runner.run(
            shard=shard,
            workers=args.workers,
            resume=not args.no_resume,
        )
        elapsed = time.perf_counter() - started
        failed = 0
        for shard_run in shard_runs:
            report = shard_run.report
            failed += report.failed
            print(
                f"{shard_run.path}: {report.ran} ran, {report.skipped} "
                f"skipped, {report.failed} failed",
                file=sys.stderr,
            )
        print(
            f"campaign {runner.manifest.name}: {len(shard_runs)} shard run(s) "
            f"in {elapsed:.1f}s wall-clock",
            file=sys.stderr,
        )
        return 1 if failed else 0

    if args.action == "status":
        status = runner.status()
        if args.json:
            print(json.dumps(status.to_dict(), indent=2))
        else:
            print(
                f"{status.name}: {status.completed}/{status.total} completed, "
                f"{status.failed} failed, {status.pending} pending"
                + (" — done" if status.done else "")
            )
            for shard in status.shards:
                label = (
                    f"shard {shard.index}/{shard.count}"
                    if shard.index is not None
                    else "(unsharded)"
                )
                print(
                    f"  {label:12s} {shard.completed}/{shard.expected} "
                    f"completed, {shard.failed} failed  {shard.path}"
                )
            if not status.shards:
                print("  no results files found yet — run the campaign first")
        return 1 if status.failed else 0

    # action == "report"
    table = runner.report()
    if args.json:
        print(json.dumps(table.to_dict(), indent=2))
    else:
        print(table.format())
    return 0


def cmd_lint(args) -> int:
    from repro.lint.cli import run

    return run(args)


def cmd_list_experiments(args) -> int:
    from repro.experiments.registry import EXPERIMENTS, list_experiments

    identifiers = list_experiments(include_heavy=not args.light)
    if args.json:
        print(
            json.dumps(
                {
                    identifier: {
                        "description": EXPERIMENTS[identifier].description,
                        "heavy": EXPERIMENTS[identifier].heavy,
                    }
                    for identifier in identifiers
                },
                indent=2,
            )
        )
        return 0
    for identifier in identifiers:
        experiment = EXPERIMENTS[identifier]
        marker = " [heavy]" if experiment.heavy else ""
        print(f"{identifier:12s} {experiment.description}{marker}")
    return 0


def cmd_bench(args) -> int:
    from repro.experiments.registry import get_experiment, list_experiments

    identifiers = args.ids or list_experiments(include_heavy=args.heavy)
    timings = {}
    for identifier in identifiers:
        experiment = get_experiment(identifier)
        started = time.perf_counter()
        experiment.driver()
        timings[identifier] = time.perf_counter() - started
        if not args.json:
            print(f"{identifier:12s} {timings[identifier]:8.2f}s  {experiment.description}")
    if args.json:
        print(json.dumps(timings, indent=2))
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------
def _add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default="one_hour",
        choices=("one_hour", "poisson", "csv", "azure", "week"),
        help="trace family: synthetic (one_hour/poisson), file replay "
             "(csv/azure), or the week-long binned trace (fluid backend only)",
    )
    parser.add_argument(
        "--backend", default="event", choices=("event", "fluid"),
        help="simulator: per-request event engine (default) or the binned "
             "fluid simulator the paper's large-scale figures use",
    )
    parser.add_argument(
        "--fluid-bin", type=float, default=None, metavar="SECONDS",
        help="bin width when the fluid backend bins a request-level trace "
             "(default 300s)",
    )
    parser.add_argument("--trace-file", default=None, metavar="PATH",
                        help="trace file to replay (implies --trace csv unless azure)")
    parser.add_argument("--resample", type=float, default=1.0,
                        help="burst-preserving rate factor for replayed traces")
    parser.add_argument("--service", default="conversation", choices=("conversation", "coding"))
    parser.add_argument("--duration", type=float, default=None, help="trace length in seconds")
    parser.add_argument("--rate-scale", type=float, default=10.0, help="load scale factor")
    parser.add_argument("--seed", type=int, default=7, help="trace RNG seed")
    parser.add_argument("--level", default="medium", choices=("low", "medium", "high"),
                        help="Poisson load level (with --trace poisson)")
    parser.add_argument("--load-multiplier", type=float, default=6.0,
                        help="Poisson level scale-up (with --trace poisson)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DynamoLLM reproduction: run scenarios, sweeps and paper artefacts.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="simulate one policy on one trace")
    run_parser.add_argument("--policy", default="DynamoLLM", help="policy name (see repro.policies)")
    _add_trace_arguments(run_parser)
    run_parser.add_argument("--slo-scale", type=float, default=None)
    run_parser.add_argument("--accuracy", type=float, default=None,
                            help="output-length predictor accuracy")
    run_parser.add_argument("--pools", type=int, default=None, help="pool-count override")
    run_parser.add_argument("--static-servers", type=int, default=None)
    run_parser.add_argument("--max-servers", type=int, default=None)
    run_parser.add_argument("--model", default=None,
                            help="model name from the catalog (see repro.llm)")
    run_parser.add_argument("--lean", action="store_true", help="skip timeline observers")
    run_parser.add_argument("--json", action="store_true")
    run_parser.set_defaults(func=cmd_run)

    sweep_parser = subparsers.add_parser("sweep", help="run a scenario grid")
    sweep_parser.add_argument(
        "--policies", default="SinglePool,DynamoLLM",
        help="comma-separated policy names",
    )
    _add_trace_arguments(sweep_parser)
    sweep_parser.add_argument("--traces", default=None, metavar="PATHS",
                              help="comma-separated trace files to replay (one grid "
                                   "dimension; --trace picks csv vs azure parsing)")
    sweep_parser.add_argument("--models", default=None,
                              help="comma-separated catalog model names (grid dimension)")
    sweep_parser.add_argument("--slo-scales", default=None, help="comma-separated, e.g. 1,2,4")
    sweep_parser.add_argument("--accuracies", default=None, help="comma-separated, e.g. 1.0,0.8")
    sweep_parser.add_argument("--pool-counts", default=None, help="comma-separated, e.g. 2,4,9")
    sweep_parser.add_argument("--workers", type=int, default=None,
                              help="parallel scenario runs (worker processes)")
    sweep_parser.add_argument("--timelines", action="store_true",
                              help="record full timelines (slower)")
    sweep_parser.add_argument("--out", default=None, metavar="PATH",
                              help="stream results to PATH as JSON Lines "
                                   "(.jsonl/.ndjson; any other extension, "
                                   ".json included, is rejected), one record "
                                   "per completed scenario, instead of "
                                   "holding every summary in memory; existing "
                                   "files are appended to, never truncated")
    sweep_parser.add_argument("--resume", action="store_true",
                              help="skip scenarios already recorded in --out "
                                   "and run only the missing ones (rerun an "
                                   "interrupted sweep; failed scenarios are "
                                   "retried)")
    sweep_parser.add_argument("--json", action="store_true")
    sweep_parser.set_defaults(func=cmd_sweep)

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="manifest-driven sensitivity campaigns (run/status/report)",
    )
    campaign_actions = campaign_parser.add_subparsers(dest="action", required=True)

    def _campaign_common(sub, with_out=True):
        sub.add_argument(
            "manifest",
            help="manifest path (.json/.toml) or bundled name (see "
                 "'campaign list')",
        )
        if with_out:
            sub.add_argument(
                "--out", default=None, metavar="PATH",
                help="override the manifest's output path (shard files "
                     "derive from it)",
            )
        sub.set_defaults(func=cmd_campaign)

    campaign_run = campaign_actions.add_parser(
        "run", help="run the campaign (or one shard) with resume"
    )
    _campaign_common(campaign_run)
    campaign_run.add_argument(
        "--shard", default=None, metavar="I/N",
        help="run only shard I of N (deterministic round-robin split; "
             "each shard streams into its own results file)",
    )
    campaign_run.add_argument("--workers", type=int, default=None,
                              help="parallel scenario runs in worker processes "
                                   "(overrides manifest)")
    campaign_run.add_argument(
        "--no-resume", action="store_true",
        help="refuse existing results instead of resuming into them "
             "(campaigns resume by default)",
    )

    campaign_status = campaign_actions.add_parser(
        "status", help="roll up per-shard completion of a campaign"
    )
    _campaign_common(campaign_status)
    campaign_status.add_argument("--json", action="store_true")

    campaign_report = campaign_actions.add_parser(
        "report", help="pivot campaign results into its sensitivity table"
    )
    _campaign_common(campaign_report)
    campaign_report.add_argument("--json", action="store_true")

    campaign_validate = campaign_actions.add_parser(
        "validate", help="expand and validate a manifest without running it"
    )
    _campaign_common(campaign_validate, with_out=False)
    campaign_validate.add_argument("--shards", type=int, default=None,
                                   help="report this shard count instead of the manifest's")
    campaign_validate.add_argument("--json", action="store_true")

    campaign_list = campaign_actions.add_parser(
        "list", help="list the bundled campaign manifests"
    )
    campaign_list.add_argument("--json", action="store_true")
    campaign_list.set_defaults(func=cmd_campaign, manifest=None)

    lint_parser = subparsers.add_parser(
        "lint",
        help="domain-aware static analysis (determinism/unit/concurrency/"
             "immutability rules)",
    )
    from repro.lint.cli import add_arguments as _add_lint_arguments

    _add_lint_arguments(lint_parser)
    lint_parser.set_defaults(func=cmd_lint)

    list_parser = subparsers.add_parser("list-experiments", help="list paper artefacts")
    list_parser.add_argument("--light", action="store_true", help="hide heavy experiments")
    list_parser.add_argument("--json", action="store_true")
    list_parser.set_defaults(func=cmd_list_experiments)

    bench_parser = subparsers.add_parser("bench", help="time registered experiments")
    bench_parser.add_argument("ids", nargs="*", help="experiment ids (default: all light)")
    bench_parser.add_argument("--heavy", action="store_true",
                              help="include heavy experiments when no ids given")
    bench_parser.add_argument("--json", action="store_true")
    bench_parser.set_defaults(func=cmd_bench)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # `repro ... | head` closes stdout early: die quietly like a
        # well-behaved filter.  Redirect stdout to devnull so the
        # interpreter's shutdown flush cannot raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (KeyError, ValueError) as error:
        # Unknown policy / experiment / trace kind: the registries raise
        # KeyError with the known names listed — show it without a traceback.
        message = error.args[0] if error.args else str(error)
        print(f"repro: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
