"""Windowed, columnar trace synthesis against the per-element reference.

``TraceSpec.build`` / ``build_bins`` synthesise only the bins that cover
``duration_s`` and post-process each bin as numpy columns.  The
reference below is the straightforward generator they replace: the
whole hour or week, Python ``round``/``min``/``max`` per sample,
``classify_length`` per sample, then ``Trace.slice`` or ``clip_bins``.
Both must produce the same requests, bins and trace names.
"""

import itertools
import math
import os
import subprocess
import sys

import pytest

import repro
from repro.api import TraceSpec
from repro.workload.classification import (
    REQUEST_TYPES,
    classify_length,
    classify_lengths,
)
from repro.workload.request import Request
from repro.workload.synthetic import (
    SECONDS_PER_DAY,
    SECONDS_PER_HOUR,
    SECONDS_PER_WEEK,
    SyntheticTraceGenerator,
    get_service_profile,
)
from repro.workload.traces import Trace, TraceBin, clip_bins

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SERVICES = ("coding", "conversation")
HOUR_DURATIONS = (None, 60.0, 600.0, 605.0, 3599.0, 3600.0, 7200.0)
WEEK_DURATIONS = (None, 7200.0, 14400.0, 86550.0)


# ----------------------------------------------------------------------
# Reference: the per-element generator
# ----------------------------------------------------------------------
def _reference_lengths(generator, count, time_s):
    profile = generator.profile
    hour = (time_s % SECONDS_PER_DAY) / SECONDS_PER_HOUR
    drift = 1.0 + 0.25 * math.sin(2.0 * math.pi * (hour - 6.0) / 24.0)
    rng = generator._rng.generator
    inputs = rng.lognormal(
        mean=math.log(profile.input_median * drift), sigma=profile.input_sigma, size=count
    )
    outputs = rng.lognormal(
        mean=math.log(profile.output_median * drift), sigma=profile.output_sigma, size=count
    )
    return [
        (
            int(min(profile.max_input_tokens, max(4, round(raw_in)))),
            int(min(profile.max_output_tokens, max(2, round(raw_out)))),
        )
        for raw_in, raw_out in zip(inputs, outputs)
    ]


def _reference_requests(generator, duration_s, start_offset_s, bin_seconds=10.0):
    requests = []
    rng = generator._rng.generator
    for index in range(int(math.ceil(duration_s / bin_seconds))):
        bin_start = index * bin_seconds
        count = int(rng.poisson(generator._bin_rate(start_offset_s + bin_start, bin_seconds)))
        if count == 0:
            continue
        offsets = sorted(rng.uniform(0.0, bin_seconds, size=count))
        lengths = _reference_lengths(generator, count, start_offset_s + bin_start)
        for offset, (n_in, n_out) in zip(offsets, lengths):
            requests.append(
                Request(
                    arrival_time=bin_start + float(offset),
                    input_tokens=n_in,
                    output_tokens=n_out,
                    service=generator.profile.name,
                )
            )
    return Trace(name=f"{generator.profile.name}-{duration_s / 3600.0:.0f}h", requests=requests)


def _reference_hour(service, rate_scale, seed):
    generator = SyntheticTraceGenerator(
        get_service_profile(service), seed=seed, rate_scale=rate_scale
    )
    return _reference_requests(
        generator, SECONDS_PER_HOUR, SECONDS_PER_DAY + 12.5 * SECONDS_PER_HOUR
    )


def _reference_window(full, duration_s):
    if duration_s is not None and duration_s < full.duration:
        return full.slice(0.0, duration_s)
    return full


def _reference_bins(generator, duration_s, bin_seconds, samples_per_bin=64):
    bins = []
    for index in range(int(math.ceil(duration_s / bin_seconds))):
        bin_start = index * bin_seconds
        count = max(0, int(round(generator._bin_rate(bin_start, bin_seconds))))
        count_by_type, tokens_by_type = {}, {}
        input_tokens = output_tokens = 0
        if count > 0:
            samples = _reference_lengths(
                generator, min(samples_per_bin, max(8, count)), bin_start
            )
            weight = count / len(samples)
            for n_in, n_out in samples:
                name = classify_length(n_in, n_out).name
                count_by_type[name] = count_by_type.get(name, 0) + 1
                tokens_by_type[name] = tokens_by_type.get(name, 0) + n_in + n_out
                input_tokens += n_in
                output_tokens += n_out
            count_by_type = {k: int(round(v * weight)) for k, v in count_by_type.items()}
            tokens_by_type = {k: int(round(v * weight)) for k, v in tokens_by_type.items()}
            input_tokens = int(round(input_tokens * weight))
            output_tokens = int(round(output_tokens * weight))
        bins.append(
            TraceBin(
                start_time=bin_start,
                duration=bin_seconds,
                request_count=count,
                input_tokens=input_tokens,
                output_tokens=output_tokens,
                count_by_type=count_by_type,
                tokens_by_type=tokens_by_type,
            )
        )
    return bins


def _rows(trace):
    return [
        (r.arrival_time, r.input_tokens, r.output_tokens, r.service, r.slo_scale)
        for r in trace.requests
    ]


def _bin_rows(bins):
    # Item lists, not dicts: the per-type maps must also match in order.
    return [
        (
            b.start_time,
            b.duration,
            b.request_count,
            b.input_tokens,
            b.output_tokens,
            list(b.count_by_type.items()),
            list(b.tokens_by_type.items()),
        )
        for b in bins
    ]


# ----------------------------------------------------------------------
# Request-level traces
# ----------------------------------------------------------------------
# rate_scale 0.02 leaves most 10 s bins empty, so deciding the name walks
# past empty bins after the window.
@pytest.mark.parametrize("service", SERVICES)
@pytest.mark.parametrize("rate_scale", (0.02, 1.0, 6.0, 8.0))
@pytest.mark.parametrize("seed", (0, 1, 2, 3))
def test_one_hour_window_matches_reference(service, rate_scale, seed):
    full = _reference_hour(service, rate_scale, seed)
    for duration_s in HOUR_DURATIONS:
        expected = _reference_window(full, duration_s)
        built = TraceSpec(
            kind="one_hour",
            service=service,
            rate_scale=rate_scale,
            seed=seed,
            duration_s=duration_s,
        ).build()
        assert built.name == expected.name, duration_s
        assert _rows(built) == _rows(expected), duration_s


def test_window_past_the_last_arrival_keeps_the_full_name():
    # The hour's last arrival is before 3599 s, so nothing is clipped.
    spec = TraceSpec(kind="one_hour", service="coding", rate_scale=1.0, seed=0, duration_s=3599.0)
    full = _reference_hour("coding", 1.0, 0)
    assert full.duration < 3599.0
    built = spec.build()
    assert built.name == "coding-1h"
    assert _rows(built) == _rows(full)


# ----------------------------------------------------------------------
# Week-long binned traces
# ----------------------------------------------------------------------
@pytest.mark.parametrize("service", SERVICES)
@pytest.mark.parametrize("bin_seconds", (300.0, 900.0))
@pytest.mark.parametrize("rate_scale,seed", ((40.0, 3), (0.002, 5)))
def test_week_window_matches_reference(service, bin_seconds, rate_scale, seed):
    generator = SyntheticTraceGenerator(
        get_service_profile(service), seed=seed, rate_scale=rate_scale
    )
    full = _reference_bins(generator, SECONDS_PER_WEEK, bin_seconds)
    for duration_s in WEEK_DURATIONS:
        expected = full if duration_s is None else clip_bins(full, duration_s)
        built = TraceSpec(
            kind="week",
            service=service,
            rate_scale=rate_scale,
            seed=seed,
            duration_s=duration_s,
        ).build_bins(bin_seconds)
        assert _bin_rows(built) == _bin_rows(expected), duration_s


# ----------------------------------------------------------------------
# Vectorised classification
# ----------------------------------------------------------------------
def test_classify_lengths_matches_classify_length_at_every_edge():
    # Threshold edges plus the synthetic clip floors (4 / 2) and caps.
    inputs = (4, 255, 256, 1023, 1024, 8191, 8192)
    outputs = (2, 99, 100, 349, 350, 2047, 2048)
    pairs = list(itertools.product(inputs, outputs))
    codes = classify_lengths([p[0] for p in pairs], [p[1] for p in pairs])
    assert [REQUEST_TYPES[code] for code in codes.tolist()] == [
        classify_length(n_in, n_out) for n_in, n_out in pairs
    ]


# ----------------------------------------------------------------------
# Fluid results do not depend on the string-hash seed
# ----------------------------------------------------------------------
_FLUID_PROBE = """
import json
from repro.api import Scenario, TraceSpec, run_scenario, summary_record
trace = TraceSpec(kind="week", service="conversation", rate_scale=40.0, seed=3, duration_s=86400.0)
summary = run_scenario(Scenario(policy="DynamoLLM", trace=trace, backend="fluid"), lean=True)
record = summary_record("probe", summary)
print(json.dumps([record["energy_kwh"], record["carbon_kg"], record["cost_usd"]]))
"""


def _fluid_probe(hash_seed):
    completed = subprocess.run(
        [sys.executable, "-c", _FLUID_PROBE],
        env={**os.environ, "PYTHONPATH": SRC_DIR, "PYTHONHASHSEED": hash_seed},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout.strip().splitlines()[-1]


def test_fluid_totals_are_bit_equal_across_hash_seeds():
    # Hash seed 4 iterated the pools in another order than seed 0 and
    # changed the last digit of energy_kwh; JSON floats round-trip exactly.
    assert _fluid_probe("0") == _fluid_probe("4")
