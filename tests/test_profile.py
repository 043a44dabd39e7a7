"""Tests for energy-performance profiles and the profiler."""

import math

import pytest

from repro.llm.catalog import LLAMA2_70B
from repro.llm.gpu import H100
from repro.perf.config import TENSOR_PARALLELISMS
from repro.perf.profile import EnergyPerformanceProfile, ProfileEntry
from repro.perf.profiler import Profiler, get_default_profile


def make_entry(**overrides):
    defaults = dict(
        request_type="MM",
        tensor_parallelism=4,
        frequency_mhz=1200,
        loads=[0.0, 1000.0, 2000.0],
        power_watts=[500.0, 900.0, 1300.0],
        energy_per_request_wh=[0.0, 0.1, 0.12],
        ttft_s=[0.05, 0.1, 0.2],
        tbt_s=[0.02, 0.03, 0.04],
        max_load_slo=1800.0,
    )
    defaults.update(overrides)
    return ProfileEntry(**defaults)


class TestProfileEntry:
    def test_interpolates_between_grid_points(self):
        entry = make_entry()
        assert entry.power_at(500.0) == pytest.approx(700.0)

    def test_clamps_outside_grid(self):
        entry = make_entry()
        assert entry.power_at(-10.0) == pytest.approx(500.0)
        assert entry.power_at(99999.0) == pytest.approx(1300.0)

    def test_supports_uses_max_load(self):
        entry = make_entry()
        assert entry.supports(1700.0)
        assert not entry.supports(1900.0)

    def test_requires_two_points(self):
        with pytest.raises(ValueError):
            make_entry(loads=[0.0], power_watts=[1.0], energy_per_request_wh=[0.0], ttft_s=[0.1], tbt_s=[0.1])

    def test_requires_increasing_loads(self):
        with pytest.raises(ValueError):
            make_entry(loads=[0.0, 0.0, 1.0])

    def test_config_property(self):
        assert make_entry().config.name == "TP4@1200MHz"


class TestEnergyPerformanceProfile:
    def test_default_profile_has_all_combinations(self, profile):
        # 9 request types x 3 TP degrees x len(frequency levels)
        frequencies = len(H100.frequency_levels())
        assert len(profile) == 9 * 3 * frequencies

    def test_request_types_listed(self, profile):
        assert len(profile.request_types()) == 9

    def test_missing_entry_raises(self, profile):
        with pytest.raises(KeyError):
            profile.entry("MM", 16, 1200)

    def test_max_load_monotone_in_frequency(self, profile):
        loads = [profile.max_load("MM", 4, f) for f in (800, 1200, 1600, 1980)]
        assert all(loads[i] <= loads[i + 1] + 1e-6 for i in range(len(loads) - 1))

    def test_max_load_monotone_in_tp(self, profile):
        assert profile.max_load("MM", 8, 1980) > profile.max_load("MM", 4, 1980)

    def test_power_increases_with_load(self, profile):
        low = profile.power("MM", 4, 1600, 200.0)
        high = profile.power("MM", 4, 1600, 2000.0)
        assert high > low

    def test_best_frequency_respects_load(self, profile):
        low_frequency = profile.best_frequency("MM", 4, 500.0)
        high_frequency = profile.best_frequency("MM", 4, profile.max_load("MM", 4, 1980) * 0.95)
        assert low_frequency is not None and high_frequency is not None
        assert high_frequency >= low_frequency

    def test_best_frequency_none_when_overloaded(self, profile):
        assert profile.best_frequency("MM", 2, 1e7) is None

    def test_instance_energy_rate_infinite_when_unsupported(self, profile):
        assert profile.instance_energy_rate("MM", 2, 800, 1e6) == float("inf")

    def test_supports_matches_max_load(self, profile):
        max_load = profile.max_load("SS", 2, 1600)
        assert profile.supports("SS", 2, 1600, max_load * 0.9)
        assert not profile.supports("SS", 2, 1600, max_load * 1.1)

    def test_ll_tp2_unsupported_at_medium_load(self, profile):
        assert not profile.supports("LL", 2, 1980, 2000.0)

    def test_frequencies_listing(self, profile):
        frequencies = profile.frequencies("MM", 4)
        assert 800 in frequencies and 1980 in frequencies

    def test_best_frequency_table_matches_explicit_list(self, profile):
        """The sorted entry table picks what the per-frequency lookups pick.

        Probed at zero load, mid-grid, exactly at each entry's SLO bound
        and one float past it, and beyond the last grid point.
        """
        for request_type in profile.request_types():
            for tp in TENSOR_PARALLELISMS:
                frequencies = profile.frequencies(request_type, tp)
                loads = {0.0}
                for frequency in frequencies:
                    entry = profile.entry(request_type, tp, frequency)
                    grid = list(entry.loads)
                    loads.update((low + high) / 2 for low, high in zip(grid, grid[1:]))
                    loads.add(grid[-1] * 1.5)
                    loads.add(entry.max_load_slo)
                    loads.add(math.nextafter(entry.max_load_slo, math.inf))
                for load in sorted(loads):
                    assert profile.best_frequency(
                        request_type, tp, load
                    ) == profile.best_frequency(request_type, tp, load, frequencies), (
                        request_type, tp, load,
                    )

    def test_add_entry_after_lookup_is_seen(self):
        profile = EnergyPerformanceProfile("toy")
        profile.add_entry(make_entry(frequency_mhz=1200))
        assert profile.best_frequency("MM", 4, 500.0) == 1200
        # A cheaper frequency added after the first lookup wins the next one.
        profile.add_entry(make_entry(frequency_mhz=800, power_watts=[400.0, 700.0, 1000.0]))
        assert profile.frequencies("MM", 4) == [800, 1200]
        assert profile.best_frequency("MM", 4, 500.0) == 800
        # Replacing an entry replaces it in the table too.
        profile.add_entry(
            make_entry(frequency_mhz=800, power_watts=[400.0, 700.0, 1000.0], max_load_slo=100.0)
        )
        assert profile.best_frequency("MM", 4, 500.0) == 1200


class TestProfiler:
    def test_partial_profile_build(self):
        profiler = Profiler(model=LLAMA2_70B, load_grid=(0.0, 1000.0, 2000.0))
        partial = profiler.build_profile(
            request_types=("MM",), tensor_parallelisms=(4,), frequencies=(1200, 1980)
        )
        assert len(partial) == 2
        assert partial.max_load("MM", 4, 1980) > 0

    def test_cached_profile_reused(self):
        profiler = Profiler(model=LLAMA2_70B, load_grid=(0.0, 500.0, 1000.0))
        first = profiler.cached_profile()
        second = profiler.cached_profile()
        assert first is second

    def test_module_cache_reused(self):
        assert get_default_profile(LLAMA2_70B) is get_default_profile(LLAMA2_70B)

    def test_relaxed_slo_profile_supports_more_load(self):
        profiler = Profiler(model=LLAMA2_70B, load_grid=(0.0, 1000.0, 2000.0, 4000.0))
        strict = profiler.build_profile(
            request_types=("MM",), tensor_parallelisms=(4,), frequencies=(1200,), slo_scale=1.0
        )
        relaxed = profiler.build_profile(
            request_types=("MM",), tensor_parallelisms=(4,), frequencies=(1200,), slo_scale=4.0
        )
        assert relaxed.max_load("MM", 4, 1200) >= strict.max_load("MM", 4, 1200)
