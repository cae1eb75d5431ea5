"""Tests for the multi-standard DRAM device catalog (PR 3).

Covers the profile registry and its validation rules, the per-standard
timing behaviours (bank-group tCCD_S/tCCD_L and tRRD_L pacing, per-bank
vs. all-bank refresh, tREFI/tRFC scaling), the threading of profiles
through ``make_system_config`` / energy, golden-stability of the DDR4-1600
default path against the PR-2 fixtures, and the ``dram-types`` study.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.dram.config import DRAMConfig
from repro.dram.channel import Channel
from repro.dram.standards import (PROFILES, STANDARD_NAMES, DeviceProfile,
                                  get_profile, list_profiles,
                                  register_profile)
from repro.dram.timings import DRAMTimings, TimingSet
from repro.energy.standard_power import STANDARD_ENERGY
from repro.experiments.engine import ExperimentScale, SimJob
from repro.experiments.figures import figure_dram_types
from repro.sim.config import config_digest, make_system_config
from repro.sim.system import run_workload
from repro.workloads.catalog import get_benchmark

GOLDEN_PATH = Path(__file__).parent / "golden" / "scheduler_equivalence.json"


# ----------------------------------------------------------------------
# Registry and profiles.
# ----------------------------------------------------------------------
class TestCatalog:
    def test_required_standards_present(self):
        assert {"DDR4-1600", "DDR4-2400", "DDR4-3200", "LPDDR4-3200",
                "HBM2", "DDR5-4800"} <= set(PROFILES)
        assert STANDARD_NAMES == tuple(PROFILES)

    def test_unknown_standard_raises(self):
        with pytest.raises(ValueError, match="unknown DRAM standard"):
            get_profile("DDR3-1333")

    def test_profiles_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            get_profile("HBM2").name = "HBM3"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_profile(get_profile("DDR4-1600"))

    def test_every_profile_builds_a_valid_config(self):
        for profile in list_profiles():
            config = profile.dram_config()
            assert config.standard == profile.name
            assert config.refresh_mode == profile.refresh_mode
            assert config.banks_per_rank == profile.banks_per_rank
            # The cycle conversion must accept every profile's table.
            TimingSet.from_timings(config.timings, config.cpu_clock_ghz)

    def test_ddr4_1600_profile_matches_historical_defaults(self):
        config = get_profile("DDR4-1600").dram_config()
        default = DRAMConfig()
        for field in dataclasses.fields(DRAMConfig):
            assert getattr(config, field.name) == \
                getattr(default, field.name), field.name


class TestProfileValidation:
    def _base_kwargs(self, **overrides):
        kwargs = dict(name="TEST", family="DDR4", data_rate_mts=1600,
                      bankgroups_per_rank=4, banks_per_bankgroup=4,
                      subarrays_per_bank=4, rows_per_subarray=128,
                      row_size_bytes=8192, timings=DRAMTimings())
        kwargs.update(overrides)
        return kwargs

    def test_valid_profile_constructs(self):
        DeviceProfile(**self._base_kwargs())

    def test_row_size_divisibility(self):
        with pytest.raises(ValueError, match="multiple of the 64 B"):
            DeviceProfile(**self._base_kwargs(row_size_bytes=100))

    def test_non_power_of_two_banks(self):
        with pytest.raises(ValueError, match="power of two"):
            DeviceProfile(**self._base_kwargs(banks_per_bankgroup=3))

    def test_tccd_split_requires_bank_groups(self):
        timings = DRAMTimings(tccd_s_ns=2.5)
        with pytest.raises(ValueError, match="single bank group"):
            DeviceProfile(**self._base_kwargs(bankgroups_per_rank=1,
                                              banks_per_bankgroup=8,
                                              timings=timings))

    def test_tccd_s_must_not_exceed_tccd_l(self):
        timings = DRAMTimings(tccd_ns=5.0, tccd_s_ns=6.0)
        with pytest.raises(ValueError, match="tCCD_S"):
            DeviceProfile(**self._base_kwargs(timings=timings))

    def test_trrd_l_must_not_be_below_trrd(self):
        timings = DRAMTimings(trrd_ns=6.25, trrd_l_ns=5.0)
        with pytest.raises(ValueError, match="tRRD_L"):
            DeviceProfile(**self._base_kwargs(timings=timings))

    def test_tfaw_trrd_consistency(self):
        timings = DRAMTimings(trrd_ns=10.0, tfaw_ns=5.0)
        with pytest.raises(ValueError, match="tFAW"):
            DeviceProfile(**self._base_kwargs(timings=timings))

    def test_per_bank_refresh_needs_trfc_pb(self):
        with pytest.raises(ValueError, match="trfc_pb_ns"):
            DeviceProfile(**self._base_kwargs(refresh_mode="per-bank"))

    def test_trefi_must_exceed_trfc(self):
        timings = DRAMTimings(trefi_ns=100.0, trfc_ns=350.0)
        with pytest.raises(ValueError, match="tREFI"):
            DeviceProfile(**self._base_kwargs(timings=timings))

    def test_negative_timing_rejected(self):
        timings = DRAMTimings(twr_ns=-1.0)
        with pytest.raises(ValueError, match="twr_ns"):
            DeviceProfile(**self._base_kwargs(timings=timings))


# ----------------------------------------------------------------------
# Bank-group timing behaviour (tCCD_S/tCCD_L, tRRD_L).
# ----------------------------------------------------------------------
def _channel_for(standard: str) -> Channel:
    config = get_profile(standard).dram_config()
    return Channel(config, 0, refresh_enabled=False)


class TestBankGroupPacing:
    def test_flat_standard_has_pacing_disabled(self):
        channel = _channel_for("DDR4-1600")
        assert not channel.bank(0)._col_pacing
        assert not channel.bank(0)._act_bg_pacing

    def test_bank_grouped_standard_has_pacing_enabled(self):
        for standard in ("DDR4-2400", "DDR4-3200", "HBM2", "DDR5-4800"):
            bank = _channel_for(standard).bank(0)
            assert bank._col_pacing, standard
            assert bank._act_bg_pacing, standard

    @staticmethod
    def _hit_gap(standard: str, first_bank: int, second_bank: int) -> int:
        """Completion gap of back-to-back row hits to two open banks."""
        channel = _channel_for(standard)
        channel.access(0, first_bank, 100, False)       # open the rows,
        channel.access(2000, second_bank, 100, False)   # well separated
        start = 10_000
        first_completion, _, first_outcome, _ = channel.access(
            start, first_bank, 100, False)
        second_completion, _, second_outcome, _ = channel.access(
            start, second_bank, 100, False)
        assert first_outcome == second_outcome == "hit"
        return second_completion - first_completion

    def test_same_group_columns_spaced_at_tccd_l(self):
        # Banks 0 and 1 share bank group 0; banks 0 and 4 are in different
        # groups.  Row hits isolate the column-command spacing.
        timing = get_profile("DDR4-3200").dram_config().slow_timing_set()
        assert timing.tccd_s < timing.tccd  # the split is real
        same_gap = self._hit_gap("DDR4-3200", 0, 1)
        cross_gap = self._hit_gap("DDR4-3200", 0, 4)
        assert same_gap == timing.tccd
        assert cross_gap == max(timing.tccd_s, timing.tbl)
        assert same_gap > cross_gap

    def test_ddr4_1600_cross_bank_gap_is_burst_limited(self):
        # The flat standard keeps the historical behaviour: consecutive
        # hit bursts are paced by bus occupancy only.
        timing = get_profile("DDR4-1600").dram_config().slow_timing_set()
        assert self._hit_gap("DDR4-1600", 0, 1) == timing.tbl

    def test_tccd_l_survives_an_interleaved_other_group_command(self):
        # bg0 -> bg1 -> bg0: the third command is paced at tCCD_L from
        # the FIRST one (per-group tracking), not tCCD_S from the second.
        profile = get_profile("DDR4-3200")
        exotic = dataclasses.replace(profile.timings, tccd_s_ns=0.625)
        config = dataclasses.replace(profile.dram_config(), timings=exotic)
        timing = config.slow_timing_set()
        assert 2 * timing.tccd_s < timing.tccd
        channel = Channel(config, 0, refresh_enabled=False)
        for bank in (0, 1, 4):                      # open the rows
            channel.access(0, bank, 100, False)
        start = 10_000
        first_completion, _, _, _ = channel.access(start, 0, 100, False)
        channel.access(start, 4, 100, False)        # other bank group
        third_completion, _, _, _ = channel.access(start, 1, 100,
                                                   False)  # bg0 again
        assert third_completion - first_completion >= timing.tccd

    def test_same_group_activates_spaced_at_trrd_l(self):
        timing = get_profile("DDR5-4800").dram_config().slow_timing_set()
        assert timing.trrd_l > timing.trrd

        same = _channel_for("DDR5-4800")
        first_completion, _, _, _ = same.access(0, 0, 100, False)
        second_completion, _, _, _ = same.access(0, 1, 200, False)
        same_gap = second_completion - first_completion

        cross = _channel_for("DDR5-4800")
        first_completion, _, _, _ = cross.access(0, 0, 100, False)
        second_completion, _, _, _ = cross.access(0, 4, 200, False)
        cross_gap = second_completion - first_completion

        assert same_gap == timing.trrd_l
        assert cross_gap < same_gap


# ----------------------------------------------------------------------
# Refresh behaviour per standard.
# ----------------------------------------------------------------------
class TestRefreshPerStandard:
    def test_all_bank_refresh_closes_every_bank(self):
        channel = _channel_for_refresh("DDR4-1600")
        timing = get_profile("DDR4-1600").dram_config().slow_timing_set()
        channel.access(0, 3, 100, False)
        assert channel.bank(3).open_row == 100
        channel.access(timing.trefi + 1, 0, 50, False)
        assert channel.counters.refreshes == 1
        assert channel.bank(3).open_row is None

    def test_per_bank_refresh_touches_only_the_target(self):
        channel = _channel_for_refresh("HBM2")
        config = get_profile("HBM2").dram_config()
        rank = channel.rank_of_bank(0)
        interval = rank.refresh_interval
        assert interval == config.slow_timing_set().trefi \
            // config.banks_per_rank
        channel.access(0, 3, 100, False)
        assert channel.bank(3).open_row == 100
        # One pending refresh; the round-robin pointer targets bank 0.
        channel.access(interval + 1, 1, 50, False)
        assert channel.counters.refreshes == 1
        assert rank.last_refreshed_bank == 0
        assert rank.refresh_bank_pointer == 1
        assert channel.bank(0).open_row is None       # refreshed
        assert channel.bank(3).open_row == 100        # untouched

    def test_per_bank_refresh_blocks_the_accessed_target(self):
        channel = _channel_for_refresh("LPDDR4-3200")
        rank = channel.rank_of_bank(0)
        interval, duration = rank.refresh_interval, rank.refresh_duration
        # Bank 0 is the refresh target; an access to it right after the
        # due cycle must wait out tRFCpb from the due slot.  The refresh
        # closed the bank, so the access is a row miss and issued at its
        # completion minus the miss latency.
        completion, _, outcome, _ = channel.access(interval + 1, 0, 10, False)
        assert outcome == "miss"
        timing = channel.config.slow_timing_set()
        assert completion - timing.row_miss_latency >= interval + duration

    def test_per_bank_catchup_does_not_serialise_the_backlog(self):
        # A long idle gap accrues many pending refreshes; they are stamped
        # at their due slots, so the bank blocked longest is only blocked
        # from its own last slot, not now + backlog * tRFCpb.
        channel = _channel_for_refresh("HBM2")
        rank = channel.rank_of_bank(0)
        interval, duration = rank.refresh_interval, rank.refresh_duration
        gap = 50 * interval
        completion, _, _, _ = channel.access(gap + 1, 0, 10, False)
        assert channel.counters.refreshes == 50
        assert completion < gap + 2 * (interval + duration)

    def test_trefi_scaling_changes_refresh_count(self):
        # Halving tREFI doubles the refreshes observed over the same span.
        base_profile = get_profile("DDR4-1600")
        fast_refresh = dataclasses.replace(base_profile.timings,
                                           trefi_ns=3900.0)
        slow = DRAMConfig.from_profile(base_profile)
        fast = dataclasses.replace(slow, timings=fast_refresh)
        span = slow.slow_timing_set().trefi * 6 + 1
        counts = []
        for config in (slow, fast):
            channel = Channel(config, 0, refresh_enabled=True)
            channel.access(span, 0, 10, False)
            counts.append(channel.counters.refreshes)
        assert counts[1] == 2 * counts[0]

    def test_refresh_disabled_per_bank_mode(self):
        config = get_profile("LPDDR4-3200").dram_config()
        channel = Channel(config, 0, refresh_enabled=False)
        channel.access(10 ** 7, 0, 10, False)
        assert channel.counters.refreshes == 0


def _channel_for_refresh(standard: str) -> Channel:
    return Channel(get_profile(standard).dram_config(), 0,
                   refresh_enabled=True)


# ----------------------------------------------------------------------
# Threading through the system configuration and energy model.
# ----------------------------------------------------------------------
class TestSystemThreading:
    def test_standard_flows_into_config_and_digest(self):
        default = make_system_config("Base")
        explicit = make_system_config("Base", standard="DDR4-1600")
        hbm = make_system_config("Base", standard="HBM2")
        assert default == explicit
        assert config_digest(default) == config_digest(explicit)
        assert hbm.standard == "HBM2"
        assert hbm.dram.standard == "HBM2"
        assert config_digest(hbm) != config_digest(default)

    def test_profile_energy_params_are_threaded(self):
        hbm = make_system_config("Base", standard="HBM2")
        assert hbm.dram_energy == STANDARD_ENERGY["HBM2"]

    def test_sim_jobs_key_on_standard(self):
        scale = ExperimentScale.tiny()
        a = SimJob.single_core("Base", "lbm", scale)
        b = SimJob.single_core("Base", "lbm", scale, standard="DDR5-4800")
        assert a.key() != b.key()

    def test_energy_differs_per_standard(self):
        trace = [get_benchmark("lbm").make_trace(400)]
        ddr4 = run_workload(make_system_config("Base"), trace, "lbm")
        hbm = run_workload(make_system_config("Base", standard="HBM2"),
                          trace, "lbm")
        # HBM2's per-access and background energy are far lower; even with
        # different cycle counts the DRAM share must drop.
        assert hbm.energy.dram_nj < ddr4.energy.dram_nj


# ----------------------------------------------------------------------
# Golden stability: the catalog must not disturb the DDR4-1600 path.
# ----------------------------------------------------------------------
class TestGoldenStability:
    def test_default_standard_reproduces_pr2_fixture(self):
        with GOLDEN_PATH.open(encoding="utf-8") as handle:
            golden = json.load(handle)
        key = "single:Base:gcc"
        scale = ExperimentScale.smoke()
        config = make_system_config("Base", channels=1,
                                    standard="DDR4-1600")
        traces = [get_benchmark("gcc").make_trace(scale.single_core_records)]
        assert run_workload(config, traces, "gcc").to_dict() == golden[key]


# ----------------------------------------------------------------------
# The dram-types study.
# ----------------------------------------------------------------------
class TestDramTypesStudy:
    def test_structure_and_positive_speedups(self):
        scale = ExperimentScale.tiny()
        data = figure_dram_types(
            scale, standards=("DDR4-1600", "LPDDR4-3200", "HBM2"),
            benchmarks=("lbm", "mcf"))
        assert data["columns"][0] == "standard"
        # Two non-Base configurations per standard.
        assert len(data["rows"]) == 3 * 2
        standards_seen = {row[0] for row in data["rows"]}
        assert standards_seen == {"DDR4-1600", "LPDDR4-3200", "HBM2"}
        for row in data["rows"]:
            assert row[3] in ("FIGCache-Fast", "LISA-VILLA")
            assert row[4] > 0.0

    def test_figcache_improves_over_base_on_every_standard(self):
        # The headline acceptance claim, at a scale where the in-DRAM
        # cache actually warms up (default-scale trace length).  Two
        # benchmarks keep this affordable; the full six-benchmark study
        # is the CLI run (`python -m repro run-figure dram-types`).
        data = figure_dram_types(ExperimentScale(),
                                 configurations=("FIGCache-Fast",),
                                 benchmarks=("lbm", "bwaves"))
        speedups = {row[0]: row[4] for row in data["rows"]}
        assert set(speedups) == set(STANDARD_NAMES)
        for standard, speedup in speedups.items():
            assert speedup > 1.0, (standard, speedup)

    def test_cli_exposes_dram_types(self):
        from repro.cli import FIGURE_CHOICES, build_parser
        assert "dram-types" in FIGURE_CHOICES
        args = build_parser().parse_args(["run-figure", "dram-types"])
        assert args.figure == "dram-types"
