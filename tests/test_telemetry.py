"""Tests for the unified telemetry pipeline (PR 4).

Covers the exact latency histograms, the epoch time-series sampler, the
observation-must-not-perturb guarantee (golden fixtures bit-identical with
telemetry ON), serialisation round trips through the result cache format,
the fixed configuration names, and the tolerant
``from_dict`` fallbacks for older cached payloads.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.engine import ExperimentScale
from repro.experiments.figures import figure_latency
from repro.sim.config import CONFIGURATION_NAMES, make_system_config
from repro.sim.metrics import CoreResult, SimulationResult
from repro.sim.system import run_workload
from repro.sim.telemetry import (DEFAULT_EPOCH_CYCLES, EpochSeries,
                                 LatencyHistogram, TelemetryConfig,
                                 TelemetryResult)
from repro.workloads.catalog import get_benchmark

GOLDEN_PATH = Path(__file__).parent / "golden" / "scheduler_equivalence.json"


def _run_single(configuration: str, benchmark: str = "lbm",
                records: int = 1500, **overrides):
    trace = [get_benchmark(benchmark).make_trace(records)]
    config = make_system_config(configuration, **overrides)
    return run_workload(config, trace, benchmark)


# ----------------------------------------------------------------------
# Latency histograms.
# ----------------------------------------------------------------------
class TestLatencyHistogram:
    def test_exact_percentiles_match_sorted_list(self):
        import math
        import random
        rng = random.Random(7)
        values = [rng.randrange(0, 2000) for _ in range(1234)]
        histogram = LatencyHistogram()
        for value in values:
            histogram.record(value)
        ordered = sorted(values)
        for fraction in (0.5, 0.9, 0.95, 0.99, 1.0):
            # Nearest-rank definition: value at ceil(fraction * count).
            rank = max(1, math.ceil(round(fraction * len(values), 9)))
            assert histogram.percentile(fraction) == ordered[rank - 1], \
                fraction

    def test_empty_histogram_is_all_zero(self):
        histogram = LatencyHistogram()
        assert histogram.count == 0
        assert histogram.mean == 0.0
        assert histogram.percentile(0.99) == 0
        assert histogram.max == 0
        assert histogram.buckets() == []

    def test_mean_and_total_are_exact(self):
        histogram = LatencyHistogram()
        histogram.record(100, count=3)
        histogram.record(7)
        assert histogram.count == 4
        assert histogram.total == 307
        assert histogram.mean == 307 / 4

    def test_percentile_float_noise_does_not_inflate_rank(self):
        histogram = LatencyHistogram()
        for value in range(1, 101):  # 100 distinct latencies 1..100
            histogram.record(value)
        # 0.99 * 100 == 99.00000000000001 in floating point; the rank must
        # still be 99, not 100.
        assert histogram.percentile(0.99) == 99

    def test_power_of_two_buckets(self):
        histogram = LatencyHistogram()
        for value, count in ((0, 2), (1, 1), (2, 1), (3, 1), (4, 1),
                             (9, 5)):
            histogram.record(value, count)
        buckets = histogram.buckets()
        # Inclusive lower bounds: 0, 1, [2,4), [4,8), [8,16).
        assert buckets == [(0, 2), (1, 1), (2, 2), (4, 1), (8, 5)]
        assert sum(count for _, count in buckets) == histogram.count

    def test_merge_and_round_trip(self):
        first = LatencyHistogram({10: 2, 20: 1})
        second = LatencyHistogram({20: 3, 30: 1})
        first.merge(second)
        assert first.counts == {10: 2, 20: 4, 30: 1}
        rebuilt = LatencyHistogram.from_dict(
            json.loads(json.dumps(first.to_dict())))
        assert rebuilt.counts == first.counts

    def test_invalid_inputs_rejected(self):
        histogram = LatencyHistogram()
        with pytest.raises(ValueError):
            histogram.record(-1)
        with pytest.raises(ValueError):
            histogram.percentile(0.0)
        with pytest.raises(ValueError):
            histogram.percentile(1.5)


# ----------------------------------------------------------------------
# End-to-end collection.
# ----------------------------------------------------------------------
class TestTelemetryCollection:
    def test_off_by_default(self):
        result = _run_single("Base")
        assert result.telemetry is None
        assert "telemetry" not in result.to_dict()

    def test_histograms_back_the_mean_latency_metric(self):
        result = _run_single("FIGCache-Fast", telemetry=True)
        telemetry = result.telemetry
        assert telemetry is not None
        assert telemetry.read_latency.count == result.memory_reads
        assert telemetry.write_latency.count == result.memory_writes
        assert telemetry.read_latency.mean \
            == result.average_read_latency_cycles

    def test_epoch_deltas_sum_to_totals(self):
        result = _run_single("FIGCache-Fast", records=4000, telemetry=True,
                             telemetry_epoch_cycles=10_000)
        epochs = result.telemetry.epochs
        assert len(epochs) >= 2
        assert sum(epochs.instructions) == result.instructions
        assert sum(epochs.reads) == result.memory_reads
        assert sum(epochs.writes) == result.memory_writes
        assert sum(epochs.cache_lookups) == result.cache_lookups
        assert sum(epochs.cache_hits) == result.cache_hits
        counters = result.dram_counters
        assert sum(epochs.row_hits) == counters.row_hits
        assert sum(epochs.row_misses) == counters.row_misses
        assert sum(epochs.row_conflicts) == counters.row_conflicts

    def test_epoch_deltas_sum_to_totals_across_channels(self):
        """The sampler sums every channel's controller, DRAM and
        mechanism counters, so multi-channel epochs add up too."""
        config = make_system_config("FIGCache-Fast", channels=4,
                                    telemetry=True,
                                    telemetry_epoch_cycles=5_000)
        traces = [get_benchmark(name).make_trace(1500)
                  for name in ("lbm", "mcf", "lbm", "mcf")]
        result = run_workload(config, traces, "lbm-mcf-x2")
        epochs = result.telemetry.epochs
        assert len(epochs) >= 2
        assert all(len(depths) == 4 for depths in epochs.queue_depths)
        assert sum(epochs.instructions) == result.instructions
        assert sum(epochs.reads) == result.memory_reads
        assert sum(epochs.writes) == result.memory_writes
        assert sum(epochs.cache_lookups) == result.cache_lookups
        assert sum(epochs.cache_hits) == result.cache_hits
        counters = result.dram_counters
        assert sum(epochs.row_hits) == counters.row_hits
        assert sum(epochs.row_misses) == counters.row_misses
        assert sum(epochs.row_conflicts) == counters.row_conflicts

    def test_epoch_boundaries_and_final_partial_epoch(self):
        epoch = 10_000
        result = _run_single("Base", records=4000, telemetry=True,
                             telemetry_epoch_cycles=epoch)
        ends = result.telemetry.epochs.end_cycle
        assert all(later > earlier
                   for earlier, later in zip(ends, ends[1:]))
        assert all(end % epoch == 0 for end in ends[:-1])
        # The trailing sample covers the drain: it ends at or after the
        # last full boundary and is not in the future.
        assert ends[-1] >= len(ends[:-1]) * epoch

    def test_queue_depths_one_entry_per_channel(self):
        result = _run_single("Base", telemetry=True, channels=2)
        for depths in result.telemetry.epochs.queue_depths:
            assert len(depths) == 2

    def test_rows_derive_rates(self):
        result = _run_single("FIGCache-Fast", records=4000, telemetry=True,
                             telemetry_epoch_cycles=10_000)
        telemetry = result.telemetry
        rows = telemetry.epochs.rows(telemetry.cpu_clock_ghz)
        assert len(rows) == len(telemetry.epochs)
        for row in rows:
            assert 0.0 <= row["row_buffer_hit_rate"] <= 1.0
            assert 0.0 <= row["cache_hit_rate"] <= 1.0
            assert row["ipc"] >= 0.0
            assert row["read_gbps"] >= 0.0

    def test_result_round_trip_with_telemetry(self):
        result = _run_single("LISA-VILLA", telemetry=True)
        payload = json.loads(json.dumps(result.to_dict()))
        rebuilt = SimulationResult.from_dict(payload)
        assert rebuilt.to_dict() == result.to_dict()
        assert rebuilt.telemetry.read_latency.counts \
            == result.telemetry.read_latency.counts

    def test_custom_probe_sampled_every_epoch(self):
        from repro.sim.simulator import Simulator
        from repro.sim.system import System
        from repro.sim.telemetry import Telemetry

        config = make_system_config("Base", telemetry=True,
                                    telemetry_epoch_cycles=10_000)
        trace = [get_benchmark("lbm").make_trace(4000)]
        system = System(config, trace)
        telemetry = Telemetry(config.telemetry, system.cores,
                              system.channel_controllers)
        cycles_seen = []
        telemetry.add_probe("boundary", lambda cycle:
                            (cycles_seen.append(cycle), cycle)[1])
        with pytest.raises(ValueError):
            telemetry.add_probe("boundary", lambda cycle: cycle)
        Simulator(system.cores, system.channel_controllers,
                  system.device.mapper, telemetry=telemetry).run()
        assert telemetry.series.extra["boundary"] \
            == telemetry.series.end_cycle
        assert cycles_seen == telemetry.series.end_cycle

    def test_telemetry_config_validation(self):
        with pytest.raises(ValueError):
            TelemetryConfig(epoch_cycles=0)


# ----------------------------------------------------------------------
# Observation must not perturb simulation.
# ----------------------------------------------------------------------
class TestGoldenStabilityWithTelemetryOn:
    """Pre-PR-2 golden results reproduce bit for bit with telemetry ON."""

    with GOLDEN_PATH.open(encoding="utf-8") as _handle:
        GOLDEN = json.load(_handle)

    @pytest.mark.parametrize("key", sorted(
        key for key in GOLDEN if key.startswith("single:")))
    def test_single_core_golden_unchanged(self, key):
        scale = ExperimentScale.smoke()
        _, configuration, workload = key.split(":", 2)
        config = make_system_config(configuration, channels=1,
                                    telemetry=True,
                                    telemetry_epoch_cycles=10_000)
        traces = [get_benchmark(workload)
                  .make_trace(scale.single_core_records)]
        observed = run_workload(config, traces, workload).to_dict()
        telemetry = observed.pop("telemetry")
        assert observed == self.GOLDEN[key], \
            f"telemetry perturbed {key}"
        assert telemetry["read_latency"]["counts"], \
            "telemetry section should have recorded read latencies"


# ----------------------------------------------------------------------
# Configuration names (satellite).
# ----------------------------------------------------------------------
class TestConfigurationRegistry:
    def test_builtin_names_in_presentation_order(self):
        assert CONFIGURATION_NAMES == (
            "Base", "LISA-VILLA", "FIGCache-Slow", "FIGCache-Fast",
            "FIGCache-Ideal", "LL-DRAM")

    def test_unknown_configuration_rejected(self):
        with pytest.raises(ValueError, match="unknown configuration"):
            make_system_config("NoSuchConfig")


# ----------------------------------------------------------------------
# Tolerant from_dict (satellite).
# ----------------------------------------------------------------------
class TestFromDictTolerance:
    def test_result_missing_newer_fields_falls_back_to_defaults(self):
        payload = {
            "configuration": "Base",
            "workload": "lbm",
            "cores": [{"core_id": 0, "instructions": 10, "cycles": 20}],
            "total_cycles": 20,
        }
        result = SimulationResult.from_dict(payload)
        assert result.elapsed_ns == 0.0
        assert result.memory_reads == 0
        assert result.relocation_cycles == 0
        assert result.dram_counters.activates == 0
        assert result.energy is None
        assert result.telemetry is None
        assert result.cores[0].llc_misses == 0
        assert result.cores[0].memory_instructions == 0

    def test_counters_missing_fields_fall_back_to_zero(self):
        from repro.dram.counters import CommandCounters
        counters = CommandCounters.from_dict({"reads": 5})
        assert counters.reads == 5
        assert counters.activates == 0
        assert counters.row_hits == 0

    def test_identity_fields_still_required(self):
        with pytest.raises(KeyError):
            SimulationResult.from_dict({"workload": "lbm", "cores": [],
                                        "total_cycles": 0})

    def test_newer_telemetry_schema_treated_as_absent(self):
        result = _run_single("Base", records=400, telemetry=True)
        payload = result.to_dict()
        payload["telemetry"]["version"] = 99
        rebuilt = SimulationResult.from_dict(payload)
        assert rebuilt.telemetry is None

    def test_core_result_round_trip(self):
        core = CoreResult(core_id=1, instructions=5, cycles=9,
                          llc_misses=2, memory_instructions=3)
        assert CoreResult.from_dict(core.to_dict()) == core


# ----------------------------------------------------------------------
# The latency study.
# ----------------------------------------------------------------------
class TestLatencyStudy:
    def test_smoke_scale_reports_percentile_rows(self):
        from repro.experiments import engine
        engine.reset()
        try:
            data = figure_latency(ExperimentScale.tiny())
        finally:
            engine.reset()
        assert data["columns"] == ["category", "configuration", "p50",
                                   "p95", "p99", "max", "mean"]
        configurations = {row[1] for row in data["rows"]}
        assert {"Base", "FIGCache-Fast", "LISA-VILLA"} <= configurations
        for row in data["rows"]:
            _, _, p50, p95, p99, maximum, mean = row
            assert 0 < p50 <= p95 <= p99 <= maximum
            assert mean > 0

    def test_figcache_fast_cuts_p99_on_memory_intensive_set(self):
        """The acceptance claim, at the default (paper) scale."""
        from repro.experiments import engine
        engine.reset()
        try:
            data = figure_latency()
        finally:
            engine.reset()
        by_key = {(row[0], row[1]): row for row in data["rows"]}
        base = by_key[("Memory Intensive", "Base")]
        figcache = by_key[("Memory Intensive", "FIGCache-Fast")]
        assert figcache[4] < base[4], \
            f"FIGCache-Fast p99 {figcache[4]} !< Base p99 {base[4]}"


# ----------------------------------------------------------------------
# EpochSeries serialisation.
# ----------------------------------------------------------------------
class TestEpochSeries:
    def test_round_trip_preserves_columns_and_extra(self):
        series = EpochSeries()
        series.end_cycle[:] = [100, 200]
        series.instructions[:] = [10, 20]
        series.reads[:] = [1, 2]
        series.writes[:] = [0, 1]
        series.row_hits[:] = [1, 1]
        series.row_misses[:] = [0, 1]
        series.row_conflicts[:] = [0, 0]
        series.cache_lookups[:] = [1, 2]
        series.cache_hits[:] = [0, 2]
        series.queue_depths[:] = [[0], [3]]
        series.extra["probe"] = [7, 8]
        rebuilt = EpochSeries.from_dict(
            json.loads(json.dumps(series.to_dict())))
        assert rebuilt == series

    def test_from_dict_tolerates_missing_columns(self):
        rebuilt = EpochSeries.from_dict({"end_cycle": [100]})
        assert rebuilt.end_cycle == [100]
        assert rebuilt.instructions == []
        assert rebuilt.queue_depths == []

    def test_telemetry_result_from_dict_defaults(self):
        rebuilt = TelemetryResult.from_dict({})
        assert rebuilt.epoch_cycles == DEFAULT_EPOCH_CYCLES
        assert rebuilt.read_latency.count == 0
        assert len(rebuilt.epochs) == 0
