"""Integration tests: system assembly, the event-driven simulator, metrics,
and the experiment runners."""

import json
from pathlib import Path

import pytest

from repro.cli import FIGURE_CHOICES
from repro.experiments import (ExperimentScale, engine, figure7_single_core,
                               figure14_replacement_policy, format_table,
                               rowhammer_activation_study,
                               section42_reloc_timing, section83_overhead,
                               table1_configuration, table2_workloads)
from repro.experiments.figures import (FIGURES, NAMED_FIGURES,
                                       design_space_sweep)
from repro.experiments.runner import geometric_mean
from repro.sim import (CONFIGURATION_NAMES, SystemConfig, make_mechanism,
                       make_system_config, run_workload, weighted_speedup)
from repro.sim.metrics import speedup_over
from repro.workloads import get_benchmark
from repro.workloads.multiprogram import make_multiprogrammed_workload

RECORDS = 2500

#: Title, columns and rows of every ``run-figure`` runner and of
#: ``sweep --segment-blocks 8,16,32 --cache-rows 32,64`` at
#: ``ExperimentScale.tiny()``.
FIGURE_TABLES = json.loads(
    (Path(__file__).parent / "golden" / "figures_tiny.json").read_text())


def quick_result(configuration, benchmark="lbm", records=RECORDS, **overrides):
    spec = get_benchmark(benchmark)
    trace = spec.make_trace(records)
    config = make_system_config(configuration, channels=1, **overrides)
    return run_workload(config, [trace], benchmark)


class TestSystemConfig:
    def test_all_named_configurations_build(self):
        for name in CONFIGURATION_NAMES:
            config = make_system_config(name, channels=1)
            assert isinstance(config, SystemConfig)
            mechanisms = make_mechanism(config)
            assert len(mechanisms) == 1

    def test_unknown_configuration_rejected(self):
        with pytest.raises(ValueError):
            make_system_config("FancyCache")

    def test_lisa_villa_gets_16_fast_subarrays(self):
        config = make_system_config("LISA-VILLA")
        assert config.dram.fast_subarrays_per_bank == 16
        assert config.dram.fast_rows_per_bank == 512

    def test_figcache_fast_gets_enough_fast_rows(self):
        config = make_system_config("FIGCache-Fast", cache_rows_per_bank=128)
        assert config.dram.fast_rows_per_bank >= 128

    def test_ll_dram_marks_all_subarrays_fast(self):
        config = make_system_config("LL-DRAM")
        assert config.dram.all_subarrays_fast


class TestEndToEndSimulation:
    def test_base_run_produces_consistent_metrics(self):
        result = quick_result("Base")
        assert result.cores[0].instructions > 0
        assert result.total_cycles > 0
        assert 0.0 < result.cores[0].ipc < 3.0
        assert result.memory_reads > 0
        assert result.energy is not None and result.energy.total_nj > 0
        assert result.in_dram_cache_hit_rate == 0.0

    def test_simulation_is_deterministic(self):
        a = quick_result("FIGCache-Fast", records=1200)
        b = quick_result("FIGCache-Fast", records=1200)
        assert a.total_cycles == b.total_cycles
        assert a.dram_counters.activates == b.dram_counters.activates

    def test_figcache_fast_beats_base_on_intensive_workload(self):
        base = quick_result("Base", records=6000)
        fig = quick_result("FIGCache-Fast", records=6000)
        assert fig.in_dram_cache_hit_rate > 0.5
        assert speedup_over(fig, base) > 1.0

    def test_ll_dram_is_the_performance_upper_bound(self):
        base = quick_result("Base", records=4000)
        ll = quick_result("LL-DRAM", records=4000)
        fig = quick_result("FIGCache-Fast", records=4000)
        assert speedup_over(ll, base) >= speedup_over(fig, base) - 0.02

    def test_figcache_ideal_at_least_matches_fast(self):
        fast = quick_result("FIGCache-Fast", records=4000)
        ideal = quick_result("FIGCache-Ideal", records=4000)
        assert ideal.cores[0].ipc >= fast.cores[0].ipc - 0.02

    def test_all_configurations_complete_on_multicore_mix(self):
        workload = make_multiprogrammed_workload(1.0, 0, num_cores=4)
        traces = workload.make_traces(800)
        for name in CONFIGURATION_NAMES:
            config = make_system_config(name, channels=2)
            result = run_workload(config, traces, workload.name)
            assert len(result.cores) == 4
            assert all(core.ipc > 0 for core in result.cores)

    def test_refresh_can_be_disabled(self):
        with_refresh = quick_result("Base", records=2000)
        without = quick_result("Base", records=2000, refresh_enabled=False)
        assert without.dram_counters.refreshes == 0
        assert with_refresh.dram_counters.refreshes >= 0

    def test_memory_writes_counted(self):
        result = quick_result("Base", benchmark="lbm", records=4000)
        assert result.memory_writes > 0

    def test_relocations_recorded_for_figcache(self):
        result = quick_result("FIGCache-Fast", records=3000)
        assert result.relocation_operations > 0
        assert result.dram_counters.relocs > 0


class TestMetrics:
    def test_weighted_speedup_identity(self):
        result = quick_result("Base", records=1500)
        alone = [result.cores[0].ipc]
        assert weighted_speedup(result, alone) == pytest.approx(1.0)

    def test_weighted_speedup_validates_input(self):
        result = quick_result("Base", records=1200)
        with pytest.raises(ValueError):
            weighted_speedup(result, [1.0, 1.0])
        with pytest.raises(ValueError):
            weighted_speedup(result, [0.0])

    def test_row_buffer_hit_rate_in_unit_range(self):
        result = quick_result("Base", records=1500)
        assert 0.0 <= result.row_buffer_hit_rate <= 1.0

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            geometric_mean([1.0, -1.0])


class TestExperimentRunners:
    def test_figure7_smoke(self):
        data = figure7_single_core(ExperimentScale.smoke())
        assert data["figure"] == "Figure 7"
        configurations = {row[1] for row in data["rows"]}
        assert "FIGCache-Fast" in configurations
        assert all(row[2] > 0 for row in data["rows"])

    def test_table1_lists_figaro_and_figcache(self):
        data = table1_configuration()
        text = format_table("Table 1", data["columns"], data["rows"])
        assert "FIGARO" in text
        assert "FIGCache" in text

    def test_table2_reports_all_benchmarks(self):
        data = table2_workloads(records=800)
        assert len(data["rows"]) == 20
        intensive = [row for row in data["rows"] if row[2] == "intensive"]
        non_intensive = [row for row in data["rows"]
                         if row[2] == "non-intensive"]
        mean_intensive = sum(row[3] for row in intensive) / len(intensive)
        mean_non = sum(row[3] for row in non_intensive) / len(non_intensive)
        assert mean_intensive > mean_non

    def test_section42_runner(self):
        data = section42_reloc_timing(iterations=300)
        values = dict((row[0], row[1]) for row in data["rows"])
        assert values["guardbanded RELOC latency (ns)"] == pytest.approx(1.0)

    def test_section83_runner(self):
        data = section83_overhead()
        values = dict((row[0], row[1]) for row in data["rows"])
        assert values["FTS storage per channel (kB)"] == pytest.approx(26.0)

    def test_rowhammer_study_reports_reduced_regular_row_pressure(self):
        data = rowhammer_activation_study(ExperimentScale.smoke(),
                                          benchmark="lbm")
        rows = {row[0]: row for row in data["rows"]}
        base_row = rows["Base"]
        fig_row = rows["FIGCache-Fast"]
        # FIGCache serves most hits from cache rows, so regular rows are
        # activated less often than in the Base system.
        assert fig_row[1] <= base_row[1]

    def test_format_table_renders_all_rows(self):
        text = format_table("T", ["a", "b"], [[1, 2.5], ["x", 3.0]])
        assert "2.500" in text and "x" in text


class TestFigureTables:
    """Every figure table and the sweep table, pinned at tiny scale."""

    @pytest.fixture(autouse=True, scope="class")
    def shared_memory_engine(self):
        """One memory-only engine, so the runners share simulations."""
        engine.configure(cache_dir=None)
        yield
        engine.reset()

    def test_golden_covers_every_runner(self):
        assert set(FIGURE_TABLES) == set(FIGURE_CHOICES) | {"sweep"}

    @pytest.mark.parametrize("name", list(FIGURE_TABLES))
    def test_table_matches_golden(self, name):
        scale = ExperimentScale.tiny()
        if name == "sweep":
            data = design_space_sweep(scale, (8, 16, 32), (32, 64))
        elif name in NAMED_FIGURES:
            data = NAMED_FIGURES[name](scale)
        else:
            data = FIGURES[int(name)](scale)
        expected = FIGURE_TABLES[name]
        assert f"{data['figure']}: {data['metric']}" == expected["title"]
        assert data["columns"] == expected["columns"]
        # JSON text tells ints from floats and prints every float exactly.
        assert [json.dumps(row) for row in data["rows"]] \
            == [json.dumps(row) for row in expected["rows"]]

    def test_sensitivity_categories_in_ascending_intensity(self):
        rows = figure14_replacement_policy(ExperimentScale.tiny())["rows"]
        intensities = [int(row[0].split("%")[0]) for row in rows]
        assert intensities == sorted(intensities)
        assert sorted(set(intensities)) == [25, 50, 75, 100]
