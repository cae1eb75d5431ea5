"""Tests for the ``python -m repro`` command-line interface (PR 4).

Parser round-trips (arguments survive into the parsed namespace) plus
smoke tests of the informational subcommands' output.  Simulation-heavy
subcommands are exercised end to end elsewhere (``test_engine.py`` and
``test_telemetry.py``); here only the cheap ones actually run.
"""

import pytest

from repro import cli
from repro.experiments.engine import (ExperimentScale, JobExecutor,
                                      ResultCache)
from repro.experiments.engine.spec import SimJob
from repro.sim.telemetry import DEFAULT_EPOCH_CYCLES


@pytest.fixture()
def parser():
    return cli.build_parser()


# ----------------------------------------------------------------------
# Parser round-trips.
# ----------------------------------------------------------------------
class TestParserRoundTrips:
    def test_run_figure_defaults(self, parser):
        args = parser.parse_args(["run-figure", "7"])
        assert args.figure == "7"
        assert args.scale == "paper"
        assert args.jobs is None
        assert args.cache_dir is None
        assert args.func is cli._cmd_run_figure

    def test_run_figure_named_studies_are_choices(self, parser):
        for name in ("dram-types", "latency"):
            args = parser.parse_args(["run-figure", name, "--scale",
                                      "smoke", "--jobs", "2"])
            assert args.figure == name
            assert args.scale == "smoke"
            assert args.jobs == 2

    def test_run_figure_rejects_unknown_figure(self, parser):
        with pytest.raises(SystemExit):
            parser.parse_args(["run-figure", "99"])

    def test_run_static_round_trip(self, parser):
        args = parser.parse_args(["run-static", "table1",
                                  "--cache-dir", "none"])
        assert args.name == "table1"
        assert args.cache_dir == "none"
        assert args.func is cli._cmd_run_static

    def test_sweep_int_lists(self, parser):
        args = parser.parse_args(["sweep", "--segment-blocks", "8,32",
                                  "--cache-rows", "64"])
        assert args.segment_blocks == [8, 32]
        assert args.cache_rows == [64]

    def test_timeline_round_trip(self, parser):
        args = parser.parse_args(["timeline", "lbm",
                                  "--configuration", "Base",
                                  "--epoch", "12345", "--scale", "tiny"])
        assert args.workload == "lbm"
        assert args.configuration == "Base"
        assert args.epoch == 12345
        assert args.scale == "tiny"
        assert args.func is cli._cmd_timeline

    def test_timeline_defaults(self, parser):
        args = parser.parse_args(["timeline", "mcf"])
        assert args.configuration == "FIGCache-Fast"
        assert args.epoch == DEFAULT_EPOCH_CYCLES

    def test_standards_and_cache_round_trips(self, parser):
        assert parser.parse_args(["standards", "list"]) \
            .standards_command == "list"
        assert parser.parse_args(["standards", "smoke", "--scale", "tiny"]) \
            .scale == "tiny"
        assert parser.parse_args(["cache", "clear"]).cache_command == "clear"

    def test_missing_subcommand_exits(self, parser):
        with pytest.raises(SystemExit):
            parser.parse_args([])


# ----------------------------------------------------------------------
# Output smoke tests (cheap, no simulations).
# ----------------------------------------------------------------------
class TestOutputSmoke:
    def test_list_enumerates_everything(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figures (run-figure N):" in out
        assert "dram-types" in out
        assert "latency" in out
        assert "table1" in out
        assert "DDR4-1600" in out

    def test_standards_list_prints_catalog_table(self, capsys):
        assert cli.main(["standards", "list"]) == 0
        out = capsys.readouterr().out
        assert "DRAM device catalog" in out
        for name in ("DDR4-1600", "LPDDR4-3200", "HBM2", "DDR5-4800"):
            assert name in out

    def test_cache_stats_reports_directory(self, tmp_path, capsys):
        assert cli.main(["cache", "stats",
                         "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert f"cache directory : {tmp_path}" in out
        assert "disk entries    : 0" in out
        assert "salt" in out

    def test_cache_stats_counts_a_stored_result(self, tmp_path, capsys):
        cache = ResultCache(str(tmp_path))
        with JobExecutor(cache=cache, jobs=1) as executor:
            executor.run([SimJob.single_core("Base", "gcc",
                                             ExperimentScale.tiny())])
        assert executor.simulations_executed == 1
        stats = cache.stats()
        assert (stats.stores, stats.disk_entries, stats.shards) == (1, 1, 1)
        assert cli.main(["cache", "stats",
                         "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "disk entries    : 1" in out
        assert "shards          : 1" in out
        assert "legacy entries" not in out  # the flat layout is gone

    def test_cache_clear_empty_directory(self, tmp_path, capsys):
        assert cli.main(["cache", "clear",
                         "--cache-dir", str(tmp_path)]) == 0
        assert "cleared 0 cached result(s)" in capsys.readouterr().out

    def test_timeline_unknown_benchmark_is_a_clean_error(self, capsys):
        assert cli.main(["timeline", "no-such-benchmark",
                         "--cache-dir", "none", "--scale", "tiny"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_timeline_smoke_run(self, capsys):
        assert cli.main(["timeline", "lbm", "--cache-dir", "none",
                         "--scale", "tiny", "--configuration", "Base",
                         "--epoch", "10000"]) == 0
        out = capsys.readouterr().out
        assert "timeline: lbm on Base" in out
        assert "read latency (cycles):" in out
        assert "p99" in out


# ----------------------------------------------------------------------
# Removed options fail loudly.
# ----------------------------------------------------------------------
class TestRemovedOptions:
    """Removed options and subcommands are errors, never silently
    ignored."""

    @pytest.mark.parametrize("argv", (
        ["trace", "lbm", "--backend", "turbo"],
    ))
    def test_backend_options_exit_nonzero(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code != 0
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", (["bench"], ["bench", "--quick"]))
    def test_bench_subcommand_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", (
        (["metrics"], "invalid choice: 'metrics'"),
        (["sweep", "--metrics-out", "m.json"], "unrecognized arguments"),
    ))
    def test_metrics_subcommand_and_flag_are_gone(self, argv, message,
                                                  capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err
