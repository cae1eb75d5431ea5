"""Tests for the declarative experiment engine: job specs, content-addressed
keys, result serialization, the sharded persistent cache, the warm-pool
parallel executor, and the ``python -m repro`` CLI."""

import dataclasses
import json
import math
import os
import pickle
import shutil
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.cpu.core import COMPILED_TRACE_CAPACITY, compile_trace
from repro.experiments import engine
from repro.experiments.engine import (JobExecutionError, JobExecutor,
                                      ResultCache, SimJob, cache_salt)
from repro.experiments.engine.cache import (NOT_MODEL_MODULES,
                                            model_fingerprint)
from repro.experiments.engine.spec import ExperimentScale
from repro.experiments.figures import (figure7_single_core,
                                       figure8_multicore,
                                       figure9_cache_hit_rate)
from repro.experiments.runner import geometric_mean
from repro.sim.config import config_digest, make_system_config
from repro.sim.metrics import SimulationResult
from repro.workloads.catalog import benchmark_names
from repro.workloads.multiprogram import make_multiprogrammed_workload

TINY = ExperimentScale.tiny()
PACKAGE_ROOT = Path(repro.__file__).parent


@dataclasses.dataclass(frozen=True)
class PoisonJob:
    """A picklable job whose materialization fails (or kills its worker).

    Implements the small protocol the executor needs — ``key()``,
    ``trace_signature()``, ``config_signature()``, ``workload_name``,
    ``build_config()``, ``build_traces()``, ``describe()`` — without being
    a real :class:`SimJob`.  The ``zzz`` signature prefix sorts it after
    every real job, so real jobs are dispatched (and cached) first.
    """

    name: str = "poison"
    #: ``None`` raises in the worker; an int calls ``os._exit`` (killing
    #: the worker process and breaking the pool).
    exit_code: int | None = None

    def key(self):
        return f"poison:{self.name}:{self.exit_code}"

    def trace_signature(self):
        return ("zzz-poison", self.name)

    def config_signature(self):
        return ("zzz-poison", self.name)

    @property
    def workload_name(self):
        return self.name

    def build_config(self):
        if self.exit_code is not None:
            os._exit(self.exit_code)
        raise RuntimeError("this job is poisoned")

    def build_traces(self):
        return []

    def describe(self):
        return {"kind": "poison", "name": self.name}


@pytest.fixture(autouse=True)
def fresh_default_engine():
    """Keep the process-wide default engine isolated per test."""
    engine.reset()
    yield
    engine.reset()


class TestSimJob:
    def test_key_is_stable_across_equal_jobs(self):
        a = SimJob.single_core("FIGCache-Fast", "lbm", TINY)
        b = SimJob.single_core("FIGCache-Fast", "lbm",
                               ExperimentScale.tiny())
        assert a == b
        assert a.key() == b.key()

    def test_key_distinguishes_inputs(self):
        base = SimJob.single_core("FIGCache-Fast", "lbm", TINY)
        keys = {
            base.key(),
            SimJob.single_core("Base", "lbm", TINY).key(),
            SimJob.single_core("FIGCache-Fast", "mcf", TINY).key(),
            SimJob.single_core("FIGCache-Fast", "lbm", TINY,
                               segment_blocks=32).key(),
            SimJob.single_core(
                "FIGCache-Fast", "lbm",
                ExperimentScale.tiny().__class__(
                    single_core_records=500)).key(),
        }
        assert len(keys) == 5

    def test_key_ignores_scale_fields_that_do_not_affect_the_job(self):
        # mixes_per_category only selects which jobs a figure creates; a
        # single-core job's simulation is unaffected, so the cache entry
        # must be shared.
        import dataclasses
        a = SimJob.single_core("Base", "lbm", TINY)
        other_scale = dataclasses.replace(TINY, mixes_per_category=5,
                                          benchmarks_per_class=3)
        b = SimJob.single_core("Base", "lbm", other_scale)
        assert a.key() == b.key()

    def test_multicore_job_builds_and_keys(self):
        workload = make_multiprogrammed_workload(1.0, 0, num_cores=2)
        job = SimJob.multicore("FIGCache-Fast", workload, TINY)
        assert job.workload_name == workload.name
        assert job.channels == TINY.multicore_channels
        assert len(job.build_traces()) == 2
        assert job.key() != SimJob.multicore("Base", workload, TINY).key()

    def test_jobs_are_picklable(self):
        workload = make_multiprogrammed_workload(0.5, 1, num_cores=2)
        for job in (SimJob.single_core("LISA-VILLA", "mcf", TINY),
                    SimJob.multicore("FIGCache-Slow", workload, TINY)):
            clone = pickle.loads(pickle.dumps(job))
            assert clone == job
            assert clone.key() == job.key()

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            SimJob(kind="weird", configuration="Base", scale=TINY)
        with pytest.raises(ValueError):
            SimJob(kind="single-core", configuration="Base", scale=TINY)


class TestConfigDigestStability:
    """``config_digest`` feeds every persistent cache key, so a change to
    it silently orphans every on-disk ``ResultCache``.  The digests of
    the six paper configurations are pinned."""

    PINNED = {
        "Base": "dc15c0c7bf05a5adf584fbc5dcf53f97"
                "45394ae8338c964a978f7524ec1b7a6e",
        "LISA-VILLA": "7834398956dfd29b70b32d8755d3e72d"
                      "78d4eb35bb3557ed56af88614ffafb33",
        "FIGCache-Slow": "637eb834415475dda0a09dbc0ee9bb52"
                         "601131c7ed34692343ab95ce9a9b3e49",
        "FIGCache-Fast": "98921c71a279da01f2bc6213a60211ec"
                         "440869050255511fc8efe67c5373655b",
        "FIGCache-Ideal": "eb14b8080d00dc8f5f5c79a65cc1f3e8"
                          "01e52403cfb8046d51bbd7b57b8930f6",
        "LL-DRAM": "20db67fb855cd8c18b739d42d20f95dc"
                   "885cc4b3a642ccf9b35851423f52a9d0",
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_digest_matches_pinned_value(self, name):
        assert config_digest(make_system_config(name)) == self.PINNED[name]


class TestResultSerialization:
    def test_round_trip_is_exact(self):
        result = SimJob.single_core("FIGCache-Fast", "lbm", TINY).run()
        data = json.loads(json.dumps(result.to_dict()))
        clone = SimulationResult.from_dict(data)
        assert clone == result
        assert clone.to_dict() == result.to_dict()
        # The energy breakdown survives to the bit.
        assert clone.energy == result.energy
        assert clone.energy.total_nj == result.energy.total_nj
        assert clone.row_buffer_hit_rate == result.row_buffer_hit_rate

    def test_round_trip_preserves_row_activation_counts(self):
        result = SimJob.single_core("Base", "lbm", TINY,
                                    track_row_activations=True).run()
        counts = result.dram_counters.row_activation_counts
        assert counts  # tuple-keyed dict, the hard case for JSON
        clone = SimulationResult.from_dict(
            json.loads(json.dumps(result.to_dict())))
        assert clone.dram_counters.row_activation_counts == counts
        assert clone.dram_counters == result.dram_counters


class TestResultCache:
    def test_memory_only_cache(self):
        cache = ResultCache()
        assert not cache.persistent
        assert cache.get("missing") is None
        result = SimJob.single_core("Base", "gcc", TINY).run()
        cache.put("k", result)
        assert cache.get("k") == result
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)

    def test_persistent_cache_survives_new_instance(self, tmp_path):
        job = SimJob.single_core("FIGCache-Slow", "mcf", TINY)
        result = job.run()
        ResultCache(tmp_path).put(job.key(), result)
        reloaded = ResultCache(tmp_path).get(job.key())
        assert reloaded == result

    def test_stale_salt_is_a_miss(self, tmp_path):
        job = SimJob.single_core("Base", "gcc", TINY)
        cache = ResultCache(tmp_path)
        cache.put(job.key(), job.run())
        path = cache._path(job.key())
        payload = json.loads(path.read_text())
        assert payload["salt"] == cache_salt()
        payload["salt"] = "0:0.0.0"
        path.write_text(json.dumps(payload))
        assert ResultCache(tmp_path).get(job.key()) is None

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        job = SimJob.single_core("Base", "gcc", TINY)
        cache = ResultCache(tmp_path)
        cache.put(job.key(), job.run())
        cache._path(job.key()).write_text("{not json")
        assert ResultCache(tmp_path).get(job.key()) is None

    def test_clear_removes_disk_entries(self, tmp_path):
        job = SimJob.single_core("Base", "gcc", TINY)
        cache = ResultCache(tmp_path)
        cache.put(job.key(), job.run())
        assert cache.stats().disk_entries == 1
        cache.clear()
        assert cache.stats().disk_entries == 0
        assert not list(tmp_path.glob("*.json"))
        assert not list(tmp_path.glob("*/*.json"))

    def test_layout_is_sharded_by_key_prefix(self, tmp_path):
        job = SimJob.single_core("Base", "gcc", TINY)
        key = job.key()
        cache = ResultCache(tmp_path)
        cache.put(key, job.run())
        path = tmp_path / key[:2] / f"{key}.json"
        assert path.is_file()
        # Nothing lands flat in the cache root any more.
        assert not list(tmp_path.glob("*.json"))
        assert cache.stats().shards == 1

    def test_compressed_entries_round_trip(self, tmp_path, monkeypatch):
        from repro.experiments.engine import cache as cache_module
        monkeypatch.setattr(cache_module, "COMPRESS_MIN_BYTES", 0)
        job = SimJob.single_core("Base", "gcc", TINY)
        key = job.key()
        result = job.run()
        cache = ResultCache(tmp_path)
        cache.put(key, result)
        path = tmp_path / key[:2] / f"{key}.json.gz"
        assert path.is_file()
        stats = cache.stats()
        assert stats.disk_compressed == 1
        reloaded = ResultCache(tmp_path)
        assert reloaded.get(key) == result

    def test_auto_compression_kicks_in_above_threshold(self, tmp_path,
                                                       monkeypatch):
        from repro.experiments.engine import cache as cache_module
        monkeypatch.setattr(cache_module, "COMPRESS_MIN_BYTES", 16)
        job = SimJob.single_core("Base", "gcc", TINY)
        key = job.key()
        result = job.run()
        cache = ResultCache(tmp_path)
        cache.put(key, result)
        assert (tmp_path / key[:2] / f"{key}.json.gz").is_file()
        assert ResultCache(tmp_path).get(key) == result

    def test_put_many_stores_every_pair(self, tmp_path):
        a = SimJob.single_core("Base", "gcc", TINY)
        b = SimJob.single_core("FIGCache-Fast", "gcc", TINY)
        results = {job: job.run() for job in (a, b)}
        cache = ResultCache(tmp_path)
        cache.put_many((job.key(), result)
                       for job, result in results.items())
        stats = cache.stats()
        assert stats.stores == 2
        assert stats.disk_entries == 2
        for job, result in results.items():
            assert ResultCache(tmp_path).get(job.key()) == result

    def test_stats_serve_from_index_not_filesystem(self, tmp_path):
        job = SimJob.single_core("Base", "gcc", TINY)
        cache = ResultCache(tmp_path)
        cache.put(job.key(), job.run())
        reader = ResultCache(tmp_path)
        assert reader.stats().disk_entries == 1
        # An out-of-band write is invisible until the index is refreshed —
        # stats() and get() misses are pure memory operations.
        (tmp_path / "ab").mkdir(exist_ok=True)
        (tmp_path / "ab" / ("ab" + "0" * 62 + ".json")).write_text("{}")
        assert reader.stats().disk_entries == 1
        reader.refresh_index()
        assert reader.stats().disk_entries == 2


class TestModelFingerprint:
    """The cache salt follows the model source, and only it."""

    @pytest.fixture
    def package(self, tmp_path):
        root = tmp_path / "repro"
        shutil.copytree(PACKAGE_ROOT, root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return root

    @staticmethod
    def _append_comment(path):
        assert path.is_file(), path
        with path.open("a", encoding="utf-8") as handle:
            handle.write("# an edit\n")

    def test_cache_salt_is_the_package_fingerprint(self):
        assert cache_salt() == model_fingerprint(PACKAGE_ROOT)

    def test_model_module_edit_changes_it(self, package):
        before = model_fingerprint(package)
        self._append_comment(package / "dram" / "channel.py")
        assert model_fingerprint(package) != before

    def test_new_module_changes_it(self, package):
        before = model_fingerprint(package)
        (package / "sim" / "new_model.py").write_text("X = 1\n")
        assert model_fingerprint(package) != before

    def test_edits_outside_the_model_keep_it(self, package):
        before = model_fingerprint(package)
        for name in NOT_MODEL_MODULES:
            self._append_comment(package / name)
        assert model_fingerprint(package) == before

    def test_not_model_modules_are_pinned(self):
        assert NOT_MODEL_MODULES == {
            "__main__.py", "cli.py",
            "experiments/__init__.py", "experiments/figures.py",
            "experiments/runner.py", "experiments/static.py",
            "experiments/engine/__init__.py", "experiments/engine/cache.py",
            "experiments/engine/executor.py", "experiments/engine/faults.py",
            "experiments/engine/progress.py"}


class TestJobExecutor:
    def test_deduplicates_equal_jobs(self):
        executor = JobExecutor()
        job = SimJob.single_core("Base", "gcc", TINY)
        results = executor.run([job, SimJob.single_core("Base", "gcc", TINY)])
        assert len(results) == 1
        assert executor.simulations_executed == 1

    def test_cache_hits_skip_execution(self):
        executor = JobExecutor()
        job = SimJob.single_core("Base", "gcc", TINY)
        first = executor.run_one(job)
        second = executor.run_one(job)
        assert first == second
        assert executor.simulations_executed == 1
        assert executor.cache_hits == 1

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            JobExecutor(jobs=0)

    # Figures 7 and 8 run all six configurations single-core and on the
    # multicore mix; Figure 9 adds the in-DRAM cache hit-rate metric.
    @pytest.mark.parametrize("figure", (figure7_single_core,
                                        figure8_multicore,
                                        figure9_cache_hit_rate))
    def test_parallel_matches_serial_bit_for_bit(self, figure):
        engine.configure(jobs=1)
        serial = figure(TINY)
        engine.configure(jobs=2)
        parallel = figure(TINY)
        assert parallel["rows"] == serial["rows"]

    def test_warm_persistent_cache_runs_zero_simulations(self, tmp_path):
        cold = engine.configure(jobs=2, cache_dir=str(tmp_path))
        first = figure9_cache_hit_rate(TINY)
        assert cold.simulations_executed > 0

        warm = engine.configure(jobs=2, cache_dir=str(tmp_path))
        second = figure9_cache_hit_rate(TINY)
        assert warm.simulations_executed == 0
        assert warm.cache_hits == cold.simulations_executed
        assert second["rows"] == first["rows"]

    def test_jobs_env_variable_sets_worker_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert JobExecutor().jobs == 3

    def test_configure_keep_going_lasts_until_reset(self):
        assert engine.get_executor().keep_going is False
        assert engine.configure(jobs=1, keep_going=True).keep_going is True
        assert engine.get_executor().keep_going is True
        engine.reset()
        assert engine.get_executor().keep_going is False


def _tiny_jobs(*benchmarks):
    return [SimJob.single_core("Base", name, TINY) for name in benchmarks]


class TestWarmPool:
    def test_pool_persists_across_batches(self):
        with JobExecutor(jobs=2) as executor:
            assert not executor.pool_active
            executor.run(_tiny_jobs("gcc", "mcf"))
            assert executor.pool_active
            first = executor.last_worker_pids
            executor.run(_tiny_jobs("lbm", "zeusmp"))
            second = executor.last_worker_pids
        assert first and second
        # Both batches were served by the same two-process pool; a pool
        # recreated per batch would have produced four distinct PIDs.
        assert len(first | second) <= 2
        assert os.getpid() not in (first | second)

    def test_close_is_idempotent_and_pool_respawns(self):
        executor = JobExecutor(jobs=2)
        executor.run(_tiny_jobs("gcc", "mcf"))
        executor.close()
        assert not executor.pool_active
        executor.close()  # idempotent
        executor.run(_tiny_jobs("lbm", "zeusmp"))
        assert executor.pool_active
        assert executor.simulations_executed == 4
        executor.close()

    def test_serial_batches_never_spawn_a_pool(self):
        executor = JobExecutor(jobs=1)
        executor.run(_tiny_jobs("gcc", "mcf"))
        assert not executor.pool_active
        assert executor.last_worker_pids == frozenset((os.getpid(),))

    def test_serial_runs_same_trace_jobs_back_to_back(self):
        """A batch submitted configuration by configuration over more
        traces than the compiled-trace memo holds still compiles each trace
        once, and results come back in submission order."""
        names = benchmark_names(True) + benchmark_names(False)
        assert len(names) > COMPILED_TRACE_CAPACITY
        jobs = [SimJob.single_core(configuration, name, TINY)
                for configuration in ("Base", "LL-DRAM") for name in names]
        compile_trace.cache_clear()
        with JobExecutor(cache=ResultCache(), jobs=1) as executor:
            results = executor.run(jobs)
        assert list(results) == jobs
        assert compile_trace.cache_info().misses == len(names)


class TestWorkerFailures:
    def test_serial_failure_names_the_job(self):
        executor = JobExecutor(jobs=1)
        with pytest.raises(JobExecutionError) as excinfo:
            executor.run([PoisonJob()])
        assert "'kind': 'poison'" in str(excinfo.value)
        assert excinfo.value.report.failures[0].key == PoisonJob().key()

    def test_parallel_failure_names_the_job_and_keeps_finished_work(
            self, tmp_path):
        jobs = _tiny_jobs("gcc", "mcf", "lbm")
        with JobExecutor(cache=ResultCache(tmp_path), jobs=2) as executor:
            with pytest.raises(JobExecutionError) as excinfo:
                executor.run([*jobs, PoisonJob()])
        message = str(excinfo.value)
        assert "'kind': 'poison'" in message
        assert "this job is poisoned" in message  # worker traceback shipped
        # The poison job sorts last, so every real job was dispatched
        # first; fail-fast lets running jobs finish, so every result
        # reached the cache before the failure was raised.
        survivors = ResultCache(tmp_path)
        assert all(survivors.get(job.key()) is not None for job in jobs)

    def test_dead_worker_breaks_pool_but_sweep_is_resumable(self, tmp_path):
        jobs = _tiny_jobs("gcc", "mcf", "lbm", "zeusmp", "libquantum",
                          "bwaves")
        executor = JobExecutor(cache=ResultCache(tmp_path), jobs=2)
        with pytest.raises(BrokenProcessPool):
            executor.run([*jobs, PoisonJob(exit_code=1)])
        assert not executor.pool_active  # broken pool was discarded

        # Completion-order caching: every job that finished before the
        # worker died is on disk.  The poison job sorts last, so only the
        # job running beside it on the other worker can be lost.
        cached = sum(ResultCache(tmp_path).get(job.key()) is not None
                     for job in jobs)
        assert cached >= len(jobs) - 1

        # Re-running the sweep simulates only what never finished ...
        resume = JobExecutor(cache=ResultCache(tmp_path), jobs=2)
        results = resume.run(jobs)
        assert len(results) == len(jobs)
        assert resume.simulations_executed == len(jobs) - cached
        resume.close()

        # ... and the original executor recovers: the next parallel batch
        # (two jobs no run has cached yet) lazily spawns a fresh pool.
        again = executor.run(_tiny_jobs("leslie3d", "GemsFDTD"))
        assert len(again) == 2
        assert executor.pool_active
        executor.close()


class TestProgressEvents:
    """The executor's structured progress stream (PR 8)."""

    @staticmethod
    def _events(path):
        lines = path.read_text(encoding="utf-8").splitlines()
        events = [json.loads(line) for line in lines]
        assert all(event["schema"] == 1 for event in events)
        return events

    def test_jsonl_stream_for_a_parallel_batch(self, tmp_path):
        from repro.experiments.engine import JsonlFileSink
        jobs = _tiny_jobs("gcc", "mcf", "lbm")
        log = tmp_path / "progress.jsonl"
        with JobExecutor(cache=ResultCache(tmp_path / "cache"),
                         jobs=2) as executor:
            executor.progress = sink = JsonlFileSink(log)
            executor.run(jobs)
            sink.close()
        events = self._events(log)
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "batch-start"
        assert kinds[-1] == "batch-end"
        assert "pool-spawned" in kinds
        assert kinds.count("chunk-dispatched") == \
            kinds.count("chunk-completed")
        start, end = events[0], events[-1]
        assert start["total"] == 3 and start["cache_hits"] == 0
        # ``pending`` is the batch's simulate count; a clean batch ends
        # with every pending job done.
        assert end["done"] == 3 and end["pending"] == 3
        assert all(event["workers"] == 2 for event in events)

    def test_warm_batch_reports_all_cache_hits(self, tmp_path):
        from repro.experiments.engine import JsonlFileSink
        jobs = _tiny_jobs("gcc", "mcf")
        with JobExecutor(cache=ResultCache(tmp_path / "cache"),
                         jobs=1) as executor:
            executor.run(jobs)
            log = tmp_path / "warm.jsonl"
            executor.progress = sink = JsonlFileSink(log)
            executor.run(jobs)
            sink.close()
        events = self._events(log)
        start = events[0]
        assert start["kind"] == "batch-start"
        assert start["cache_hits"] == start["total"] == 2
        assert start["pending"] == 0
        # Nothing to simulate: the stream is just start -> end.
        assert [event["kind"] for event in events] == \
            ["batch-start", "batch-end"]

    def test_failure_emits_job_failed_and_still_raises(self, tmp_path):
        from repro.experiments.engine import JsonlFileSink
        log = tmp_path / "fail.jsonl"
        executor = JobExecutor(jobs=1)
        executor.progress = sink = JsonlFileSink(log)
        with pytest.raises(JobExecutionError):
            executor.run([PoisonJob()])
        sink.close()
        events = self._events(log)
        kinds = [event["kind"] for event in events]
        assert "job-failed" in kinds
        assert kinds[-1] == "batch-end"  # emitted even on failure
        failed = next(e for e in events if e["kind"] == "job-failed")
        assert "poisoned" in failed["error"]
        assert "'kind': 'poison'" in failed["job"]

    def test_callback_sink_sees_serial_job_completions(self):
        from repro.experiments.engine import CallbackSink
        seen = []
        executor = JobExecutor(jobs=1)
        executor.progress = CallbackSink(seen.append)
        executor.run(_tiny_jobs("gcc", "mcf"))
        kinds = [event.kind for event in seen]
        assert kinds[0] == "batch-start" and kinds[-1] == "batch-end"
        assert kinds.count("job-completed") == 2
        done = [e.done for e in seen if e.kind == "job-completed"]
        assert done == [1, 2]

    def test_stderr_sink_writes_human_lines(self):
        import io
        from repro.experiments.engine import StderrLineSink
        stream = io.StringIO()
        executor = JobExecutor(jobs=1)
        executor.progress = sink = StderrLineSink(stream)
        executor.run(_tiny_jobs("gcc"))
        sink.close()
        text = stream.getvalue()
        assert "[engine]" in text
        assert "1/1 jobs" in text

    def test_sweep_cli_progress_file(self, tmp_path, capsys):
        log = tmp_path / "progress.jsonl"
        argv = ["sweep", "--segment-blocks", "8", "--cache-rows", "32",
                "--scale", "tiny", "--jobs", "2",
                "--cache-dir", str(tmp_path / "cache"),
                "--progress-file", str(log)]
        assert main(argv) == 0
        capsys.readouterr()
        events = self._events(log)
        kinds = [event["kind"] for event in events]
        assert kinds[0] == "batch-start" and kinds[-1] == "batch-end"


class TestGeometricMean:
    def test_no_underflow_or_overflow_on_long_extreme_lists(self):
        # 1e4 values near zero: a running product underflows to 0.0 long
        # before the end; the log-space form is exact.
        small = [1e-6] * 10000
        assert geometric_mean(small) == pytest.approx(1e-6, rel=1e-9)
        # 1e4 values near 1e6: a running product overflows to inf.
        large = [1e6] * 10000
        assert geometric_mean(large) == pytest.approx(1e6, rel=1e-9)
        mixed = [1e-6, 1e6] * 5000
        assert geometric_mean(mixed) == pytest.approx(1.0, rel=1e-9)
        assert math.isfinite(geometric_mean(large))

    def test_matches_direct_definition_on_small_lists(self):
        values = [0.5, 2.0, 4.0]
        direct = (0.5 * 2.0 * 4.0) ** (1.0 / 3.0)
        assert geometric_mean(values) == pytest.approx(direct)

    def test_validates_input(self):
        assert geometric_mean([]) == 0.0
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestCLI:
    @pytest.mark.parametrize("command, title", (
        (["run-figure", "7"], "Figure 7"),
        (["sweep", "--segment-blocks", "8,16", "--cache-rows", "32"],
         "Design-space sweep")), ids=("run-figure-7", "sweep"))
    def test_run_figure_warm_cache_second_invocation(self, command, title,
                                                     tmp_path, capsys):
        argv = command + ["--scale", "tiny", "--jobs", "2",
                          "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert title in cold
        assert "0 simulations executed" not in cold

        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "0 simulations executed" in warm
        # Identical tables, straight from the persistent cache.
        assert warm.splitlines()[:-2] == cold.splitlines()[:-2]

    def test_cache_stats_and_clear(self, tmp_path, capsys):
        argv_dir = ["--cache-dir", str(tmp_path)]
        main(["run-figure", "7", "--scale", "tiny"] + argv_dir)
        capsys.readouterr()
        main(["cache", "stats"] + argv_dir)
        out = capsys.readouterr().out
        assert str(tmp_path) in out and "disk entries    : 12" in out
        main(["cache", "clear"] + argv_dir)
        assert "cleared 12" in capsys.readouterr().out
        main(["cache", "stats"] + argv_dir)
        assert "disk entries    : 0" in capsys.readouterr().out

    def test_run_static_overhead(self, capsys):
        assert main(["run-static", "overhead", "--cache-dir", "none"]) == 0
        assert "Section 8.3" in capsys.readouterr().out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "run-figure" in out and "rowhammer" in out

    def test_sweep_tiny(self, tmp_path, capsys):
        argv = ["sweep", "--segment-blocks", "8,16", "--cache-rows", "32",
                "--scale", "tiny", "--jobs", "2",
                "--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "Design-space sweep" in out
        assert "512B" in out and "1kB" in out
