"""Tests for the engine's reliability layer, driven by deterministic
fault injection: ``keep_going`` retries, the hung-worker watchdog, pool
respawn after worker death, cache checksum/quarantine, and the CLI
surfaces.

The central claim — asserted over and over below — is that a fault-laden
run *converges to results bit-identical to a fault-free run*: retries,
respawns, and quarantines change how long a sweep takes, never what it
computes.
"""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.experiments import engine
from repro.experiments.engine import (BatchReport, CallbackSink, FaultPlan,
                                      FaultSpec, InjectedFault,
                                      JobExecutionError, JobExecutor,
                                      ResultCache, SimJob, cache_salt,
                                      install_plan)
from repro.experiments.engine import executor as executor_mod
from repro.experiments.engine import faults
from repro.experiments.engine.executor import (RETRY_MAX_ATTEMPTS,
                                               retry_delay_s,
                                               watchdog_allowance_s)
from repro.experiments.engine.spec import ExperimentScale

TINY = ExperimentScale.tiny()


@dataclasses.dataclass(frozen=True)
class PoisonJob:
    """A picklable job whose materialization always fails (same protocol
    as the helper in test_engine.py; ``zzz`` sorts after real jobs)."""

    name: str = "poison"

    def key(self):
        return f"poison:{self.name}"

    def trace_signature(self):
        return ("zzz-poison", self.name)

    def config_signature(self):
        return ("zzz-poison", self.name)

    @property
    def workload_name(self):
        return self.name

    def build_config(self):
        raise RuntimeError("this job is poisoned")

    def build_traces(self):
        return []

    def describe(self):
        return {"kind": "poison", "name": self.name}


@pytest.fixture(autouse=True)
def clean_fault_state(monkeypatch):
    """No fault plan leaks in from the environment or a previous test,
    and retries never sleep: tests should spend their time simulating,
    not waiting out deliberately-injected delays."""
    monkeypatch.delenv(faults.FAULT_PLAN_ENV, raising=False)
    monkeypatch.setattr(executor_mod, "RETRY_BACKOFF_BASE_S", 0.0)
    faults.reset()
    engine.reset()
    yield
    faults.reset()
    engine.reset()


def tiny_jobs(*benchmarks):
    return [SimJob.single_core("Base", name, TINY) for name in benchmarks]


def run_clean(jobs):
    """Reference results from a fault-free serial run (fresh cache); any
    installed fault plan is cleared first."""
    install_plan(None)
    with JobExecutor(cache=ResultCache(), jobs=1) as executor:
        return {job.key(): result.to_dict()
                for job, result in executor.run(jobs).items()}


def as_dicts(results):
    return {job.key(): result.to_dict() for job, result in results.items()}


# ----------------------------------------------------------------------
# The fault plan itself.
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(faults=(
            FaultSpec(site="worker", index=1, action="exit",
                      attempts=(1,), exit_code=7),
            FaultSpec(site="worker", index=3, action="sleep",
                      attempts=(1, 2), seconds=2.5),
            FaultSpec(site="cache-write", index=2, action="torn"),
        ))
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_env_accepts_inline_json_and_files(self, tmp_path):
        text = json.dumps({"faults": [
            {"site": "worker", "index": 0, "action": "raise"}]})
        assert FaultPlan.from_env(text).worker_fault(0, 1) is not None
        path = tmp_path / "plan.json"
        path.write_text(text, encoding="utf-8")
        assert FaultPlan.from_env(str(path)).worker_fault(0, 1) is not None

    def test_worker_fault_matches_index_and_attempt(self):
        plan = FaultPlan(faults=(
            FaultSpec(site="worker", index=2, action="raise",
                      attempts=(1,)),))
        assert plan.worker_fault(2, 1) is not None
        assert plan.worker_fault(2, 2) is None  # transient: cleared
        assert plan.worker_fault(1, 1) is None
        # Empty attempts tuple = every attempt (a permanent fault).
        forever = FaultPlan(faults=(
            FaultSpec(site="worker", index=0, action="raise",
                      attempts=()),))
        assert forever.worker_fault(0, 5) is not None

    def test_cache_fault_matches_ordinal_or_prefix(self):
        plan = FaultPlan(faults=(
            FaultSpec(site="cache-write", index=1, action="torn"),
            FaultSpec(site="cache-write", action="bitflip",
                      key_prefix="abcd"),))
        assert plan.cache_fault("ffff", 1).action == "torn"
        assert plan.cache_fault("ffff", 0) is None
        assert plan.cache_fault("abcdef", 99).action == "bitflip"

    def test_invalid_site_and_action_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(site="disk", action="raise")
        with pytest.raises(ValueError):
            FaultSpec(site="worker", action="torn")
        with pytest.raises(ValueError):
            FaultSpec(site="cache-write", action="exit")

    def test_serial_path_never_exits_the_process(self):
        plan = FaultPlan(faults=(
            FaultSpec(site="worker", index=0, action="exit"),))
        with pytest.raises(InjectedFault):
            faults.apply_worker_fault(plan, 0, 1, allow_exit=False)


class TestRetryDelay:
    def test_delay_is_deterministic_per_key_and_attempt(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "RETRY_BACKOFF_BASE_S", 0.05)
        key = "a" * 64
        assert retry_delay_s(key, 1) == retry_delay_s(key, 1)
        assert retry_delay_s(key, 2) > retry_delay_s(key, 1)
        assert retry_delay_s(key, 1) != retry_delay_s("b" * 64, 1)

    def test_delay_is_bounded(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "RETRY_BACKOFF_BASE_S", 1.0)
        monkeypatch.setattr(executor_mod, "RETRY_BACKOFF_FACTOR", 10.0)
        monkeypatch.setattr(executor_mod, "RETRY_BACKOFF_MAX_S", 2.0)
        assert retry_delay_s("k", 30) <= 2.0

    def test_serial_retries_sleep_the_deterministic_delay(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "RETRY_BACKOFF_BASE_S", 0.05)
        sleeps = []
        monkeypatch.setattr(executor_mod.time, "sleep", sleeps.append)
        job, = tiny_jobs("gcc")
        install_plan(FaultPlan(faults=(
            FaultSpec(site="worker", index=0, action="raise",
                      attempts=()),)))
        with JobExecutor(cache=ResultCache(), jobs=1,
                         keep_going=True) as executor:
            executor.run([job])
        # One backoff before each retry, none after the final attempt.
        assert sleeps == [retry_delay_s(job.key(), attempt)
                          for attempt in range(1, RETRY_MAX_ATTEMPTS)]


# ----------------------------------------------------------------------
# Retry-then-succeed: transient faults converge to clean-run results.
# ----------------------------------------------------------------------
class TestRetryThenSucceed:
    def test_serial_transient_fault_is_bit_identical_to_clean(self):
        jobs = tiny_jobs("gcc", "lbm")
        install_plan(FaultPlan(faults=(
            FaultSpec(site="worker", index=0, action="raise",
                      attempts=(1,)),)))
        events = []
        with JobExecutor(cache=ResultCache(), jobs=1,
                         keep_going=True) as executor:
            executor.progress = CallbackSink(events.append)
            results = executor.run(jobs)
            assert executor.retries == 1
        assert as_dicts(results) == run_clean(jobs)
        retried = [e for e in events if e.kind == "job-retried"]
        assert len(retried) == 1 and retried[0].attempt == 2
        assert not [e for e in events if e.kind == "job-failed"]

    def test_parallel_transient_fault_is_bit_identical_to_clean(self):
        jobs = tiny_jobs("gcc", "lbm", "mcf")
        install_plan(FaultPlan(faults=(
            FaultSpec(site="worker", index=1, action="raise",
                      attempts=(1,)),)))
        with JobExecutor(cache=ResultCache(), jobs=2,
                         keep_going=True) as executor:
            results = executor.run(jobs)
            assert executor.retries == 1
            report = executor.last_report
        assert as_dicts(results) == run_clean(jobs)
        assert isinstance(report, BatchReport)
        assert report.retries == 1 and not report.failures

    def test_permanent_fault_exhausts_attempts_and_raises(self):
        job, = tiny_jobs("gcc")
        install_plan(FaultPlan(faults=(
            FaultSpec(site="worker", index=0, action="raise",
                      attempts=()),)))  # fires on every attempt
        with JobExecutor(cache=ResultCache(), jobs=1,
                         keep_going=True) as executor:
            with pytest.raises(JobExecutionError) as info:
                executor.run_one(job)
            assert executor.retries == RETRY_MAX_ATTEMPTS - 1
        assert info.value.report.failures[0].attempts == RETRY_MAX_ATTEMPTS


# ----------------------------------------------------------------------
# Satellite fix: every failure is reported, not just the first.
# ----------------------------------------------------------------------
class TestMultipleFailuresReported:
    def test_two_poisoned_jobs_are_both_reported(self):
        poisons = [PoisonJob(name="first"), PoisonJob(name="second")]
        jobs = tiny_jobs("gcc", "lbm") + poisons
        with JobExecutor(cache=ResultCache(), jobs=2,
                         keep_going=True) as executor:
            executor.run(jobs)
        report = executor.last_report
        assert report.failed == 2
        failed_names = {failure.description for failure in report.failures}
        assert any("first" in name for name in failed_names)
        assert any("second" in name for name in failed_names)
        # The error figures and run_one raise for skipped jobs.
        message = str(JobExecutionError.from_report(report))
        assert "2 job(s) failed" in message
        assert "first" in message and "second" in message
        # First failure carries the full traceback, the rest one line
        # each in the "also failed:" section.
        assert "Traceback" in message
        assert message.count("also failed:") == 1
        after = message.split("also failed:", 1)[1]
        assert "Traceback" not in after
        assert ("first" in after) != ("second" in after)
        assert "this job is poisoned" in message

    def test_report_attempts_and_keys_are_recorded(self):
        jobs = [PoisonJob(name="solo")] + tiny_jobs("gcc")
        with JobExecutor(cache=ResultCache(), jobs=1,
                         keep_going=True) as executor:
            executor.run(jobs)
        failure, = executor.last_report.failures
        assert failure.key == "poison:solo"
        assert failure.attempts == RETRY_MAX_ATTEMPTS
        assert "poisoned" in failure.error

    @pytest.mark.parametrize("workers", (1, 2))
    def test_fail_fast_reports_the_failure(self, workers):
        """Serial and parallel fail-fast record the poisoned job alike:
        one failure, counted, with its traceback, raised from the
        report."""
        jobs = tiny_jobs("gcc", "lbm") + [PoisonJob()]
        with JobExecutor(cache=ResultCache(), jobs=workers) as executor:
            with pytest.raises(JobExecutionError) as info:
                executor.run(jobs)
            assert executor.jobs_failed == 1
        report = info.value.report
        assert len(report.failures) == 1
        assert report.failures[0].key == PoisonJob().key()
        message = str(info.value)
        assert "Traceback" in message and "this job is poisoned" in message
        assert message == str(JobExecutionError.from_report(report))


class TestRetryThenSkip:
    def test_poisoned_job_is_skipped_and_batch_completes(self):
        poison = PoisonJob()
        jobs = tiny_jobs("gcc", "lbm") + [poison]
        events = []
        with JobExecutor(cache=ResultCache(), jobs=1,
                         keep_going=True) as executor:
            executor.progress = CallbackSink(events.append)
            results = executor.run(jobs)
            assert executor.jobs_skipped == 1
            report = executor.last_report
        assert poison not in results
        assert len(results) == 2
        assert report.skipped_keys == ["poison:poison"]
        assert [e.kind for e in events if e.kind == "job-skipped"] \
            == ["job-skipped"]


class TestFailFast:
    @pytest.mark.parametrize("workers", (1, 2))
    def test_fail_fast_makes_a_single_attempt(self, workers):
        """Without keep_going even a transient fault fails the batch on
        its first attempt: no backoff, no retry, one job-failed event."""
        jobs = tiny_jobs("gcc", "lbm")
        install_plan(FaultPlan(faults=(
            FaultSpec(site="worker", index=0, action="raise",
                      attempts=(1,)),)))
        events = []
        with JobExecutor(cache=ResultCache(), jobs=workers) as executor:
            executor.progress = CallbackSink(events.append)
            with pytest.raises(JobExecutionError) as info:
                executor.run(jobs)
            assert executor.retries == 0
        failure, = info.value.report.failures
        assert failure.key == jobs[0].key() and failure.attempts == 1
        assert "InjectedFault" in failure.error
        kinds = [e.kind for e in events]
        assert "job-retried" not in kinds
        assert kinds.count("job-failed") == 1


# ----------------------------------------------------------------------
# Hung-worker watchdog.
# ----------------------------------------------------------------------
def shrink_watchdog(monkeypatch):
    """Deadlines of 2 s for a fresh one-job chunk, instead of 30 s."""
    monkeypatch.setattr(executor_mod, "WATCHDOG_FLOOR_S", 0.5)
    monkeypatch.setattr(executor_mod, "WATCHDOG_CEILING_S", 2.0)
    monkeypatch.setattr(executor_mod, "WATCHDOG_FACTOR", 4.0)


class TestWatchdog:
    def test_watchdog_times_out_sleeping_worker_and_recovers(
            self, monkeypatch):
        jobs = tiny_jobs("gcc", "lbm", "mcf", "bzip2")
        # Index 3 sleeps far past the (shrunk) watchdog deadline on its
        # first attempt; the retried attempt runs clean.
        install_plan(FaultPlan(faults=(
            FaultSpec(site="worker", index=3, action="sleep",
                      attempts=(1,), seconds=30.0),)))
        shrink_watchdog(monkeypatch)
        events = []
        with JobExecutor(cache=ResultCache(), jobs=2,
                         keep_going=True) as executor:
            executor.progress = CallbackSink(events.append)
            results = executor.run(jobs)
            assert executor.chunk_timeouts >= 1
            assert executor.pool_respawns >= 1
            assert executor.retries >= 1
            report = executor.last_report
        assert as_dicts(results) == run_clean(jobs)
        assert report.chunk_timeouts >= 1 and not report.failures
        kinds = [e.kind for e in events]
        assert "chunk-timeout" in kinds and "pool-respawned" in kinds
        assert "job-retried" in kinds

    def test_timed_out_job_is_retried_like_a_failed_one(self, monkeypatch):
        jobs = tiny_jobs("gcc", "lbm")
        install_plan(FaultPlan(faults=(
            FaultSpec(site="worker", index=0, action="sleep",
                      attempts=(1,), seconds=30.0),)))
        shrink_watchdog(monkeypatch)
        events = []
        with JobExecutor(cache=ResultCache(), jobs=2,
                         keep_going=True) as executor:
            executor.progress = CallbackSink(events.append)
            results = executor.run(jobs)
            report = executor.last_report
        # Every resubmission of a timed-out job is one counted retry with
        # one job-retried event, as for a job that raised.
        retried = [e for e in events if e.kind == "job-retried"]
        assert report.retries == len(retried) >= 1
        hung = [e for e in retried if e.job == repr(jobs[0].describe())]
        assert len(hung) == 1 and hung[0].attempt == 2
        assert "watchdog deadline" in hung[0].error
        assert not report.failures
        assert as_dicts(results) == run_clean(jobs)

    def test_exhausted_respawn_budget_reports_the_timeout(
            self, monkeypatch):
        jobs = tiny_jobs("gcc", "lbm")
        # Index 0 hangs on every attempt; with no respawn budget left the
        # first timeout fails it for good instead of retrying.
        install_plan(FaultPlan(faults=(
            FaultSpec(site="worker", index=0, action="sleep",
                      attempts=(), seconds=30.0),)))
        shrink_watchdog(monkeypatch)
        monkeypatch.setattr(executor_mod, "POOL_RESPAWN_BUDGET", 0)
        events = []
        with JobExecutor(cache=ResultCache(), jobs=2,
                         keep_going=True) as executor:
            executor.progress = CallbackSink(events.append)
            results = executor.run(jobs)
            assert executor.chunk_timeouts == 1
            assert executor.pool_respawns == 0
            report = executor.last_report
        kinds = [e.kind for e in events]
        assert kinds.count("chunk-timeout") == 1
        assert report.failures
        assert kinds.count("job-failed") == len(report.failures)
        assert jobs[0] not in results
        assert jobs[0].key() in {failure.key for failure in report.failures}

    def test_watchdog_allowance_clamps(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "WATCHDOG_FLOOR_S", 10.0)
        monkeypatch.setattr(executor_mod, "WATCHDOG_CEILING_S", 60.0)
        monkeypatch.setattr(executor_mod, "WATCHDOG_FACTOR", 8.0)
        assert watchdog_allowance_s(1, 0.001) == 10.0        # floor
        assert watchdog_allowance_s(1000, 5.0) == 60.0       # ceiling
        assert watchdog_allowance_s(2, None) == max(
            10.0, 8.0 * executor_mod.WATCHDOG_INITIAL_EWMA_S * 2)  # seed

    def test_fault_free_runs_never_trip_the_default_watchdog(self):
        jobs = tiny_jobs("gcc", "lbm")
        with JobExecutor(cache=ResultCache(), jobs=2) as executor:
            executor.run(jobs)
            assert executor.chunk_timeouts == 0
            assert executor.pool_respawns == 0


# ----------------------------------------------------------------------
# Pool respawn after a worker death.
# ----------------------------------------------------------------------
class TestPoolRespawn:
    def test_injected_worker_kill_preserves_submission_order(self):
        jobs = tiny_jobs("gcc", "lbm", "mcf", "bzip2")
        install_plan(FaultPlan(faults=(
            FaultSpec(site="worker", index=1, action="exit",
                      attempts=(1,)),)))
        with JobExecutor(cache=ResultCache(), jobs=2,
                         keep_going=True) as executor:
            results = executor.run(jobs)
            assert executor.pool_respawns >= 1
            assert executor.retries >= 1
            assert executor.pool_active  # respawned pool stays warm
        assert list(results) == jobs  # submission order, not completion
        assert as_dicts(results) == run_clean(jobs)

    def test_lost_jobs_are_retried_like_failed_ones(self):
        jobs = tiny_jobs("gcc", "lbm", "mcf", "bzip2")
        install_plan(FaultPlan(faults=(
            FaultSpec(site="worker", index=1, action="exit",
                      attempts=(1,)),)))
        events = []
        with JobExecutor(cache=ResultCache(), jobs=2,
                         keep_going=True) as executor:
            executor.progress = CallbackSink(events.append)
            results = executor.run(jobs)
            report = executor.last_report
        # Each job lost with the dead worker gets attempt 2, one counted
        # retry and one job-retried event.
        retried = [e for e in events if e.kind == "job-retried"]
        assert report.retries == len(retried) >= 1
        assert all(e.attempt == 2 for e in retried)
        assert all("worker process died" in e.error for e in retried)
        assert repr(jobs[1].describe()) in {e.job for e in retried}
        assert not report.failures
        assert as_dicts(results) == run_clean(jobs)

    def test_exhausted_respawn_budget_fails_each_lost_job_once(
            self, monkeypatch):
        jobs = tiny_jobs("gcc", "lbm")
        install_plan(FaultPlan(faults=(
            FaultSpec(site="worker", index=0, action="exit",
                      attempts=()),)))
        monkeypatch.setattr(executor_mod, "POOL_RESPAWN_BUDGET", 0)
        events = []
        with JobExecutor(cache=ResultCache(), jobs=2,
                         keep_going=True) as executor:
            executor.progress = CallbackSink(events.append)
            results = executor.run(jobs)
            report = executor.last_report
            assert executor.jobs_failed == len(report.failures)
            assert executor.pool_respawns == 0
        keys = [failure.key for failure in report.failures]
        assert jobs[0].key() in keys and len(set(keys)) == len(keys)
        assert all("respawn budget exhausted" in failure.error
                   for failure in report.failures)
        kinds = [e.kind for e in events]
        assert kinds.count("job-failed") == len(keys)
        assert "job-retried" not in kinds
        assert "pool-respawned" not in kinds
        assert jobs[0] not in results

    def test_fail_fast_still_raises_broken_pool(self):
        from concurrent.futures.process import BrokenProcessPool

        jobs = tiny_jobs("gcc", "lbm")
        install_plan(FaultPlan(faults=(
            FaultSpec(site="worker", index=0, action="exit",
                      attempts=()),)))
        with JobExecutor(cache=ResultCache(), jobs=2) as executor:
            with pytest.raises(BrokenProcessPool):
                executor.run(jobs)
            assert not executor.pool_active

    def test_repeatedly_dying_worker_exhausts_respawn_budget(
            self, monkeypatch):
        jobs = tiny_jobs("gcc", "lbm")
        install_plan(FaultPlan(faults=(
            FaultSpec(site="worker", index=0, action="exit",
                      attempts=()),)))  # dies on every attempt
        monkeypatch.setattr(executor_mod, "RETRY_MAX_ATTEMPTS", 2)
        monkeypatch.setattr(executor_mod, "POOL_RESPAWN_BUDGET", 2)
        with JobExecutor(cache=ResultCache(), jobs=2,
                         keep_going=True) as executor:
            results = executor.run(jobs)
            report = executor.last_report
        # The killer job is skipped, the respawn budget holds, and the
        # batch still terminates instead of respawn-looping forever.
        # (The innocent job may be skipped too if it kept being lost to
        # the killer's pool breakage — that is collateral, not a hang.)
        assert jobs[0] not in results
        assert report.skipped >= 1
        assert jobs[0].key() in {failure.key for failure in report.failures}
        assert report.pool_respawns <= 2


# ----------------------------------------------------------------------
# Cache integrity: checksum envelope, quarantine, verify.
# ----------------------------------------------------------------------
class TestCacheIntegrity:
    def _result(self):
        return SimJob.single_core("Base", "gcc", TINY).run()

    def test_envelope_round_trip(self, tmp_path):
        result = self._result()
        ResultCache(tmp_path).put("ab" + "0" * 62, result)
        fresh = ResultCache(tmp_path)
        loaded = fresh.get("ab" + "0" * 62)
        assert loaded is not None
        assert loaded.to_dict() == result.to_dict()
        report = fresh.verify()
        assert report["ok"] == 1 and not report["corrupt"]

    def test_torn_write_is_quarantined_on_load(self, tmp_path):
        key = "ab" + "1" * 62
        install_plan(FaultPlan(faults=(
            FaultSpec(site="cache-write", index=0, action="torn"),)))
        ResultCache(tmp_path).put(key, self._result())
        install_plan(None)
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) is None
        stats = fresh.stats()
        assert stats.decode_failures == 1
        assert stats.quarantined == 1
        assert stats.quarantine_entries == 1
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert [p.name for p in quarantined] == [f"{key}.json"]
        # The slot is free again: re-storing and loading works.
        ResultCache(tmp_path).put(key, self._result())
        assert ResultCache(tmp_path).get(key) is not None

    def test_bitflip_fails_checksum_and_quarantines(self, tmp_path):
        key = "cd" + "2" * 62
        cache = ResultCache(tmp_path)
        cache.put(key, self._result())
        path = tmp_path / key[:2] / f"{key}.json"
        payload = json.loads(path.read_bytes())
        # Silent media corruption: a value changes, JSON stays valid.
        payload["result"]["total_cycles"] = \
            payload["result"]["total_cycles"] + 1
        path.write_text(json.dumps(payload, sort_keys=True),
                        encoding="utf-8")
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats().decode_failures == 1
        assert (tmp_path / "quarantine").is_dir()

    def test_legacy_envelope_less_entry_still_readable(self, tmp_path):
        result = self._result()
        key = "ef" + "3" * 62
        shard = tmp_path / key[:2]
        shard.mkdir(parents=True)
        legacy = {"salt": cache_salt(), "key": key,
                  "result": result.to_dict()}
        (shard / f"{key}.json").write_text(json.dumps(legacy),
                                           encoding="utf-8")
        cache = ResultCache(tmp_path)
        loaded = cache.get(key)
        assert loaded is not None
        assert loaded.to_dict() == result.to_dict()
        report = cache.verify()
        assert report["legacy"] == 1 and not report["corrupt"]

    def test_verify_reports_and_repairs(self, tmp_path):
        good_key = "aa" + "4" * 62
        bad_key = "bb" + "5" * 62
        cache = ResultCache(tmp_path)
        result = self._result()
        cache.put(good_key, result)
        cache.put(bad_key, result)
        path = tmp_path / bad_key[:2] / f"{bad_key}.json"
        path.write_bytes(path.read_bytes()[:20])  # torn write
        fresh = ResultCache(tmp_path)
        report = fresh.verify()
        assert report["checked"] == 2 and report["ok"] == 1
        assert report["corrupt"] == [bad_key]
        assert report["quarantined"] == 0 and path.exists()  # dry run
        repaired = fresh.verify(repair=True)
        assert repaired["quarantined"] == 1 and not path.exists()
        assert (tmp_path / "quarantine" / f"{bad_key}.json").exists()
        assert fresh.verify()["corrupt"] == []

    def test_gzip_torn_write_detected(self, tmp_path, monkeypatch):
        from repro.experiments.engine import cache as cache_module
        monkeypatch.setattr(cache_module, "COMPRESS_MIN_BYTES", 0)
        key = "dd" + "6" * 62
        cache = ResultCache(tmp_path)
        cache.put(key, self._result())
        path = tmp_path / key[:2] / f"{key}.json.gz"
        assert path.exists()
        path.write_bytes(path.read_bytes()[:30])
        fresh = ResultCache(tmp_path)
        assert fresh.get(key) is None
        assert fresh.stats().quarantined == 1

    def test_corrupt_shard_reexecutes_job(self, tmp_path):
        job = SimJob.single_core("Base", "gcc", TINY)
        with JobExecutor(cache=ResultCache(tmp_path), jobs=1) as executor:
            first = executor.run_one(job)
            assert executor.simulations_executed == 1
        path = tmp_path / job.key()[:2] / f"{job.key()}.json"
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with JobExecutor(cache=ResultCache(tmp_path), jobs=1) as executor:
            again = executor.run_one(job)
            assert executor.simulations_executed == 1  # miss: re-ran
        assert again.to_dict() == first.to_dict()

    def test_cache_verify_cli(self, tmp_path, capsys):
        key = "ab" + "7" * 62
        ResultCache(tmp_path).put(key, self._result())
        assert main(["cache", "verify", "--cache-dir",
                     str(tmp_path)]) == 0
        path = tmp_path / key[:2] / f"{key}.json"
        path.write_bytes(path.read_bytes()[:15])
        assert main(["cache", "verify", "--cache-dir",
                     str(tmp_path)]) == 1
        assert path.exists()  # report-only without --repair
        assert main(["cache", "verify", "--cache-dir", str(tmp_path),
                     "--repair"]) == 1
        assert not path.exists()
        assert main(["cache", "verify", "--cache-dir",
                     str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "corrupt" in out and "quarantined" in out

    def test_cache_stats_cli_shows_integrity_counters(self, tmp_path,
                                                      capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "decode failures : 0" in out
        assert "quarantined     : 0" in out


# ----------------------------------------------------------------------
# The canned chaos scenario CI runs: kill + transient raise + torn write.
# ----------------------------------------------------------------------
class TestChaosScenario:
    CHAOS = FaultPlan(faults=(
        FaultSpec(site="worker", index=1, action="exit", attempts=(1,)),
        FaultSpec(site="worker", index=3, action="raise", attempts=(1,)),
        FaultSpec(site="cache-write", index=2, action="torn"),
    ))

    def test_chaos_run_is_bit_identical_to_clean(self, tmp_path):
        jobs = tiny_jobs("gcc", "lbm", "mcf", "bzip2", "gromacs", "sjeng")
        install_plan(self.CHAOS)
        try:
            with JobExecutor(cache=ResultCache(tmp_path), jobs=2,
                             keep_going=True) as executor:
                results = executor.run(jobs)
                assert executor.retries >= 2
                assert executor.pool_respawns >= 1
        finally:
            install_plan(None)
        assert as_dicts(results) == run_clean(jobs)
        # The torn cache write poisoned one shard on disk; a fresh
        # process quarantines it and re-executes just that job.
        with JobExecutor(cache=ResultCache(tmp_path), jobs=1) as executor:
            rerun = executor.run(jobs)
            assert executor.simulations_executed <= 2
            assert executor.cache.stats().decode_failures >= 0
        assert as_dicts(rerun) == as_dicts(results)

    def test_executor_and_cache_carry_reliability_counters(self):
        with JobExecutor(cache=ResultCache(), jobs=1,
                         keep_going=True) as executor:
            executor.run(tiny_jobs("gcc") + [PoisonJob()])
            cache_stats = executor.cache.stats()
        assert executor.retries == RETRY_MAX_ATTEMPTS - 1
        assert executor.jobs_skipped == 1
        assert executor.jobs_failed == 1
        assert executor.chunk_timeouts == 0
        assert cache_stats.decode_failures == 0
        assert cache_stats.quarantined == 0


# ----------------------------------------------------------------------
# CLI failure surfaces.
# ----------------------------------------------------------------------
class TestCliFailureSurfaces:
    def test_keep_going_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["run-figure", "8", "--keep-going"])
        assert args.keep_going is True

    def test_batch_failure_exits_one_with_summary(self, monkeypatch,
                                                  capsys):
        import repro.cli as cli

        report = BatchReport(total=3)
        report.failures.append(engine.JobFailure(
            description="{'kind': 'poison'}", key="poison:x", attempts=3,
            error="RuntimeError('this job is poisoned')",
            traceback="Traceback (most recent call last):\n...\n"))
        error = JobExecutionError.from_report(report)

        def exploding_runner(scale):
            raise error

        monkeypatch.setitem(cli.FIGURES, 8, exploding_runner)
        assert main(["run-figure", "8"]) == 1
        err = capsys.readouterr().err
        assert "1 failed" in err and "retried" in err
        assert "Traceback" not in err  # one line, not a wall of text
        assert "--keep-going" in err

    @pytest.mark.parametrize("command", (["run-figure", "9"],
                                         ["run-static", "rowhammer"],
                                         ["timeline", "lbm"],
                                         ["sweep", "--segment-blocks", "8",
                                          "--cache-rows", "32"]))
    def test_keep_going_skip_fails_with_summary(self, command, capsys):
        install_plan(FaultPlan(faults=(
            FaultSpec(site="worker", index=0, action="raise",
                      attempts=()),)))
        assert main(command + ["--scale", "tiny", "--keep-going",
                               "--cache-dir", "none"]) == 1
        err = capsys.readouterr().err
        assert "1 skipped" in err
        assert "Traceback" not in err
