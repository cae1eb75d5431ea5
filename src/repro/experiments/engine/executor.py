"""Parallel job execution with a warm worker pool and cache-aware batching.

:class:`JobExecutor` takes batches of :class:`~repro.experiments.engine.spec.SimJob`
descriptions, answers every job it can from the :class:`ResultCache`, and
fans the remaining simulations across worker processes with
``concurrent.futures.ProcessPoolExecutor``.  ``jobs=1`` (the default) is a
deterministic serial fallback that never spawns processes, and the two
paths are bit-identical: every simulation is seeded and self-contained, so
only wall-clock time changes with the worker count.

Throughput machinery (what makes sustained sweeps fast):

* **Warm persistent pool** — the executor owns one long-lived
  ``ProcessPoolExecutor``, created lazily on the first parallel batch and
  reused across every subsequent :meth:`JobExecutor.run` call, so a
  session of figure batches pays pool spin-up once instead of per batch.
  ``close()`` (or using the executor as a context manager) shuts it down.
* **Per-worker memo** — a process-local cache memoizes trace generation
  and ``SystemConfig`` construction by the job's
  :meth:`~SimJob.trace_signature` / :meth:`~SimJob.config_signature`, so
  evaluating six configurations on one benchmark generates the
  benchmark's trace once per worker, not six times.  The serial path
  shares the same memo in the parent process and, like the workers, runs
  same-trace jobs back to back.
* **One job per free worker** — pending jobs wait in a queue (same-trace
  jobs adjacent) and at most one job per worker is submitted at a time,
  so every dispatched job is running.  A finished job frees its worker
  for the next queued job before its result is written to the cache, so
  a crash mid-sweep loses only the running jobs: re-running the same
  sweep against a persistent cache simulates only the jobs that never
  finished.  The *returned* mapping is still in deterministic
  submission order.

Reliability machinery (what makes million-job sweeps survive faults):

* **One option** — ``keep_going=False`` (the default) fails fast: after
  the first failure nothing more is dispatched, the running jobs finish
  and are cached, and the batch raises; a worker death re-raises
  ``BrokenProcessPool``.  ``keep_going=True`` (the CLI's
  ``--keep-going``) retries each failed, lost or timed-out job up to
  :data:`RETRY_MAX_ATTEMPTS` attempts and then *skips* it: absent from
  the returned mapping, listed in :attr:`JobExecutor.last_report`.
* **One retry-or-fail rule** — every failure, whether the serial loop
  caught it, a worker shipped it back, a worker died with it, or the
  watchdog timed it out, goes through :meth:`JobExecutor._retry_or_fail`:
  a job with attempts left gets the next attempt, a deterministic
  backoff, one ``retries`` count and one ``job-retried`` event; a job at
  the limit gets exactly one :class:`JobFailure` and one ``job-failed``
  event.
* **Deterministic retry backoff** — :func:`retry_delay_s` grows
  exponentially with the attempt number and jitters by a factor derived
  from a SHA-256 of (job key, attempt), so reruns of the same sweep
  wait the same delays: chaos runs are reproducible.
* **Hung-worker watchdog** — every running job has a soft deadline,
  counted from its dispatch (:func:`watchdog_allowance_s`, from an EWMA
  of observed per-job runtimes).  An overdue job is surfaced as a
  ``chunk-timeout`` progress event, the stuck pool is killed and
  respawned, the overdue job is retried, and the other jobs the kill
  interrupted are requeued without being charged an attempt.
* **Pool respawn** — a worker death (``BrokenProcessPool``) fails every
  running job with it.  Under ``keep_going`` the executor respawns the
  pool and retries only those jobs, at most :data:`POOL_RESPAWN_BUDGET`
  times per batch; past the budget every unfinished job fails.
* **Fault injection** — the process-wide :class:`~.faults.FaultPlan`
  (:func:`repro.experiments.engine.faults.install_plan` or
  ``REPRO_FAULT_PLAN``) deterministically trips worker raises/kills/
  hangs so all of the above is test-provable.

The worker count resolves as: explicit ``jobs=`` argument, else the
``REPRO_JOBS`` environment variable, else 1 (serial).
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.experiments.engine import faults as faults_mod
from repro.experiments.engine.cache import ResultCache
from repro.experiments.engine.faults import FaultPlan, apply_worker_fault
from repro.experiments.engine.progress import BatchProgress, ProgressSink
from repro.experiments.engine.spec import SimJob
from repro.sim.metrics import SimulationResult
from repro.sim.system import run_workload

#: Environment variable selecting the default worker-process count.
JOBS_ENV = "REPRO_JOBS"

#: Per-worker memo capacities.  Traces are the big entries (tens of
#: thousands of records at paper scale), so their cap is small; built
#: ``SystemConfig`` objects are tiny.
TRACE_MEMO_ENTRIES = 32
CONFIG_MEMO_ENTRIES = 256

#: Attempts per job under ``keep_going``, including the first.
RETRY_MAX_ATTEMPTS = 3
#: Backoff before attempt ``n+1``: ``BASE * FACTOR ** (n - 1)`` seconds,
#: scaled by ``1 + JITTER * u`` and capped at ``MAX`` (see
#: :func:`retry_delay_s`).
RETRY_BACKOFF_BASE_S = 0.05
RETRY_BACKOFF_FACTOR = 2.0
RETRY_BACKOFF_MAX_S = 5.0
RETRY_JITTER = 0.25

#: A running job's soft deadline: ``FACTOR x per-job EWMA``, clamped to
#: ``[FLOOR, CEILING]`` seconds (see :func:`watchdog_allowance_s`).  The
#: EWMA starts at ``INITIAL_EWMA``.
WATCHDOG_FLOOR_S = 30.0
WATCHDOG_CEILING_S = 600.0
WATCHDOG_FACTOR = 8.0
WATCHDOG_EWMA_ALPHA = 0.3
WATCHDOG_INITIAL_EWMA_S = 1.0

#: Worker pools a batch may respawn after worker deaths or watchdog
#: kills before every unfinished job fails.
POOL_RESPAWN_BUDGET = 3


def retry_delay_s(key: str, attempt: int) -> float:
    """Seconds to wait after failed ``attempt`` (1-based) of ``key``.

    The jitter ``u`` in ``[0, 1)`` comes from SHA-256 of the job key and
    the attempt number: deterministic per (job, attempt), so reruns of a
    sweep reproduce the same schedule while distinct jobs decorrelate.
    """
    delay = min(RETRY_BACKOFF_BASE_S
                * RETRY_BACKOFF_FACTOR ** max(0, attempt - 1),
                RETRY_BACKOFF_MAX_S)
    if RETRY_JITTER and delay > 0:
        digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
        unit = int.from_bytes(digest[:8], "big") / 2.0 ** 64
        delay = min(delay * (1.0 + RETRY_JITTER * unit),
                    RETRY_BACKOFF_MAX_S)
    return delay


def watchdog_allowance_s(ewma: float | None) -> float:
    """Soft deadline for one running job, counted from its dispatch, given
    the per-job EWMA of simulation seconds (``None`` before the first
    observation).

    At most one job per worker is dispatched, so the deadline never
    includes time spent waiting for a worker.
    """
    per_job = ewma if ewma is not None else WATCHDOG_INITIAL_EWMA_S
    return min(WATCHDOG_CEILING_S,
               max(WATCHDOG_FLOOR_S, WATCHDOG_FACTOR * per_job))


@dataclass
class JobFailure:
    """One job that failed its last attempt (its first, failing fast)."""

    #: ``describe()`` output of the failed job (repr form).
    description: str
    #: Content-addressed cache key of the job.
    key: str
    #: Attempts consumed (including the failing one).
    attempts: int
    #: Repr of the final exception.
    error: str
    #: Full worker-side traceback of the final attempt.
    traceback: str

    def one_line(self) -> str:
        """Compact single-line form for multi-failure summaries.

        Multicore ``describe()`` dicts embed whole trace configs and run
        to kilobytes; a summary line elides the middle (the full text
        stays on :attr:`description`/:attr:`traceback`).
        """
        description = self.description
        if len(description) > 160:
            description = f"{description[:120]} ... {description[-36:]}"
        return f"{description} (attempts={self.attempts}): {self.error}"


@dataclass
class BatchReport:
    """Everything that happened to one :meth:`JobExecutor.run` batch."""

    #: Distinct jobs in the batch (after dedup).
    total: int = 0
    #: Jobs answered from the result cache.
    cache_hits: int = 0
    #: Simulations that completed successfully.
    executed: int = 0
    #: Retry attempts performed (failed, lost and timed-out jobs that
    #: were resubmitted).
    retries: int = 0
    #: Running jobs the watchdog timed out.
    chunk_timeouts: int = 0
    #: Worker pools respawned mid-batch (worker death or watchdog kill).
    pool_respawns: int = 0
    #: Jobs that exhausted every attempt.
    failures: list[JobFailure] = field(default_factory=list)
    #: Cache keys of jobs skipped under ``keep_going``.
    skipped_keys: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def skipped(self) -> int:
        return len(self.skipped_keys)

    def summary(self) -> str:
        """One-line outcome: the CLI's nonzero-exit message."""
        parts = [f"{self.failed} failed", f"{self.skipped} skipped",
                 f"{self.retries} retried"]
        if self.chunk_timeouts:
            parts.append(f"{self.chunk_timeouts} job timeout(s)")
        if self.pool_respawns:
            parts.append(f"{self.pool_respawns} pool respawn(s)")
        return ", ".join(parts)


class JobExecutionError(RuntimeError):
    """One or more jobs failed for good (attempts exhausted).

    The message embeds every failed job's :meth:`~SimJob.describe` output
    — the first with its full worker-side traceback, the rest as one-line
    summaries — so a poisoned point of a large sweep is identifiable
    without re-running anything.  ``report`` carries the structured
    :class:`BatchReport` (per-job attempts, skipped keys, retry counts).
    """

    def __init__(self, message: str, report: BatchReport):
        super().__init__(message)
        self.report = report

    @classmethod
    def from_report(cls, report: BatchReport) -> "JobExecutionError":
        first = report.failures[0]
        lines = [f"{report.failed} job(s) failed ({report.summary()})",
                 f"job failed: {first.description}",
                 f"cause: {first.error}",
                 first.traceback.rstrip()]
        if report.failed > 1:
            lines.append("also failed:")
            lines.extend(f"  [{ordinal}] {failure.one_line()}"
                         for ordinal, failure
                         in enumerate(report.failures[1:], start=2))
        return cls("\n".join(lines), report)


class _Memo:
    """Bounded FIFO memo for built traces and system configurations."""

    __slots__ = ("traces", "configs")

    def __init__(self):
        self.traces: OrderedDict = OrderedDict()
        self.configs: OrderedDict = OrderedDict()

    @staticmethod
    def _get(store: OrderedDict, key, build, cap: int):
        try:
            return store[key]
        except (KeyError, TypeError):
            # TypeError: unhashable signature from a duck-typed job —
            # fall back to building without memoization.
            value = build()
            try:
                store[key] = value
            except TypeError:
                return value
            while len(store) > cap:
                store.popitem(last=False)
            return value

    def materialize(self, job):
        """The (config, traces) pair for ``job``, memoized by signature."""
        config = self._get(self.configs, job.config_signature(),
                           job.build_config, CONFIG_MEMO_ENTRIES)
        traces = self._get(self.traces, job.trace_signature(),
                           job.build_traces, TRACE_MEMO_ENTRIES)
        return config, traces


#: The process-local memo.  In the parent process it serves the serial
#: path.  A forked worker starts with a copy of the parent's memo (a free
#: warm start); either way each process fills its own afterwards, so
#: workers never contend on shared state.
_MEMO = _Memo()


def _run_job(job) -> tuple[SimulationResult, float]:
    """Run one job with memoized inputs; returns (result, sim CPU secs).

    Identical to ``job.run()`` bit for bit — the memo only changes *when*
    traces and configs are built, never their contents.  The returned CPU
    time covers exactly the simulation (``run_workload``), excluding trace
    generation and config construction, so the executor can report true
    engine overhead (wall minus simulation CPU).
    """
    config, traces = _MEMO.materialize(job)
    cpu_start = time.process_time()
    result = run_workload(config, traces, job.workload_name)
    return result, time.process_time() - cpu_start


def _run_attempt(job, index: int, attempt: int, delay_s: float,
                 plan: FaultPlan | None = None):
    """Worker entry point: run one attempt of job ``index``.

    ``delay_s`` is the retry backoff (slept in the worker so the parent's
    loop never blocks); ``index`` and ``attempt`` feed the
    fault-injection plan so transient faults can clear on the retry.
    Returns ``(worker_pid, result, sim_cpu_s, failure)``: ``failure`` is
    ``None``, or ``(exception_repr, traceback_text)`` with ``result``
    ``None``.  Exceptions are shipped as text — never pickled — so
    arbitrary worker failures survive the IPC boundary; the parent
    retries or reports with the job's full description.
    """
    try:
        if delay_s > 0:
            time.sleep(delay_s)
        apply_worker_fault(plan, index, attempt)
        result, sim_cpu = _run_job(job)
    except BaseException as exc:
        return os.getpid(), None, 0.0, (repr(exc), traceback.format_exc())
    return os.getpid(), result, sim_cpu, None


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve the worker count from an argument or ``REPRO_JOBS``."""
    if jobs is None:
        jobs = int(os.environ.get(JOBS_ENV, "1"))
    if jobs < 1:
        raise ValueError(f"worker count must be >= 1, got {jobs}")
    return jobs


def _kill_pool_processes(pool: ProcessPoolExecutor) -> None:
    """Best-effort SIGTERM to a pool's workers (a hung worker never
    returns, so a graceful shutdown would wait forever)."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead process
            pass


class _Batch:
    """Per-batch attempt state the serial and parallel loops share."""

    __slots__ = ("pending", "report", "tracker", "max_attempts",
                 "attempts", "delays")

    def __init__(self, pending: Sequence[tuple[SimJob, str]],
                 report: BatchReport, tracker: BatchProgress | None,
                 keep_going: bool):
        self.pending = pending
        self.report = report
        self.tracker = tracker
        self.max_attempts = RETRY_MAX_ATTEMPTS if keep_going else 1
        #: Per pending index: the attempt that runs next (1-based) and
        #: the backoff slept before it.
        self.attempts = [1] * len(pending)
        self.delays = [0.0] * len(pending)


class JobExecutor:
    """Runs simulation-job batches through a cache and a warm worker pool."""

    def __init__(self, cache: ResultCache | None = None,
                 jobs: int | None = None,
                 progress: ProgressSink | None = None,
                 keep_going: bool = False):
        self.cache = cache if cache is not None else ResultCache()
        self.jobs = resolve_jobs(jobs)
        #: Optional progress sink; every batch emits lifecycle events to
        #: it (see :mod:`repro.experiments.engine.progress`).  Assignable
        #: after construction — the CLI attaches sinks that way.
        self.progress = progress
        #: Retry failed jobs, then skip them, instead of failing fast.
        self.keep_going = keep_going
        #: Simulations actually executed (cache misses) over the lifetime.
        self.simulations_executed = 0
        #: Jobs answered straight from the cache over the lifetime.
        self.cache_hits = 0
        #: Retry attempts performed over the lifetime.
        self.retries = 0
        #: Jobs skipped (``keep_going``) over the lifetime.
        self.jobs_skipped = 0
        #: Jobs that exhausted every attempt over the lifetime.
        self.jobs_failed = 0
        #: Running jobs the watchdog timed out over the lifetime.
        self.chunk_timeouts = 0
        #: Worker pools respawned mid-batch over the lifetime.
        self.pool_respawns = 0
        #: CPU seconds spent inside ``run_workload`` (summed over workers)
        #: for every simulation this executor ran.  ``wall - sim_cpu_s``
        #: is the engine's own overhead: trace generation, config builds,
        #: pickling, scheduling, and cache writes.
        self.sim_cpu_s = 0.0
        #: Worker PIDs that produced results in the most recent parallel
        #: batch (the parent PID for serial batches).  Lets tests verify
        #: the pool stays warm across batches.
        self.last_worker_pids: frozenset[int] = frozenset()
        #: Structured outcome of the most recent :meth:`run` batch.
        self.last_report: BatchReport | None = None
        #: Per-job EWMA of observed simulation seconds (watchdog input).
        self._job_ewma_s: float | None = None
        self._pool: ProcessPoolExecutor | None = None

    # ------------------------------------------------------------------
    # Warm-pool lifecycle.
    # ------------------------------------------------------------------
    @property
    def pool_active(self) -> bool:
        """Whether a warm worker pool is currently alive."""
        return self._pool is not None

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def _discard_pool(self, kill: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            if kill:
                _kill_pool_processes(pool)
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the warm worker pool down (idempotent).

        The executor stays usable: the next parallel batch lazily spins a
        fresh pool up again.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "JobExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Batch execution.
    # ------------------------------------------------------------------
    def run(self, jobs: Iterable[SimJob]) -> dict[SimJob, SimulationResult]:
        """Run a batch of jobs; returns one result per *distinct* job.

        Duplicate jobs (equal specs) are deduplicated before execution, and
        jobs whose content-addressed key is already cached are not run at
        all.  Results land in the cache in completion order (so partial
        sweeps are resumable) but are returned in submission order, so the
        mapping — and everything derived from it — is independent of
        worker scheduling.

        A failed job raises :class:`JobExecutionError`; under
        ``keep_going`` jobs that exhaust their attempts are instead
        absent from the returned mapping (their keys are listed in
        :attr:`last_report`).
        """
        plan = faults_mod.active_plan()

        ordered: list[tuple[SimJob, str]] = []
        seen: set[SimJob] = set()
        for job in jobs:
            if job not in seen:
                seen.add(job)
                ordered.append((job, job.key()))

        results: dict[SimJob, SimulationResult] = {}
        pending: list[tuple[SimJob, str]] = []
        batch_hits = 0
        for job, key in ordered:
            cached = self.cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                batch_hits += 1
                results[job] = cached
            else:
                pending.append((job, key))

        report = BatchReport(total=len(ordered), cache_hits=batch_hits)
        self.last_report = report
        tracker = None
        if self.progress is not None:
            tracker = BatchProgress(self.progress, total=len(ordered),
                                    cache_hits=batch_hits,
                                    workers=self.jobs)
            tracker.batch_start()
        batch = _Batch(pending, report, tracker, self.keep_going)
        try:
            if pending:
                if self.jobs > 1 and len(pending) > 1:
                    self._run_parallel(batch, results, plan)
                else:
                    self._run_serial(batch, results, plan)
        finally:
            if tracker is not None:
                tracker.batch_end()
        self._finish_report(batch)
        # Submission order, independent of completion order.
        return {job: results[job] for job, _ in ordered if job in results}

    def run_one(self, job: SimJob) -> SimulationResult:
        """Run a single job through the cache (always serial); raises
        :class:`JobExecutionError` when the job was skipped."""
        results = self.run([job])
        if self.last_report.skipped:
            raise JobExecutionError.from_report(self.last_report)
        return results[job]

    def _finish_report(self, batch: _Batch) -> None:
        """Raise the batch's failures, or under ``keep_going`` skip them
        (and fold them into the lifetime counters)."""
        report = batch.report
        if report.failures and not self.keep_going:
            raise JobExecutionError.from_report(report)
        for failure in report.failures:
            report.skipped_keys.append(failure.key)
            self.jobs_skipped += 1
            if batch.tracker is not None:
                batch.tracker.job_skipped(failure.error, failure.description)

    # ------------------------------------------------------------------
    # Shared attempt bookkeeping.
    # ------------------------------------------------------------------
    def _record_success(self, batch: _Batch, index: int, result,
                        sim_cpu: float, results: dict) -> None:
        self.simulations_executed += 1
        self.sim_cpu_s += sim_cpu
        batch.report.executed += 1
        results[batch.pending[index][0]] = result
        alpha = WATCHDOG_EWMA_ALPHA
        self._job_ewma_s = sim_cpu if self._job_ewma_s is None \
            else alpha * sim_cpu + (1.0 - alpha) * self._job_ewma_s

    def _retry_or_fail(self, batch: _Batch, index: int, error: str,
                       tb_text: str) -> bool:
        """The one rule for a failed, lost or timed-out attempt of job
        ``index``.  Returns ``True`` when the job gets another attempt
        (after ``batch.delays[index]`` seconds), ``False`` when it failed
        for good."""
        attempt = batch.attempts[index]
        if attempt >= batch.max_attempts:
            self._fail(batch, index, error, tb_text)
            return False
        job, key = batch.pending[index]
        batch.delays[index] = retry_delay_s(key, attempt)
        batch.attempts[index] = attempt + 1
        self.retries += 1
        batch.report.retries += 1
        if batch.tracker is not None:
            batch.tracker.job_retried(error, _describe(job), attempt + 1)
        return True

    def _fail(self, batch: _Batch, index: int, error: str,
              tb_text: str) -> None:
        """Record job ``index`` as failed: one report entry, one event."""
        job, key = batch.pending[index]
        description = _describe(job)
        self.jobs_failed += 1
        batch.report.failures.append(JobFailure(
            description=description, key=key,
            attempts=batch.attempts[index], error=error, traceback=tb_text))
        if batch.tracker is not None:
            batch.tracker.job_failed(error, description)

    # ------------------------------------------------------------------
    # Serial execution.
    # ------------------------------------------------------------------
    def _run_serial(self, batch: _Batch, results: dict,
                    plan: FaultPlan | None) -> None:
        self.last_worker_pids = frozenset((os.getpid(),))
        for index, (job, key) in _by_trace(batch.pending):
            while True:
                try:
                    # The serial path runs in this very process, so an
                    # injected "exit" fault raises instead of killing us.
                    apply_worker_fault(plan, index, batch.attempts[index],
                                       allow_exit=False)
                    result, sim_cpu = _run_job(job)
                except Exception as exc:
                    if self._retry_or_fail(batch, index, repr(exc),
                                           traceback.format_exc()):
                        time.sleep(batch.delays[index])
                        continue
                    if not self.keep_going:
                        return  # fail fast: run() raises the report
                    break
                self._record_success(batch, index, result, sim_cpu, results)
                self.cache.put(key, result)
                if batch.tracker is not None:
                    batch.tracker.job_completed()
                break

    # ------------------------------------------------------------------
    # Parallel execution.
    # ------------------------------------------------------------------
    def _run_parallel(self, batch: _Batch, results: dict,
                      plan: FaultPlan | None) -> None:
        pending, report, tracker = batch.pending, batch.report, batch.tracker
        #: Jobs no worker has started, as ``(index, job)``: same-trace jobs
        #: adjacent, so each worker builds (or memo-hits) few distinct
        #: traces, and a retried job back at the front.  Results are
        #: reassembled by index, so output order never depends on it.
        queue = deque((index, job) for index, (job, _) in _by_trace(pending))
        #: Running future -> (index, job, its watchdog deadline on the
        #: ``time.monotonic`` clock).  At most one per worker.
        running: dict = {}
        pids: set[int] = set()

        spawned = self._pool is None
        pool = self._ensure_pool()
        if spawned and tracker is not None:
            tracker.pool_spawned()

        def dispatch() -> None:
            """Start queued jobs on the free workers.  A job whose submit
            finds the pool broken stays queued, and nothing starts while
            the pool is being replaced (``pool`` is ``None``)."""
            if report.failures and not self.keep_going:
                queue.clear()  # fail fast: nothing starts after a failure
            while queue and len(running) < self.jobs and pool is not None:
                index, job = queue[0]
                try:
                    future = pool.submit(_run_attempt, job, index,
                                         batch.attempts[index],
                                         batch.delays[index], plan)
                except BrokenProcessPool:
                    return
                queue.popleft()
                running[future] = (index, job, time.monotonic()
                                   + watchdog_allowance_s(self._job_ewma_s))
                if tracker is not None:
                    tracker.chunk_dispatched()

        def finish(index: int, job, outcome) -> None:
            """Fold in one finished attempt.  The freed worker gets its
            next job before the result is written to the cache."""
            pid, result, sim_cpu, failure = outcome
            pids.add(pid)
            if failure is not None and self._retry_or_fail(batch, index,
                                                           *failure):
                queue.appendleft((index, job))
            dispatch()
            if failure is None:
                self._record_success(batch, index, result, sim_cpu, results)
                self.cache.put(pending[index][1], result)
                if tracker is not None:
                    tracker.chunk_completed(pid)

        def triage() -> list:
            """Detach every running job from a pool about to be discarded:
            fold in the ones that finished, and return the others as
            ``(index, job, deadline)``."""
            nonlocal pool
            pool = None
            unfinished = []
            for future, (index, job, deadline) in list(running.items()):
                try:
                    outcome = future.result(timeout=0)
                except Exception:
                    unfinished.append((index, job, deadline))
                else:
                    finish(index, job, outcome)
            running.clear()
            return unfinished

        def recover(lost: list, cause: str, tb_text: str) -> None:
            """Carry on after the pool was discarded: respawn it and retry
            each ``lost`` job — or, past the respawn budget, fail every
            unfinished job."""
            nonlocal pool
            if report.pool_respawns >= POOL_RESPAWN_BUDGET:
                error = "worker pool respawn budget exhausted"
                for index, _ in lost + list(queue):
                    self._fail(batch, index, error,
                               f"{error} after: {tb_text}")
                queue.clear()
                return
            self.pool_respawns += 1
            report.pool_respawns += 1
            pool = self._ensure_pool()
            if tracker is not None:
                tracker.pool_respawned()
            for index, job in lost:
                if self._retry_or_fail(batch, index, cause, tb_text):
                    queue.appendleft((index, job))

        def handle_broken_pool(exc: BaseException) -> None:
            """A worker died, and the pool failed every running job with
            it: fold in the jobs that finished first, charge the rest an
            attempt, and recover — or, failing fast, re-raise."""
            lost = [(index, job) for index, job, _ in triage()]
            self._discard_pool()
            if tracker is not None:
                tracker.pool_broken()
            if not self.keep_going:
                # Every finished job is already in the cache — that is
                # the resumability guarantee — but the pool is unusable;
                # the next run() starts a fresh one.
                raise exc
            cause = "worker process died"
            recover(lost, cause, f"{cause}; no worker-side traceback is "
                    "available for a dead worker\n")

        def handle_watchdog(now: float) -> None:
            """Kill the hung pool, count each overdue job as a timeout,
            and recover: overdue jobs are retried, and the other jobs the
            kill interrupts are requeued without being charged."""
            overdue = []
            for index, job, deadline in triage():
                if now >= deadline:
                    overdue.append((index, job))
                else:
                    queue.appendleft((index, job))
            self._discard_pool(kill=True)
            for _ in overdue:
                self.chunk_timeouts += 1
                report.chunk_timeouts += 1
                if tracker is not None:
                    tracker.chunk_timeout()
            cause = "job exceeded the watchdog deadline"
            recover(overdue, cause, f"{cause}; the worker was killed\n")

        try:
            while True:
                dispatch()
                if not running:
                    if not queue:
                        break
                    # Every submit found the pool broken, and no running
                    # job is left to report the break.
                    handle_broken_pool(
                        BrokenProcessPool("worker pool broke while idle"))
                    continue
                deadline = min(entry[2] for entry in running.values())
                done, _ = wait(running, timeout=max(
                    0.0, deadline - time.monotonic()),
                    return_when=FIRST_COMPLETED)
                for future in done:
                    index, job, _ = running[future]
                    try:
                        outcome = future.result()
                    except BrokenProcessPool as exc:
                        # A worker died (OOM kill, crash, os._exit) and
                        # took every running job with it.
                        handle_broken_pool(exc)
                        break
                    del running[future]
                    finish(index, job, outcome)
                now = time.monotonic()
                if any(now >= entry[2] for entry in running.values()):
                    handle_watchdog(now)
        finally:
            self.last_worker_pids = frozenset(pids)


def _describe(job) -> str:
    """Best-effort one-line description of a job for error messages."""
    try:
        return repr(job.describe())
    except Exception:  # pragma: no cover - describe() itself failing
        return repr(job)


def _by_trace(pending: Sequence[tuple[SimJob, str]]) -> list:
    """``(index, (job, key))`` for ``pending``, same-trace jobs adjacent:
    the bounded trace and compiled-trace memos would otherwise evict each
    trace of a batch cycling through many before its next use."""
    indexed = list(enumerate(pending))
    indexed.sort(key=lambda item: (_sort_token(item[1][0]), item[0]))
    return indexed


def _sort_token(job) -> str:
    """Deterministic grouping token: jobs sharing traces sort together."""
    try:
        return repr(job.trace_signature())
    except Exception:
        return repr(job)
