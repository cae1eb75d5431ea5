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
* **Per-worker memo** — a process-local cache installed by the worker
  initializer memoizes trace generation and ``SystemConfig`` construction
  by the job's :meth:`~SimJob.trace_signature` /
  :meth:`~SimJob.config_signature`, so evaluating six configurations on
  one benchmark generates the benchmark's trace once per worker, not six
  times.  The serial path shares the same memo in the parent process.
* **Chunked dispatch** — pending jobs are grouped (same-trace jobs
  adjacent) into roughly ``4 x workers`` chunks per batch, amortizing
  pickling and IPC round-trips over many jobs.
* **Completion-order draining** — chunk results are consumed as they
  land and written to the cache immediately, so a crash mid-sweep loses
  only in-flight chunks: re-running the same sweep against a persistent
  cache simulates only the jobs that never finished.  The *returned*
  mapping is still in deterministic submission order.

Reliability machinery (what makes million-job sweeps survive faults):

* **Failure policies** — :meth:`JobExecutor.run` executes under a
  ``failure_policy``: ``fail_fast`` (the default: first failure cancels
  the batch and raises), ``retry_then_fail`` (failed jobs are retried
  per the :class:`RetryPolicy`; jobs that exhaust their attempts are
  collected and raised together at batch end), or ``retry_then_skip``
  (exhausted jobs are skipped — absent from the returned mapping — and
  the batch completes).  Every batch's outcome lands in a
  :class:`BatchReport` on :attr:`JobExecutor.last_report`.
* **Deterministic retry backoff** — :meth:`RetryPolicy.delay_s` grows
  exponentially with the attempt number and jitters by a factor derived
  from a SHA-256 of (job key, attempt), so reruns of the same sweep
  wait the same delays: chaos runs are reproducible.
* **Hung-worker watchdog** — the parallel drain enforces per-chunk soft
  deadlines derived from an EWMA of observed per-job runtimes (clamped
  to a floor/ceiling; the clock restarts on any batch progress, so
  queue wait behind healthy chunks never trips it).  A timed-out chunk
  is surfaced as a ``chunk-timeout`` progress event, the stuck pool is
  killed and respawned, and the chunk's jobs are resubmitted with a
  bumped attempt count.
* **Pool respawn** — a worker death (``BrokenProcessPool``) under a
  retry policy respawns the pool and resubmits only the lost chunks
  (each lost job isolated into its own chunk so a repeat offender only
  takes itself down), within a bounded ``pool_respawn_budget``.  Under
  ``fail_fast`` the exception propagates exactly as before.
* **Fault injection** — an active :class:`~.faults.FaultPlan` (the
  ``fault_plan=`` argument, :func:`repro.experiments.engine.faults.install_plan`,
  or ``REPRO_FAULT_PLAN``) deterministically trips worker raises/kills/
  hangs so all of the above is test-provable.

The worker count resolves as: explicit ``jobs=`` argument, else the
``REPRO_JOBS`` environment variable, else 1 (serial).
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback
from collections import OrderedDict
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

#: Chunks created per worker and batch: enough that a slow chunk cannot
#: leave workers idle for long, few enough that pickling/IPC is amortized
#: over several jobs per round-trip.
CHUNKS_PER_WORKER = 4

#: Per-worker memo capacities.  Traces are the big entries (tens of
#: thousands of records at paper scale), so their cap is small; built
#: ``SystemConfig`` objects are tiny.
TRACE_MEMO_ENTRIES = 32
CONFIG_MEMO_ENTRIES = 256

#: Legal ``failure_policy`` values.
FAILURE_POLICIES = ("fail_fast", "retry_then_skip", "retry_then_fail")


@dataclass(frozen=True)
class RetryPolicy:
    """How many times a failed job is retried, and how long to wait.

    The backoff before attempt ``n+1`` is
    ``backoff_base_s * backoff_factor ** (n - 1)``, clamped to
    ``backoff_max_s``, scaled by ``1 + jitter * u`` where ``u`` in
    ``[0, 1)`` is derived from SHA-256 of the job key and the attempt
    number — deterministic per (job, attempt), so reruns of a sweep
    reproduce the same schedule while distinct jobs still decorrelate.
    """

    #: Total attempts per job, including the first (1 = never retry).
    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 5.0
    #: Relative jitter amplitude (0 disables jitter).
    jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, "
                             f"got {self.max_attempts}")

    def delay_s(self, key: str, attempt: int) -> float:
        """Seconds to wait after failed ``attempt`` (1-based) of ``key``."""
        base = min(self.backoff_base_s
                   * self.backoff_factor ** max(0, attempt - 1),
                   self.backoff_max_s)
        if self.jitter and base > 0:
            digest = hashlib.sha256(
                f"{key}:{attempt}".encode("utf-8")).digest()
            unit = int.from_bytes(digest[:8], "big") / 2.0 ** 64
            base = min(base * (1.0 + self.jitter * unit),
                       self.backoff_max_s)
        return base


@dataclass(frozen=True)
class WatchdogPolicy:
    """Soft deadlines for parallel chunks (the hung-worker watchdog).

    A chunk's allowance is ``factor * ewma_job_s * chunk_jobs`` clamped
    to ``[floor_s, ceiling_s]``, where ``ewma_job_s`` is an exponentially
    weighted average of observed per-job simulation times (seeded with
    ``initial_ewma_s`` until the first observation).  The deadline clock
    restarts whenever *any* chunk completes, so the watchdog measures
    batch stall, not queue wait: it only fires when nothing has finished
    for a whole allowance — the signature of a hung worker.
    """

    enabled: bool = True
    floor_s: float = 30.0
    ceiling_s: float = 600.0
    factor: float = 8.0
    ewma_alpha: float = 0.3
    initial_ewma_s: float = 1.0

    def allowance_s(self, chunk_jobs: int, ewma_job_s: float | None) -> float:
        per_job = ewma_job_s if ewma_job_s is not None \
            else self.initial_ewma_s
        raw = self.factor * per_job * max(1, chunk_jobs)
        return min(self.ceiling_s, max(self.floor_s, raw))


@dataclass
class JobFailure:
    """One job that exhausted every attempt (or failed under fail_fast)."""

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
    #: Retry attempts performed (failures and worker deaths that were
    #: resubmitted; excludes watchdog resubmissions, which
    #: ``chunk_timeouts`` counts).
    retries: int = 0
    #: Chunks the watchdog timed out and resubmitted.
    chunk_timeouts: int = 0
    #: Worker pools respawned mid-batch (worker death or watchdog kill).
    pool_respawns: int = 0
    #: Jobs that exhausted every attempt.
    failures: list[JobFailure] = field(default_factory=list)
    #: Cache keys of jobs skipped under ``retry_then_skip``.
    skipped_keys: list[str] = field(default_factory=list)
    #: The failure policy the batch ran under.
    policy: str = "fail_fast"

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
            parts.append(f"{self.chunk_timeouts} chunk timeout(s)")
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

    def __init__(self, message: str, job=None,
                 report: BatchReport | None = None):
        super().__init__(message)
        self.job = job
        self.report = report

    @classmethod
    def from_report(cls, report: BatchReport, job=None) -> "JobExecutionError":
        first = report.failures[0]
        lines = [f"{report.failed} job(s) failed "
                 f"(policy {report.policy}: {report.summary()})",
                 f"job failed: {first.description}",
                 f"cause: {first.error}",
                 first.traceback.rstrip()]
        if report.failed > 1:
            lines.append("also failed:")
            lines.extend(f"  [{ordinal}] {failure.one_line()}"
                         for ordinal, failure
                         in enumerate(report.failures[1:], start=2))
        return cls("\n".join(lines), job=job, report=report)


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
#: path; in workers it is (re-)installed by :func:`_init_worker`.
_MEMO = _Memo()


def _init_worker() -> None:
    """Worker initializer: install a fresh process-local memo.

    With the default ``fork`` start method the worker inherits the
    parent's memo contents at pool-creation time (a free warm start); a
    ``spawn`` context starts empty.  Either way the memo is per-process
    afterwards, so workers never contend on shared state.
    """
    global _MEMO
    if _MEMO is None:  # pragma: no cover - spawn-context safety net
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


def _run_chunk(chunk: Sequence[tuple[int, SimJob, int, float]],
               plan: FaultPlan | None = None):
    """Worker entry point: run a chunk of (index, job, attempt, delay)
    items.

    ``delay_s`` is the retry backoff (slept in the worker so the parent's
    drain loop never blocks); ``attempt`` feeds the fault-injection plan
    so transient faults can clear on the retry.  Returns
    ``(worker_pid, done, failure)`` where ``done`` is a list of
    ``(index, result, sim_cpu_s)`` for every job that finished and
    ``failure`` is ``None`` or ``(index, exception_repr, traceback_text)``
    for the first job that raised.  Exceptions are shipped as text —
    never pickled — so arbitrary worker failures survive the IPC
    boundary; the parent retries or reports with the job's full
    description.
    """
    done = []
    for index, job, attempt, delay_s in chunk:
        try:
            if delay_s > 0:
                time.sleep(delay_s)
            apply_worker_fault(plan, index, attempt)
            result, sim_cpu = _run_job(job)
        except BaseException as exc:
            return os.getpid(), done, (index, repr(exc),
                                       traceback.format_exc())
        done.append((index, result, sim_cpu))
    return os.getpid(), done, None


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve the worker count from an argument or ``REPRO_JOBS``."""
    if jobs is None:
        jobs = int(os.environ.get(JOBS_ENV, "1"))
    if jobs < 1:
        raise ValueError(f"worker count must be >= 1, got {jobs}")
    return jobs


def resolve_failure_policy(policy: str | None) -> str:
    """Validate a ``failure_policy`` name (``None`` -> ``fail_fast``)."""
    if policy is None:
        return "fail_fast"
    if policy not in FAILURE_POLICIES:
        raise ValueError(f"unknown failure policy {policy!r} "
                         f"(expected one of {FAILURE_POLICIES})")
    return policy


def _chunked(items: list, chunks: int) -> list[list]:
    """Split ``items`` into at most ``chunks`` contiguous, even pieces."""
    chunks = max(1, min(chunks, len(items)))
    size, extra = divmod(len(items), chunks)
    out = []
    start = 0
    for i in range(chunks):
        end = start + size + (1 if i < extra else 0)
        out.append(items[start:end])
        start = end
    return out


def _kill_pool_processes(pool: ProcessPoolExecutor) -> None:
    """Best-effort SIGTERM to a pool's workers (a hung worker never
    returns, so a graceful shutdown would wait forever)."""
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead process
            pass


class JobExecutor:
    """Runs simulation-job batches through a cache and a warm worker pool."""

    def __init__(self, cache: ResultCache | None = None,
                 jobs: int | None = None,
                 progress: ProgressSink | None = None,
                 failure_policy: str | None = None,
                 retry: RetryPolicy | None = None,
                 watchdog: WatchdogPolicy | None = None,
                 fault_plan: FaultPlan | None = None,
                 pool_respawn_budget: int = 3):
        self.cache = cache if cache is not None else ResultCache()
        self.jobs = resolve_jobs(jobs)
        #: Optional progress sink; every batch emits lifecycle events to
        #: it (see :mod:`repro.experiments.engine.progress`).  Assignable
        #: after construction — the CLI attaches sinks that way.
        self.progress = progress
        #: Default failure policy for :meth:`run` (overridable per call).
        self.failure_policy = resolve_failure_policy(failure_policy)
        self.retry = retry if retry is not None else RetryPolicy()
        self.watchdog = watchdog if watchdog is not None \
            else WatchdogPolicy()
        #: Explicit fault plan; ``None`` falls back to the process-wide
        #: plan (``REPRO_FAULT_PLAN`` / :func:`faults.install_plan`).
        self.fault_plan = fault_plan
        #: Pools the executor may respawn per batch after worker deaths
        #: or watchdog kills before giving up.
        self.pool_respawn_budget = pool_respawn_budget
        #: Simulations actually executed (cache misses) over the lifetime.
        self.simulations_executed = 0
        #: Jobs answered straight from the cache over the lifetime.
        self.cache_hits = 0
        #: Retry attempts performed over the lifetime.
        self.retries = 0
        #: Jobs skipped (``retry_then_skip``) over the lifetime.
        self.jobs_skipped = 0
        #: Jobs that exhausted every attempt over the lifetime.
        self.jobs_failed = 0
        #: Chunks the watchdog timed out over the lifetime.
        self.chunk_timeouts = 0
        #: Worker pools respawned mid-batch over the lifetime.
        self.pool_respawns = 0
        #: CPU seconds spent inside ``run_workload`` (summed over workers)
        #: for every simulation this executor ran.  ``wall - sim_cpu_s``
        #: is the engine's own overhead: trace generation, config builds,
        #: pickling, scheduling, and cache writes.
        self.sim_cpu_s = 0.0
        #: Worker PIDs that produced results in the most recent parallel
        #: batch (the parent PID for serial batches).  Lets tests — and
        #: the bench — verify the pool stays warm across batches.
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
            self._pool = ProcessPoolExecutor(max_workers=self.jobs,
                                             initializer=_init_worker)
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
    def run(self, jobs: Iterable[SimJob],
            failure_policy: str | None = None
            ) -> dict[SimJob, SimulationResult]:
        """Run a batch of jobs; returns one result per *distinct* job.

        Duplicate jobs (equal specs) are deduplicated before execution, and
        jobs whose content-addressed key is already cached are not run at
        all.  Results land in the cache in completion order (so partial
        sweeps are resumable) but are returned in submission order, so the
        mapping — and everything derived from it — is independent of
        worker scheduling.

        ``failure_policy`` overrides the executor default for this batch;
        under ``retry_then_skip`` jobs that exhaust their attempts are
        simply absent from the returned mapping (their keys are listed in
        :attr:`last_report`).
        """
        policy = resolve_failure_policy(
            failure_policy if failure_policy is not None
            else self.failure_policy)
        plan = self.fault_plan if self.fault_plan is not None \
            else faults_mod.active_plan()

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

        report = BatchReport(total=len(ordered), cache_hits=batch_hits,
                             policy=policy)
        self.last_report = report
        tracker = None
        if self.progress is not None:
            tracker = BatchProgress(self.progress, total=len(ordered),
                                    cache_hits=batch_hits,
                                    workers=self.jobs)
            tracker.batch_start()
        try:
            if pending:
                if self.jobs > 1 and len(pending) > 1:
                    self._run_parallel(pending, results, tracker,
                                       policy, report, plan)
                else:
                    self._run_serial(pending, results, tracker,
                                     policy, report, plan)
        finally:
            if tracker is not None:
                tracker.batch_end()
        self._finish_report(report, tracker)
        # Submission order, independent of completion order.
        return {job: results[job] for job, _ in ordered if job in results}

    def run_one(self, job: SimJob) -> SimulationResult:
        """Run a single job through the cache (always serial)."""
        return self.run([job])[job]

    def _finish_report(self, report: BatchReport,
                       tracker: BatchProgress | None) -> None:
        """Fold the finished batch into lifetime counters; raise if the
        policy says failures are fatal."""
        if not report.failures:
            return
        if report.policy == "retry_then_skip":
            for failure in report.failures:
                report.skipped_keys.append(failure.key)
                self.jobs_skipped += 1
                if tracker is not None:
                    tracker.job_skipped(failure.error, failure.description)
            return
        raise JobExecutionError.from_report(report)

    # ------------------------------------------------------------------
    # Shared attempt bookkeeping.
    # ------------------------------------------------------------------
    def _record_success(self, job, key, result, sim_cpu, results) -> None:
        self.simulations_executed += 1
        self.sim_cpu_s += sim_cpu
        results[job] = result
        alpha = self.watchdog.ewma_alpha
        self._job_ewma_s = sim_cpu if self._job_ewma_s is None \
            else alpha * sim_cpu + (1.0 - alpha) * self._job_ewma_s

    def _record_failure(self, report: BatchReport, job, key, attempts: int,
                        error: str, tb_text: str) -> None:
        self.jobs_failed += 1
        report.failures.append(JobFailure(
            description=_describe(job), key=key, attempts=attempts,
            error=error, traceback=tb_text))

    # ------------------------------------------------------------------
    # Serial execution.
    # ------------------------------------------------------------------
    def _run_serial(self, pending: Sequence[tuple[SimJob, str]],
                    results: dict,
                    tracker: BatchProgress | None,
                    policy: str, report: BatchReport,
                    plan: FaultPlan | None) -> None:
        self.last_worker_pids = frozenset((os.getpid(),))
        max_attempts = 1 if policy == "fail_fast" \
            else self.retry.max_attempts
        for index, (job, key) in enumerate(pending):
            attempt = 1
            while True:
                try:
                    # The serial path runs in this very process, so an
                    # injected "exit" fault raises instead of killing us.
                    apply_worker_fault(plan, index, attempt,
                                       allow_exit=False)
                    result, sim_cpu = _run_job(job)
                except Exception as exc:
                    if attempt < max_attempts:
                        delay = self.retry.delay_s(key, attempt)
                        self.retries += 1
                        report.retries += 1
                        if tracker is not None:
                            tracker.job_retried(repr(exc), _describe(job),
                                                attempt + 1)
                        if delay > 0:
                            time.sleep(delay)
                        attempt += 1
                        continue
                    if policy == "fail_fast":
                        if tracker is not None:
                            tracker.job_failed(repr(exc), _describe(job))
                        raise JobExecutionError(
                            f"job failed: {_describe(job)}\n"
                            f"cause: {exc!r}", job=job,
                            report=report) from exc
                    if tracker is not None:
                        tracker.job_failed(repr(exc), _describe(job))
                    self._record_failure(report, job, key, attempt,
                                         repr(exc),
                                         traceback.format_exc())
                    break
                self._record_success(job, key, result, sim_cpu, results)
                report.executed += 1
                self.cache.put(key, result)
                if tracker is not None:
                    tracker.job_completed()
                break

    # ------------------------------------------------------------------
    # Parallel execution.
    # ------------------------------------------------------------------
    def _run_parallel(self, pending: Sequence[tuple[SimJob, str]],
                      results: dict,
                      tracker: BatchProgress | None,
                      policy: str, report: BatchReport,
                      plan: FaultPlan | None) -> None:
        # Group same-trace jobs into the same chunk so each worker builds
        # (or memo-hits) as few distinct traces as possible, then split
        # into ~CHUNKS_PER_WORKER x workers chunks.  The grouping is a
        # deterministic reorder of *execution*; returned results are
        # reassembled by index, so output order never changes.
        indexed = list(enumerate(pending))
        indexed.sort(key=lambda item: (_sort_token(item[1][0]), item[0]))
        tasks = [(index, job) for index, (job, _) in indexed]
        chunks = _chunked(tasks, CHUNKS_PER_WORKER * self.jobs)

        max_attempts = 1 if policy == "fail_fast" \
            else self.retry.max_attempts
        attempts = {index: 1 for index, _ in tasks}
        delays = {index: 0.0 for index, _ in tasks}
        #: In-flight future -> the (index, job) items it is running.
        in_flight: dict = {}
        #: Watchdog allowance per in-flight future (seconds).
        allowance: dict = {}
        pids: set[int] = set()
        fail_fast_tripped = False
        last_progress = time.monotonic()

        spawned = self._pool is None
        pool = self._ensure_pool()
        if spawned and tracker is not None:
            tracker.pool_spawned()

        #: Items whose submission hit an already-broken pool; picked up
        #: (and resubmitted to the respawned pool) by handle_broken_pool.
        orphans: list = []

        def submit(items) -> None:
            payload = [(index, job, attempts[index], delays[index])
                       for index, job in items]
            try:
                future = pool.submit(_run_chunk, payload, plan)
            except BrokenProcessPool:
                orphans.extend(items)
                return
            in_flight[future] = list(items)
            allowance[future] = self.watchdog.allowance_s(
                len(items), self._job_ewma_s)
            if tracker is not None:
                tracker.chunk_dispatched(len(items))

        def drain(items, chunk_result) -> list[list]:
            """Fold one finished chunk into results/cache/report.

            Returns the chunks that now need resubmitting (a retried
            failure, plus any items the chunk never reached).  The caller
            submits them — never this function, because after a pool
            break the resubmission target is a *new* pool.
            """
            nonlocal fail_fast_tripped, last_progress
            pid, done, failure = chunk_result
            pids.add(pid)
            last_progress = time.monotonic()
            stored = []
            for index, result, sim_cpu in done:
                job, key = pending[index]
                self._record_success(job, key, result, sim_cpu, results)
                report.executed += 1
                stored.append((key, result))
            self.cache.put_many(stored)
            if tracker is not None and done:
                tracker.chunk_completed(len(done), pid)
            if failure is None:
                return []
            failed_index, exc_repr, tb_text = failure
            job, key = pending[failed_index]
            # Items after the failed one never ran; they carry no blame.
            position = next(i for i, (index, _) in enumerate(items)
                            if index == failed_index)
            unrun = items[position + 1:]
            if policy == "fail_fast":
                fail_fast_tripped = True
                if tracker is not None:
                    tracker.job_failed(exc_repr, _describe(job))
                self._record_failure(report, job, key,
                                     attempts[failed_index],
                                     exc_repr, tb_text)
                # Don't start work that can no longer matter; chunks
                # already running finish and are drained normally.
                for other in in_flight:
                    other.cancel()
                return []
            resubmit: list[list] = []
            if attempts[failed_index] < max_attempts:
                delays[failed_index] = self.retry.delay_s(
                    key, attempts[failed_index])
                attempts[failed_index] += 1
                self.retries += 1
                report.retries += 1
                if tracker is not None:
                    tracker.job_retried(exc_repr, _describe(job),
                                        attempts[failed_index])
                # The retried job gets its own chunk: its backoff sleep
                # must not delay the innocent unrun items behind it.
                resubmit.append([(failed_index, job)])
            else:
                if tracker is not None:
                    tracker.job_failed(exc_repr, _describe(job))
                self._record_failure(report, job, key,
                                     attempts[failed_index],
                                     exc_repr, tb_text)
            if unrun:
                resubmit.append(unrun)
            return resubmit

        def fail_lost(lost, cause: str, tb_text: str) -> None:
            for index, job in lost:
                self._record_failure(report, job, pending[index][1],
                                     attempts[index], cause, tb_text)
                if tracker is not None:
                    tracker.job_failed(cause, _describe(job))

        def handle_broken_pool(exc: BaseException) -> None:
            """Drain what survived, then respawn (or re-raise) per policy.

            When a worker dies the pool marks *every* outstanding future
            broken, so in-flight chunks split cleanly into those that
            returned a result before the death and those whose work is
            lost.  Lost jobs are resubmitted one per chunk, so a repeat
            offender only takes itself down next time.
            """
            lost: list = list(orphans)
            orphans.clear()
            resubmit: list[list] = []
            for future, items in list(in_flight.items()):
                del in_flight[future]
                allowance.pop(future, None)
                if future.cancelled():
                    continue
                try:
                    chunk_result = future.result(timeout=0)
                except Exception:
                    lost.extend(items)
                    continue
                resubmit.extend(drain(items, chunk_result))
            self._discard_pool()
            if tracker is not None:
                tracker.pool_broken()
            if policy == "fail_fast":
                # Everything drained so far is already in the cache —
                # that is the resumability guarantee — but the pool is
                # unusable; the next run() starts a fresh one.
                self.last_worker_pids = frozenset(pids)
                raise exc
            if report.pool_respawns >= self.pool_respawn_budget:
                cause = "worker pool respawn budget exhausted"
                fail_lost(lost + [item for chunk in resubmit
                                  for item in chunk],
                          cause, cause + "; no worker-side traceback "
                          "is available\n")
                return
            self.pool_respawns += 1
            report.pool_respawns += 1
            nonlocal pool
            pool = self._ensure_pool()
            if tracker is not None:
                tracker.pool_respawned()
            for chunk_items in resubmit:
                submit(chunk_items)
            cause = "worker process died (pool respawned)"
            for index, job in lost:
                key = pending[index][1]
                if attempts[index] < max_attempts:
                    delays[index] = self.retry.delay_s(key,
                                                       attempts[index])
                    attempts[index] += 1
                    self.retries += 1
                    report.retries += 1
                    if tracker is not None:
                        tracker.job_retried(cause, _describe(job),
                                            attempts[index])
                    submit([(index, job)])
                else:
                    fail_lost([(index, job)], cause,
                              cause + "; no worker-side traceback is "
                              "available for a dead worker\n")

        def handle_watchdog() -> None:
            """Kill the stalled pool; resubmit every in-flight chunk —
            timed-out ones with a bumped attempt."""
            now = time.monotonic()
            overdue, healthy = [], []
            resubmit: list[list] = []
            for future, items in list(in_flight.items()):
                fut_allowance = allowance.pop(
                    future, self.watchdog.ceiling_s)
                del in_flight[future]
                if future.done() and not future.cancelled():
                    # Completed in the window between wait() and here.
                    try:
                        resubmit.extend(
                            drain(items, future.result(timeout=0)))
                        continue
                    except Exception:
                        pass  # fall through: treat as lost work
                stalled = now - last_progress >= fut_allowance
                (overdue if stalled else healthy).append(items)
            self._discard_pool(kill=True)
            for items in overdue:
                self.chunk_timeouts += 1
                report.chunk_timeouts += 1
                if tracker is not None:
                    tracker.chunk_timeout(len(items))
            self.pool_respawns += 1
            report.pool_respawns += 1
            nonlocal pool
            pool = self._ensure_pool()
            if tracker is not None:
                tracker.pool_respawned()
            for items in healthy:
                submit(items)
            for chunk_items in resubmit:
                submit(chunk_items)
            cause = "chunk exceeded the watchdog deadline"
            for items in overdue:
                for index, job in items:
                    if attempts[index] < max_attempts:
                        attempts[index] += 1
                        submit([(index, job)])
                    else:
                        fail_lost([(index, job)], cause,
                                  cause + "; the worker was killed\n")

        for chunk in chunks:
            submit(chunk)
        try:
            while in_flight or orphans:
                if not in_flight:
                    # Submissions bounced off a broken pool and nothing
                    # is left to drain: respawn and resubmit them.
                    handle_broken_pool(
                        BrokenProcessPool("pool broke during resubmission"))
                    continue
                timeout = None
                if self.watchdog.enabled:
                    now = time.monotonic()
                    next_deadline = min(
                        last_progress
                        + allowance.get(future, self.watchdog.ceiling_s)
                        for future in in_flight)
                    timeout = max(0.05, next_deadline - now)
                done, _ = wait(set(in_flight), timeout=timeout,
                               return_when=FIRST_COMPLETED)
                broken: BaseException | None = None
                for future in done:
                    items = in_flight.pop(future)
                    allowance.pop(future, None)
                    if future.cancelled():
                        continue
                    try:
                        for chunk_items in drain(items, future.result()):
                            submit(chunk_items)
                    except BrokenProcessPool as exc:
                        # A worker died (OOM-kill, crash, os._exit); the
                        # sibling futures are doomed too — handle them
                        # all at once.
                        in_flight[future] = items  # hand back for triage
                        broken = exc
                        break
                if broken is not None:
                    handle_broken_pool(broken)
                    continue
                if not done and self.watchdog.enabled:
                    now = time.monotonic()
                    if any(now - last_progress
                           >= allowance.get(future,
                                            self.watchdog.ceiling_s)
                           for future in in_flight):
                        if report.pool_respawns >= self.pool_respawn_budget:
                            for future, items in list(in_flight.items()):
                                del in_flight[future]
                                allowance.pop(future, None)
                                future.cancel()
                                for index, job in items:
                                    self._record_failure(
                                        report, job, pending[index][1],
                                        attempts[index],
                                        "worker pool respawn budget "
                                        "exhausted (watchdog)",
                                        "worker pool respawn budget "
                                        "exhausted after repeated "
                                        "watchdog kills\n")
                            self._discard_pool(kill=True)
                        else:
                            handle_watchdog()
        finally:
            self.last_worker_pids = frozenset(pids)

        if fail_fast_tripped and report.failures:
            # Raised here (not in _finish_report) to preserve the classic
            # single-failure message shape plus the full failure list.
            raise JobExecutionError.from_report(
                report, job=_job_of_first_failure(report, pending))


def _job_of_first_failure(report: BatchReport, pending) -> object | None:
    """The job object behind the report's first failure (for
    ``JobExecutionError.job``)."""
    first_key = report.failures[0].key
    for job, key in pending:
        if key == first_key:
            return job
    return None


def _describe(job) -> str:
    """Best-effort one-line description of a job for error messages."""
    try:
        return repr(job.describe())
    except Exception:  # pragma: no cover - describe() itself failing
        return repr(job)


def _sort_token(job) -> str:
    """Deterministic grouping token: jobs sharing traces sort together."""
    try:
        return repr(job.trace_signature())
    except Exception:
        return repr(job)
