"""Structured progress and failure telemetry for the experiment engine.

The PR 7 sweep engine runs thousands of jobs through a warm worker pool,
but until now the only signs of life were the final results (or a raised
:class:`~repro.experiments.engine.executor.JobExecutionError`).  This
module adds a small event protocol the :class:`JobExecutor` emits while a
batch runs, with pluggable sinks:

* :class:`StderrLineSink` — a live single-line status on stderr
  (``--progress`` on the CLI);
* :class:`JsonlFileSink` — one JSON object per event, appended to a file
  (``--progress-file``), for machine consumption and post-mortems;
* :class:`CallbackSink` — hands each event to a callable, the
  subscription point for a future sweep coordinator;
* :class:`TeeSink` — fans one event stream out to several sinks.

Event kinds (the ``kind`` field of every :class:`ProgressEvent`):

``batch-start``
    A batch entered the executor: ``total`` distinct jobs, of which
    ``cache_hits`` were answered from the result cache and ``pending``
    will actually simulate.
``chunk-dispatched``
    A job was submitted to a free worker (parallel path).
``chunk-completed`` / ``job-completed``
    A job finished and its result was written to the cache: on the
    parallel path (carries ``worker_pid``) or the serial path.  The
    ``chunk-*`` names are kept for schema-1 readers; ``chunk_size`` is
    always 1.
``job-failed``
    A job raised and exhausted its attempts; ``error`` carries the
    exception repr and ``job`` the failing job's description.  Emitted
    *before* the executor raises :class:`JobExecutionError`, so sinks
    always see the failure.
``job-retried``
    A job failed, was lost with a dead worker, or timed out, and is
    being retried under ``keep_going``; ``attempt`` is the upcoming
    attempt number (2 for the first retry).
``job-skipped``
    A job exhausted its attempts under ``keep_going`` and is being
    dropped from the batch's results.
``chunk-timeout``
    The hung-worker watchdog timed a running job out; the job is then
    retried or fails.
``pool-spawned`` / ``pool-broken`` / ``pool-respawned``
    Worker-pool lifecycle: a fresh pool came up (``workers`` count), the
    pool died underneath a batch (a worker was killed), or a replacement
    pool was spun up mid-batch to carry on after a death/timeout.
``batch-end``
    The batch finished; ``done`` equals ``pending`` unless it failed.

Throughput fields (``jobs_per_sec``, ``eta_s``) are derived from the
batch-local monotonic clock and count only actually-simulated jobs, so a
fully cached batch reports no rate rather than an absurd one.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

#: Bump when event fields or kinds change incompatibly.
PROGRESS_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ProgressEvent:
    """One engine progress event (see the module docstring for kinds)."""

    kind: str
    #: Distinct jobs in the batch (after dedup).
    total: int
    #: Jobs simulated so far in this batch.
    done: int
    #: Jobs answered from the result cache in this batch.
    cache_hits: int
    #: Jobs that entered the execution path (total - cache_hits).
    pending: int
    #: Seconds since the batch started (monotonic).
    elapsed_s: float
    #: Simulated-jobs throughput so far (None until work completes).
    jobs_per_sec: float | None = None
    #: Estimated seconds to batch completion (None when unknowable).
    eta_s: float | None = None
    #: Worker-process count of the executor.
    workers: int = 1
    #: Dispatch ordinal of a ``chunk-dispatched`` event in its batch.
    chunk: int | None = None
    #: Jobs a dispatch, completion or timeout event covers: always 1.
    chunk_size: int | None = None
    #: PID of the worker that completed a job (parallel path).
    worker_pid: int | None = None
    #: Exception repr for ``job-failed``/``job-retried``/``job-skipped``.
    error: str | None = None
    #: Description of the job a failure event refers to.
    job: str | None = None
    #: Upcoming attempt number for ``job-retried`` events.
    attempt: int | None = None

    def to_dict(self) -> dict:
        """The event as a JSON-ready dict, ``None`` fields dropped."""
        return {key: value for key, value in asdict(self).items()
                if value is not None}


# ----------------------------------------------------------------------
# Sinks.
# ----------------------------------------------------------------------
class ProgressSink:
    """Receives :class:`ProgressEvent` objects; base class does nothing."""

    def emit(self, event: ProgressEvent) -> None:
        """Handle one event.  Must not raise into the engine."""

    def close(self) -> None:
        """Release any resources; called by the CLI after a run."""


class StderrLineSink(ProgressSink):
    """Live one-line progress display on stderr.

    Rewrites a single ``\\r``-terminated line per event and finishes it
    with a newline on ``batch-end``/``job-failed``, so interleaved
    regular output stays readable.
    """

    def __init__(self, stream=None):
        self._stream = stream if stream is not None else sys.stderr
        self._dirty = False

    def emit(self, event: ProgressEvent) -> None:
        if event.kind in ("pool-spawned", "chunk-dispatched"):
            return
        parts = [f"[engine] {event.done}/{event.pending} jobs"]
        if event.cache_hits:
            parts.append(f"{event.cache_hits} cached")
        if event.jobs_per_sec is not None:
            parts.append(f"{event.jobs_per_sec:.1f} jobs/s")
        if event.eta_s is not None:
            parts.append(f"eta {event.eta_s:.0f}s")
        if event.kind == "job-failed":
            parts.append(f"FAILED: {event.error}")
        elif event.kind == "job-retried":
            parts.append(f"retry #{event.attempt}: {event.error}")
        elif event.kind == "job-skipped":
            parts.append(f"SKIPPED: {event.error}")
        elif event.kind == "chunk-timeout":
            parts.append("watchdog: a job timed out")
        elif event.kind == "pool-broken":
            parts.append("worker pool broken; respawning")
        elif event.kind == "pool-respawned":
            parts.append("worker pool respawned")
        line = " | ".join(parts)
        end = "\n" if event.kind in ("batch-end", "job-failed",
                                     "job-skipped", "chunk-timeout",
                                     "pool-broken") else ""
        try:
            self._stream.write(f"\r{line:<78}{end}")
            self._stream.flush()
        except (OSError, ValueError):  # pragma: no cover - closed stream
            return
        self._dirty = not end

    def close(self) -> None:
        if self._dirty:
            try:
                self._stream.write("\n")
                self._stream.flush()
            except (OSError, ValueError):  # pragma: no cover
                pass
            self._dirty = False


class JsonlFileSink(ProgressSink):
    """Append one JSON object per event to a file (JSON Lines)."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._handle = self.path.open("w", encoding="utf-8")

    def emit(self, event: ProgressEvent) -> None:
        if self._handle.closed:  # pragma: no cover - post-close emit
            return
        record = {"schema": PROGRESS_SCHEMA_VERSION, **event.to_dict()}
        self._handle.write(json.dumps(record) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class CallbackSink(ProgressSink):
    """Forward every event to a callable (the coordinator hook)."""

    def __init__(self, callback: Callable[[ProgressEvent], None]):
        self._callback = callback

    def emit(self, event: ProgressEvent) -> None:
        self._callback(event)


class TeeSink(ProgressSink):
    """Fan events out to several sinks; closes them all."""

    def __init__(self, *sinks: ProgressSink):
        self.sinks = list(sinks)

    def emit(self, event: ProgressEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


# ----------------------------------------------------------------------
# Batch tracker (used by the executor).
# ----------------------------------------------------------------------
class BatchProgress:
    """Per-batch bookkeeping that turns executor milestones into events.

    Owned by :meth:`JobExecutor.run` for the duration of one batch; all
    rate/ETA arithmetic lives here so the executor only reports *what*
    happened, never how to present it.
    """

    def __init__(self, sink: ProgressSink, total: int, cache_hits: int,
                 workers: int):
        self._sink = sink
        self.total = total
        self.cache_hits = cache_hits
        self.pending = total - cache_hits
        self.done = 0
        self.workers = workers
        self._start = time.perf_counter()
        self._chunks = 0

    def _emit(self, kind: str, **extra) -> None:
        elapsed = time.perf_counter() - self._start
        rate = self.done / elapsed if self.done and elapsed > 0 else None
        eta = None
        if rate:
            remaining = self.pending - self.done
            if remaining >= 0:
                eta = remaining / rate
        event = ProgressEvent(kind=kind, total=self.total, done=self.done,
                              cache_hits=self.cache_hits,
                              pending=self.pending, elapsed_s=elapsed,
                              jobs_per_sec=rate, eta_s=eta,
                              workers=self.workers, **extra)
        self._sink.emit(event)

    def batch_start(self) -> None:
        self._emit("batch-start")

    def chunk_dispatched(self) -> None:
        self._chunks += 1
        self._emit("chunk-dispatched", chunk=self._chunks, chunk_size=1)

    def chunk_completed(self, worker_pid: int) -> None:
        self.done += 1
        self._emit("chunk-completed", chunk_size=1, worker_pid=worker_pid)

    def job_completed(self) -> None:
        self.done += 1
        self._emit("job-completed", chunk_size=1)

    def job_failed(self, error: str, job_description: str) -> None:
        self._emit("job-failed", error=error, job=job_description)

    def job_retried(self, error: str, job_description: str,
                    attempt: int) -> None:
        self._emit("job-retried", error=error, job=job_description,
                   attempt=attempt)

    def job_skipped(self, error: str, job_description: str) -> None:
        self._emit("job-skipped", error=error, job=job_description)

    def chunk_timeout(self) -> None:
        self._emit("chunk-timeout", chunk_size=1)

    def pool_spawned(self) -> None:
        self._emit("pool-spawned")

    def pool_broken(self) -> None:
        self._emit("pool-broken")

    def pool_respawned(self) -> None:
        self._emit("pool-respawned")

    def batch_end(self) -> None:
        self._emit("batch-end")
