"""Layer-boundary tracing for the benchmark's traced pass.

:class:`LayerTracer` wraps public methods of the simulator's classes from
outside (nothing inside ``src/`` changes).  Every wrapped call is timed with
``time.perf_counter``; a layer's *self* time is its call's duration minus
the time spent in wrapped calls it made (a stack of open frames tracks the
children).  Calls are aggregated per (job, boundary) as call count, self
seconds and an optional unit count (records generated, useful wakes);
job-level boundaries additionally keep one span per call.  Everything stays
in memory until :meth:`LayerTracer.report` is written out at the end.

The wrappers must be installed before any ``System`` is built: cores bind
``CacheHierarchy.access`` once at construction.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

#: Every traced boundary: (module, class, method, job-level).  Job-level
#: boundaries run about once per job and keep one span per call; the rest
#: run per simulated event and are only aggregated.
BOUNDARIES = (
    ("repro.cpu.core", "TraceCore", "run_requests", False),
    ("repro.cpu.core", "TraceCore", "notify_completion", False),
    ("repro.cpu.hierarchy", "CacheHierarchy", "access", False),
    ("repro.controller.channel_controller", "ChannelController", "enqueue",
     False),
    ("repro.controller.channel_controller", "ChannelController", "wake",
     False),
    ("repro.controller.channel_controller", "ChannelController",
     "drain_all", False),
    ("repro.controller.scheduler", "FRFCFSScheduler", "pick", False),
    ("repro.core.figcache", "FIGCache", "service", False),
    ("repro.baselines.lisa_villa", "LISAVillaMechanism", "service", False),
    ("repro.dram.channel", "Channel", "access", False),
    ("repro.dram.channel", "Channel", "relocate", False),
    ("repro.dram.channel", "Channel", "bulk_relocate", False),
    ("repro.sim.system", "System", "__init__", True),
    ("repro.sim.system", "System", "run", True),
    ("repro.workloads.catalog", "WorkloadSpec", "make_trace", True),
    ("repro.workloads.multiprogram", "MultiprogrammedWorkload",
     "make_traces", True),
    ("repro.experiments.engine.spec", "SimJob", "key", True),
    ("repro.experiments.engine.cache", "ResultCache", "get", True),
    ("repro.experiments.engine.cache", "ResultCache", "put", True),
    ("repro.experiments.engine.cache", "ResultCache", "put_many", True),
    ("repro.experiments.engine.executor", "JobExecutor", "run", True),
)


def _useful_wake(obj, result) -> int:
    """A wake is useful when it serviced at least one request."""
    return 1 if result else 0


def _records(obj, result) -> int:
    """Trace records one generator call produced."""
    return len(result)


class LayerTracer:
    """Aggregated self time and counts per (job, boundary), kept in memory."""

    def __init__(self):
        #: Wrappers only record while a phase is open.
        self.active = False
        #: Open phase, and the label of the job whose calls are being
        #: aggregated (the phase itself outside ``System.run``).
        self.phase = "-"
        self.job = "-"
        #: (job, boundary) -> [calls, self seconds, units].
        self.totals: dict[tuple[str, str], list] = {}
        #: One record per job-level call.
        self.spans: list[dict] = []
        #: Simulated-model counters harvested after each ``System.run``.
        self.counters: dict[str, int] = defaultdict(int)
        #: phase -> {"wall_s", "unattributed_s"}.
        self.phases: dict[str, dict] = {}
        self._stack: list[list[float]] = []
        self._jobs_run = 0
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------------
    # Installation.
    # ------------------------------------------------------------------
    def install(self) -> None:
        """Wrap every boundary in :data:`BOUNDARIES` on its class."""
        hooks = {"ChannelController.wake": _useful_wake,
                 "WorkloadSpec.make_trace": _records,
                 "System.run": self._harvest_system}
        for module, cls_name, method, job_level in BOUNDARIES:
            cls = getattr(importlib.import_module(module), cls_name)
            boundary = f"{cls_name}.{method}"
            setattr(cls, method, self._wrap(getattr(cls, method), boundary,
                                            job_level, hooks.get(boundary)))

    def _wrap(self, fn, boundary: str, job_level: bool, hook):
        tracer = self
        clock = time.perf_counter
        is_run = boundary == "System.run"

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            outer_job = tracer.job
            if is_run:
                tracer._jobs_run += 1
                system = args[0]
                name = args[1] if len(args) > 1 \
                    else kwargs.get("workload_name", "workload")
                tracer.job = (f"{tracer.phase}:{tracer._jobs_run}:"
                              f"{system.config.name}/{name}")
            job = tracer.job
            stack = tracer._stack
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stack[-1][0] += elapsed
                key = (job, boundary)
                record = tracer.totals.get(key)
                if record is None:
                    record = tracer.totals[key] = [0, 0.0, 0]
                record[0] += 1
                record[1] += elapsed - frame[0]
                if job_level:
                    tracer.spans.append({
                        "boundary": boundary, "job": job,
                        "start_s": start - tracer._epoch,
                        "end_s": end - tracer._epoch,
                        "self_s": elapsed - frame[0]})
                tracer.job = outer_job
            if hook is not None:
                record[2] += hook(args[0], result)
            return result

        return traced

    def _harvest_system(self, system, result) -> int:
        """Fold one finished ``System``'s model counters into the totals."""
        counters = self.counters
        counters["events"] += system.processed_events
        for core in system.cores:
            counters["llc_hits"] += core.hierarchy.llc.hits
            counters["llc_misses"] += core.hierarchy.llc.misses
        for mechanism in system.mechanisms:
            kind = type(mechanism).__name__
            counters[f"{kind}.lookups"] += mechanism.stats.cache_lookups
            counters[f"{kind}.hits"] += mechanism.stats.cache_hits
        return 0

    # ------------------------------------------------------------------
    # Phases (the roots of the span tree).
    # ------------------------------------------------------------------
    def begin(self, phase: str) -> None:
        """Open a root frame; wrapped calls record until :meth:`end`."""
        self.phase = self.job = phase
        self._stack = [[0.0]]
        self._phase_start = time.perf_counter()
        self.active = True

    def end(self, phase: str) -> None:
        """Close the root frame and record the phase's accounting."""
        wall = time.perf_counter() - self._phase_start
        self.active = False
        attributed = self._stack[0][0]
        self.phases[phase] = {"wall_s": wall,
                              "unattributed_s": wall - attributed}
        self.phase = self.job = "-"

    # ------------------------------------------------------------------
    # Roll-ups.
    # ------------------------------------------------------------------
    def by_boundary(self) -> dict[str, list]:
        """[calls, self seconds, units] per boundary, summed over jobs."""
        out: dict[str, list] = {}
        for (_job, boundary), (calls, self_s, units) in self.totals.items():
            record = out.setdefault(boundary, [0, 0.0, 0])
            record[0] += calls
            record[1] += self_s
            record[2] += units
        return out

    def report(self) -> dict:
        """Everything recorded, in a JSON-serialisable form."""
        return {
            "phases": self.phases,
            "totals": [{"job": job, "boundary": boundary, "calls": calls,
                        "self_s": self_s, "units": units}
                       for (job, boundary), (calls, self_s, units)
                       in self.totals.items()],
            "spans": self.spans,
            "counters": dict(self.counters),
        }
