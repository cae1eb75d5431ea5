"""The benchmark's three workloads.

Each workload takes the workload seed, generates its inputs from it through
the simulator's public API, and runs timed passes over them.  ``setup()``
does everything a user pays before the first simulated cycle (imports
happen before it); ``run_pass()`` times one pass and returns what it
measured with the results; ``failures()`` checks those results afterwards,
outside any timed or traced region.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.experiments.engine import (ExperimentScale, JobExecutor,
                                      ResultCache, SimJob)
from repro.sim.config import make_system_config
from repro.sim.metrics import SimulationResult
from repro.sim.system import System
from repro.workloads.catalog import BENCHMARKS, benchmark_names
from repro.workloads.multiprogram import make_workload_suite

#: The paper's six configurations (Figure 7).
SINGLE_CONFIGS = ("Base", "LISA-VILLA", "FIGCache-Slow", "FIGCache-Fast",
                  "FIGCache-Ideal", "LL-DRAM")
#: The configurations compared on the multiprogrammed mixes (Figure 8).
MIX_CONFIGS = ("Base", "FIGCache-Fast", "LISA-VILLA")
#: The scale ``run-figure`` and ``sweep`` use by default: the in-process
#: workloads run traces of exactly this length, so they time the jobs
#: users wait on (dirty LLC evictions, hence DRAM writes and write drains,
#: start only after about 2,500 records per core).
PAPER = ExperimentScale()
#: Benchmarks sampled per intensity class on ``single-sim``.  Fewer than
#: the default scale's two, so that each job is timed seven to ten times
#: per 40-s run: co-tenants of a shared host slow a job by 1.2x to 3x for
#: seconds to minutes at a time, and only a job's fastest of several
#: samples, scaled by the host-speed gauge beside it, repeats from run to
#: run.
SINGLE_PER_CLASS = 1
#: Intensity category of the mix the multi-core workloads run, for the same
#: reason one mix instead of one per category: the fully intensive one,
#: which fills the bank queues and the write drains.
MIX_FRACTION = 1.0


def seeded_mix(seed: int):
    """The seeded 8-core mix of category :data:`MIX_FRACTION`."""
    return next(mix for mix in make_workload_suite(
                    num_cores=PAPER.num_cores, mixes_per_category=1,
                    seed=seed)
                if mix.intensive_fraction == MIX_FRACTION)


def check_result(result: SimulationResult, traces) -> list[str]:
    """The invariants every finished job must satisfy; returns violations."""
    problems = []
    got = [core.instructions for core in result.cores]
    expected = [sum(record.bubbles + 1 for record in trace)
                for trace in traces]
    if got != expected:
        problems.append(f"instructions {got} != traces {expected}")
    counters = result.dram_counters
    llc_misses = sum(core.llc_misses for core in result.cores)
    if not llc_misses == result.memory_reads == counters.reads:
        problems.append(f"LLC misses {llc_misses}, memory reads "
                        f"{result.memory_reads} and READ commands "
                        f"{counters.reads} differ")
    if result.memory_writes != counters.writes:
        problems.append(f"memory writes {result.memory_writes} != WRITE "
                        f"commands {counters.writes}")
    outcomes = counters.row_hits + counters.row_misses + counters.row_conflicts
    if outcomes != result.memory_reads + result.memory_writes:
        problems.append(f"row outcomes {outcomes} != accesses "
                        f"{result.memory_reads + result.memory_writes}")
    return problems


@dataclass
class PassResult:
    """What one timed pass measured, and the results it produced."""

    wall_s: float
    cpu_s: float
    #: Trace records simulated in the pass (summed over cores and jobs).
    records: int
    #: Jobs the pass attempted.
    attempted: int
    #: ("<configuration>/<workload>" label, result) per finished job.
    outcomes: list
    #: Jobs that raised, one line each.
    raised: list = field(default_factory=list)
    #: (wall, CPU, reference) seconds of each job, in a fixed order
    #: (in-process workloads only; engine jobs overlap in worker
    #: processes).  The reference is the mean of the host-speed gauges
    #: taken just before and just after the job.
    job_s: list = field(default_factory=list)
    #: Mean host-speed gauge of the pass (0 when it was not gauged).
    reference_s: float = 0.0
    #: Engine counters (sweep-engine only).
    engine: dict = field(default_factory=dict)

    def digest(self) -> str:
        """sha256 over the sorted ``to_dict()`` of every job's result."""
        lines = sorted(json.dumps(result.to_dict(), sort_keys=True)
                       for _, result in self.outcomes)
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class _InProcessSims:
    """Serial ``System(config, traces).run()`` over a fixed job list.

    ``System`` construction belongs to set-up: the first pass's systems are
    built in :meth:`setup`, later passes rebuild theirs untimed.
    """

    def __init__(self, seed: int):
        self.seed = seed
        #: label -> (workload name, config, traces), in run order.
        self.jobs: dict[str, tuple[str, object, list]] = {}
        self._systems: list[System] = []

    def _make_jobs(self) -> dict:
        raise NotImplementedError

    def _build(self) -> list[System]:
        return [System(config, traces)
                for _, config, traces in self.jobs.values()]

    def setup(self) -> None:
        self.jobs = self._make_jobs()
        self._systems = self._build()

    def prepare_next(self) -> None:
        self._systems = self._build()

    def run_pass(self, gauge=None) -> PassResult:
        """Run every job once; ``gauge()``, when given, is called before
        the first job and after each one, outside the jobs' timings."""
        systems, self._systems = self._systems, []
        outcomes = []
        raised = []
        job_s = []
        gauges = [gauge()] if gauge else [0.0]
        for system, (label, (workload, _, _)) in zip(systems,
                                                     self.jobs.items()):
            job_cpu = time.process_time()
            job_start = time.perf_counter()
            try:
                outcomes.append((label, system.run(workload)))
            except Exception as exc:  # a failed job is counted, not fatal
                raised.append(f"{label} raised {exc!r}")
            wall = time.perf_counter() - job_start
            cpu = time.process_time() - job_cpu
            gauges.append(gauge() if gauge else 0.0)
            job_s.append((wall, cpu, (gauges[-2] + gauges[-1]) / 2))
        return PassResult(
            wall_s=sum(wall for wall, _, _ in job_s),
            cpu_s=sum(cpu for _, cpu, _ in job_s),
            reference_s=sum(gauges) / len(gauges),
            records=sum(len(trace) for _, _, traces in self.jobs.values()
                        for trace in traces),
            attempted=len(self.jobs), outcomes=outcomes, raised=raised,
            job_s=job_s)

    def failures(self, result: PassResult) -> list[str]:
        """One line per failed job of ``result``, plus one if no job wrote
        to memory (the write checks would then compare 0 with 0)."""
        failed = list(result.raised)
        for label, outcome in result.outcomes:
            problems = check_result(outcome, self.jobs[label][2])
            if problems:
                failed.append(f"{label}: {'; '.join(problems)}")
        if not any(outcome.memory_writes for _, outcome in result.outcomes):
            failed.append("no job issued a memory write: the write path "
                          "went unmeasured")
        return failed

    def close(self) -> None:
        self._systems = []


class SingleSim(_InProcessSims):
    """``single-sim``: the Figure 7 path.

    Every configuration on a seeded sample of intensive and non-intensive
    catalog benchmarks, one core and one channel, at the default scale's
    records per trace.  The cpu, mechanism and
    dram layers do nearly all the work; the controller mostly takes its
    sole-candidate fast path; the engine and result cache do nothing.
    """

    def _make_jobs(self) -> dict:
        rng = random.Random(self.seed)
        names = sorted(rng.sample(benchmark_names(True), SINGLE_PER_CLASS)
                       + rng.sample(benchmark_names(False),
                                    SINGLE_PER_CLASS))
        configs = [(name, make_system_config(name))
                   for name in SINGLE_CONFIGS]
        jobs = {}
        for name in names:
            trace = BENCHMARKS[name].make_trace(PAPER.single_core_records,
                                                seed_offset=self.seed)
            for config_name, config in configs:
                jobs[f"{config_name}/{name}"] = (name, config, [trace])
        return jobs


class MixSim(_InProcessSims):
    """``mix-sim``: the Figure 8 path.

    The seeded 8-core mix (:func:`seeded_mix`) on 4 channels at the default
    records per core, on Base, FIGCache-Fast and LISA-VILLA.  The same
    layers as ``single-sim`` are used differently: deep per-bank queues,
    FR-FCFS picks among many candidates, write drains, multi-channel
    routing and eight cores interleaved in one event queue.  A change that
    helps one-core runs at the cost of contention shows here.
    """

    def _make_jobs(self) -> dict:
        configs = [(name, make_system_config(
                        name, channels=PAPER.multicore_channels))
                   for name in MIX_CONFIGS]
        mix = seeded_mix(self.seed)
        traces = mix.make_traces(PAPER.multicore_records)
        return {f"{config_name}/{mix.name}": (mix.name, config, traces)
                for config_name, config in configs}


class SweepEngine:
    """``sweep-engine``: the ``sweep`` / Figures 12-15 path.

    A FIGCache-Fast design-space sweep (segment sizes x cache capacities)
    plus the Base point, on the seeded mix of :func:`seeded_mix`, run
    through ``JobExecutor`` with a fresh on-disk
    ``ResultCache`` as two overlapping batches: the second batch is part
    cache hits.  Only here do the engine layers work (pool spin-up, chunked
    dispatch, pickling, ``SimJob.key``, cache writes and hits), and trace
    generation and ``System`` construction run inside the workers.  The
    traces are the repository's named short scale,
    ``ExperimentScale.bench()`` (1,500 records per core), so the engine's
    own costs are a visible share of each job; they are too short for
    DRAM writes, which the in-process workloads measure.
    """

    SEGMENT_BLOCKS = (8, 16, 32)
    CACHE_ROWS = (32, 64)
    SCALE = ExperimentScale.bench()

    def __init__(self, seed: int, workers: int, scratch: Path):
        self.seed = seed
        self.workers = workers
        self.scratch = scratch
        self.batches: tuple[list[SimJob], list[SimJob]] = ([], [])
        #: "<configuration>/<mix>" label -> job.
        self.jobs: dict[str, SimJob] = {}
        self._passes = 0
        self._cache_dir = scratch
        #: The last pass's batch results, kept for :meth:`failures`.
        self._batch_results: tuple[dict, dict] = ({}, {})
        self._traces: dict = {}

    def setup(self) -> None:
        mix = seeded_mix(self.seed)

        def make(label: str, config: str, **knobs) -> SimJob:
            job = SimJob.multicore(config, mix, self.SCALE, **knobs)
            self.jobs[f"{label}/{mix.name}"] = job
            return job

        def sweep(segments) -> list[SimJob]:
            # The paper's default point keeps the plain name, so it pairs
            # with Base for the speed-up.
            return [make("FIGCache-Fast" if (segment, rows) == (16, 64)
                         else f"FIGCache-Fast-s{segment}-r{rows}",
                         "FIGCache-Fast", segment_blocks=segment,
                         cache_rows_per_bank=rows)
                    for segment in segments for rows in self.CACHE_ROWS]

        # The middle segment size is in both batches: those jobs are the
        # second batch's cache hits.
        self.batches = ([make("Base", "Base")]
                        + sweep(self.SEGMENT_BLOCKS[:2]),
                        sweep(self.SEGMENT_BLOCKS[1:]))
        self.prepare_next()

    def prepare_next(self) -> None:
        self._passes += 1
        self._cache_dir = self.scratch / f"cache-{self._passes}"
        shutil.rmtree(self._cache_dir, ignore_errors=True)
        self._cache_dir.mkdir(parents=True)

    def run_pass(self, gauge=None) -> PassResult:
        """Run both batches once; ``gauge()``, when given, is called just
        before and just after the timed pass."""
        first, second = self.batches
        raised = []
        cold: dict = {}
        warm: dict = {}
        run_s = 0.0
        before = gauge() if gauge else 0.0
        cpu_start = time.process_time()
        children_start = _children_cpu_s()
        start = time.perf_counter()
        executor = JobExecutor(cache=ResultCache(self._cache_dir),
                               jobs=self.workers)
        try:
            cold = executor.run(first)
            warm = executor.run(second)
            run_s = time.perf_counter() - start
        except Exception as exc:  # a failed batch is counted, not fatal
            raised.append(f"batch raised {exc!r}")
        finally:
            executor.close()
        wall = time.perf_counter() - start
        cpu = (time.process_time() - cpu_start
               + _children_cpu_s() - children_start)
        after = gauge() if gauge else 0.0
        self._batch_results = (cold, warm)
        labels = {job: label for label, job in self.jobs.items()}
        simulated = {**warm, **cold}
        return PassResult(
            wall_s=wall, cpu_s=cpu, reference_s=(before + after) / 2,
            records=sum(job.records_per_core * job.scale.num_cores
                        for job in simulated),
            attempted=len(first) + len(second),
            outcomes=[(labels[job], result)
                      for job, result in simulated.items()],
            raised=raised,
            engine={"run_s": run_s, "sim_cpu_s": executor.sim_cpu_s,
                    "simulations": executor.simulations_executed,
                    "cache_hits": executor.cache_hits,
                    "retries": executor.retries,
                    "pool_respawns": executor.pool_respawns,
                    "chunk_timeouts": executor.chunk_timeouts})

    def failures(self, result: PassResult) -> list[str]:
        """One line per failed job of ``result``, including second-batch
        cache hits that differ from their cold result, as returned or as
        read back from disk by a fresh cache."""
        failed = list(result.raised)
        for label, outcome in result.outcomes:
            job = self.jobs[label]
            signature = job.trace_signature()
            if signature not in self._traces:
                self._traces[signature] = job.build_traces()
            problems = check_result(outcome, self._traces[signature])
            if problems:
                failed.append(f"{label}: {'; '.join(problems)}")
        cold, warm = self._batch_results
        disk = ResultCache(self._cache_dir)
        for job, hit in warm.items():
            if job in cold:
                expected = cold[job].to_dict()
                stored = disk.get(job.key())
                if hit.to_dict() != expected or stored is None \
                        or stored.to_dict() != expected:
                    failed.append(f"cache hit {job.key()} differs from its "
                                  f"cold result")
        if not result.raised and len(cold) + len(warm) < result.attempted:
            failed.append("jobs missing from the batch results")
        return failed

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
