"""One measuring process of the benchmark.

``run.py`` starts this script in a fresh interpreter, so that set-up time
covers interpreter start, ``import repro`` and input generation.  It sets up
one workload, runs timed passes over it until its time budget (counted from
the spawn) is spent, and prints one JSON line with everything it measured.  With ``--traced`` it
installs the layer tracer before anything is built and traces set-up plus
a single pass.

Usage (normally only through run.py)::

    python3 perfbench/measure.py --workload single-sim --seed 1 \
        --t0 <time.monotonic() before spawning> --budget 5 --passes 1 \
        --scratch .perfbench_tmp/manual
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import time
from pathlib import Path

import repro  # noqa: F401  (the import is part of set-up time)
from reference import gauge_s

#: Reference-loop samples that gauge the host's speed right after set-up.
SETUP_REFERENCE_SAMPLES = 5

#: Traced self-time metrics: metric name -> boundaries it sums.
SELF_TIME_METRICS = {
    "sim.loop_self_s": ("System.run",),
    "sim.build_s": ("System.__init__",),
    "cpu.run_requests_self_s": ("TraceCore.run_requests",),
    "cpu.hierarchy_access_self_s": ("CacheHierarchy.access",),
    "cpu.notify_completion_self_s": ("TraceCore.notify_completion",),
    "controller.enqueue_self_s": ("ChannelController.enqueue",),
    "controller.wake_self_s": ("ChannelController.wake",),
    "controller.pick_self_s": ("FRFCFSScheduler.pick",),
    "controller.drain_all_self_s": ("ChannelController.drain_all",),
    "core.figcache_service_self_s": ("FIGCache.service",),
    "baselines.lisa_service_self_s": ("LISAVillaMechanism.service",),
    "dram.access_self_s": ("Channel.access",),
    "dram.relocate_self_s": ("Channel.relocate", "Channel.bulk_relocate"),
    "workloads.trace_gen_s": ("WorkloadSpec.make_trace",
                              "MultiprogrammedWorkload.make_traces"),
    "engine.key_s": ("SimJob.key",),
    "engine.cache_get_s": ("ResultCache.get",),
    "engine.cache_put_s": ("ResultCache.put", "ResultCache.put_many"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def model_metrics(outcomes) -> dict:
    """Exact simulated figures of one pass (identical across passes).

    Speed-ups are geometric means over workloads of the summed per-core
    IPC of a configuration over Base's, for jobs labelled
    ``<configuration>/<workload>``; 0 where the pass has no such pair.
    """
    ipc: dict[tuple[str, str], float] = {}
    hits = accesses = cycles = 0
    for label, result in outcomes:
        config, workload = label.split("/", 1)
        ipc[(config, workload)] = result.ipc_sum
        counters = result.dram_counters
        hits += counters.row_hits
        accesses += (counters.row_hits + counters.row_misses
                     + counters.row_conflicts)
        cycles += result.total_cycles

    def speedup(config: str) -> float:
        logs = [math.log(value / ipc[("Base", workload)])
                for (name, workload), value in ipc.items()
                if name == config and ("Base", workload) in ipc]
        return math.exp(sum(logs) / len(logs)) if logs else 0.0

    return {"model.figcache_fast_speedup": speedup("FIGCache-Fast"),
            "model.lisa_villa_speedup": speedup("LISA-VILLA"),
            "model.sim_cycles": cycles,
            "dram.row_hit_ratio": _ratio(hits, accesses)}


def layer_metrics(tracer) -> dict:
    """Per-layer metrics from the traced set-up and pass."""
    totals = tracer.by_boundary()

    def self_s(boundaries) -> float:
        return sum(totals.get(name, (0, 0.0, 0))[1] for name in boundaries)

    def calls(boundaries) -> int:
        return sum(totals.get(name, (0, 0.0, 0))[0] for name in boundaries)

    metrics = {name: self_s(boundaries)
               for name, boundaries in SELF_TIME_METRICS.items()}
    for name, boundaries in SELF_TIME_METRICS.items():
        if name.endswith("_self_s") and not name.startswith("sim."):
            metrics[name[:-len("_self_s")] + "_calls"] = calls(boundaries)
    counters = tracer.counters
    wake = totals.get("ChannelController.wake", (0, 0.0, 0))
    metrics.update({
        "sim.events": counters["events"],
        "cpu.llc_miss_ratio": _ratio(
            counters["llc_misses"],
            counters["llc_misses"] + counters["llc_hits"]),
        "controller.wake_useful_ratio": _ratio(wake[2], wake[0]),
        "core.figcache_hit_ratio": _ratio(counters["FIGCache.hits"],
                                          counters["FIGCache.lookups"]),
        "baselines.lisa_hit_ratio": _ratio(
            counters["LISAVillaMechanism.hits"],
            counters["LISAVillaMechanism.lookups"]),
        "workloads.records": totals.get("WorkloadSpec.make_trace",
                                        (0, 0.0, 0))[2],
    })
    return metrics


def gauge_every_cpu_s() -> float:
    """Mean host-speed gauge over every CPU this process may use, taken on
    one after another: the engine's workers run on all of them, and
    co-tenants slow one CPU at a time."""
    cpus = os.sched_getaffinity(0)
    values = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            values.append(gauge_s())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(values) / len(values)


def make_workload(name: str, seed: int, workers: int, scratch: Path):
    """Instantiate the named workload (see bench_workloads)."""
    from bench_workloads import MixSim, SingleSim, SweepEngine
    if name == "single-sim":
        return SingleSim(seed)
    if name == "mix-sim":
        return MixSim(seed)
    if name == "sweep-engine":
        return SweepEngine(seed, workers, scratch)
    raise SystemExit(f"unknown workload {name!r}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was spawned")
    parser.add_argument("--budget", type=float, default=0.0,
                        help="seconds from the spawn to the end of the "
                             "last timed pass")
    parser.add_argument("--passes", type=int, default=1,
                        help="minimum passes (0 = set-up only)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="engine worker processes (sweep-engine)")
    parser.add_argument("--scratch", required=True,
                        help="directory for result caches")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--spans", help="write the traced spans here")
    args = parser.parse_args()

    tracer = None
    if args.traced:
        from layer_trace import LayerTracer
        tracer = LayerTracer()
        tracer.install()
        tracer.begin("setup")
    workload = make_workload(args.workload, args.seed, args.jobs,
                             Path(args.scratch))
    workload.setup()
    if tracer is not None:
        tracer.end("setup")
    setup_s = time.monotonic() - args.t0
    # The host's speed right after set-up (reference.py); run.py scales
    # set-up time by it.
    setup_reference_s = gauge_s(SETUP_REFERENCE_SAMPLES)

    # The budget counts from the spawn, set-up included.  Passes run while
    # the next one is expected to end within it.
    passes = []
    peak_rss_mb = 0.0
    cpus = sorted(os.sched_getaffinity(0))
    # The traced pass is not gauged: the reference loop would count as time
    # outside every traced boundary.
    gauge = None if tracer else (gauge_every_cpu_s
                                 if args.workload == "sweep-engine"
                                 else gauge_s)
    start = time.monotonic()
    while len(passes) < args.passes or (
            args.passes and time.monotonic() + (time.monotonic() - start)
            / len(passes) <= args.t0 + args.budget):
        if passes:
            workload.prepare_next()
        if args.workload != "sweep-engine":
            # In-process passes alternate between the CPUs this process may
            # use: co-tenants of a shared host slow one CPU at a time, and
            # a job's samples should not depend on where the scheduler left
            # the process.  (Engine workers inherit the affinity, so
            # sweep-engine is left alone.)
            os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
        # Each pass starts without the previous one's garbage.
        gc.collect()
        if tracer is not None:
            tracer.begin("pass")
        # The traced pass is not gauged: the reference loop would count
        # as time outside every traced boundary.
        gauge = gauge_every_cpu_s if args.workload == "sweep-engine" \
            else gauge_s
        result = workload.run_pass(gauge=None if tracer else gauge)
        if tracer is not None:
            tracer.end("pass")
        failures = workload.failures(result)
        passes.append({
            "wall_s": result.wall_s, "cpu_s": result.cpu_s,
            "job_s": result.job_s, "reference_s": result.reference_s,
            "records": result.records,
            "attempted": result.attempted, "failed": len(failures),
            "failures": failures[:5], "digest": result.digest(),
            "engine": result.engine,
            "model": model_metrics(result.outcomes)})
        if len(passes) == 1:
            # Taken after the first pass: later passes only add allocator
            # growth that depends on how many passes fit the budget.
            peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            ) / 1024.0
    workload.close()

    report = {"setup_s": setup_s, "passes": passes,
              "peak_rss_mb": peak_rss_mb,
              "setup_reference_s": setup_reference_s}
    if tracer is not None:
        report["layers"] = layer_metrics(tracer)
        report["phases"] = tracer.phases
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.report()))
    from repro.sim.backend import resolve_backend
    report["backend"] = resolve_backend().name
    print(json.dumps(report))


if __name__ == "__main__":
    main()
