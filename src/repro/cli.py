"""Command-line interface: run the paper's experiments outside pytest.

``python -m repro`` exposes the experiment engine directly:

* ``run-figure N``  — regenerate one of Figures 7–15, or a named study
  such as ``dram-types`` (the cross-standard sensitivity sweep) or
  ``latency`` (read-latency percentiles per configuration).
* ``run-static NAME`` — regenerate a table/section study (table1, table2,
  reloc-timing, overhead, rowhammer).
* ``timeline WORKLOAD`` — per-epoch time series (IPC, row-buffer and
  in-DRAM cache hit rates, queue depth, bandwidth) for one single-core
  workload, plus the read-latency percentile summary.
* ``sweep``         — a design-space sweep over FIGCache knobs (cross
  product of segment sizes and cache capacities).
* ``standards list`` / ``standards smoke`` — show the DRAM device
  catalog, or run one tiny validation simulation per profile.
* ``cache stats`` / ``cache clear`` — inspect or wipe the persistent
  result cache.
* ``trace WORKLOAD`` — record an event-level simulation trace (DRAM
  commands, request lifecycles, mechanism events) and export it as
  Chrome trace-event JSON, viewable at https://ui.perfetto.dev.
* ``list``          — show every runnable experiment and device profile.

``--jobs N`` fans independent simulations across N worker processes;
``--cache-dir`` (default ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``)
persists results so re-runs are incremental.  Serial and parallel runs
produce bit-identical tables.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.dram.standards import list_profiles
from repro.experiments import engine
from repro.experiments.engine import default_cache_dir
from repro.experiments.figures import (FIGURES, NAMED_FIGURES,
                                       design_space_sweep)
from repro.experiments.runner import ExperimentScale, format_table
from repro.experiments.static import STATIC_EXPERIMENTS
from repro.sim.config import CONFIGURATION_NAMES
from repro.sim.telemetry import DEFAULT_EPOCH_CYCLES

#: Every ``run-figure`` choice: numbered figures plus named studies.
FIGURE_CHOICES = tuple([str(number) for number in sorted(FIGURES)]
                       + sorted(NAMED_FIGURES))

#: Named experiment scales selectable with ``--scale``.
SCALES = {
    "tiny": ExperimentScale.tiny,
    "smoke": ExperimentScale.smoke,
    "bench": ExperimentScale.bench,
    "paper": ExperimentScale,
}


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (default: $REPRO_JOBS or 1)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent result cache directory "
                             "(default: $REPRO_CACHE_DIR or ~/.cache/repro; "
                             "'none' disables persistence)")
    parser.add_argument("--scale", choices=sorted(SCALES), default="paper",
                        help="experiment scale (default: paper)")
    parser.add_argument("--keep-going", action="store_true",
                        help="retry failed jobs, then skip them instead "
                             "of aborting the batch; the run still exits "
                             "nonzero if anything was skipped")


def _configure_engine(args) -> "engine.JobExecutor":
    if args.cache_dir == "none":
        cache_dir = None
    elif args.cache_dir is not None:
        cache_dir = args.cache_dir
    else:
        cache_dir = str(default_cache_dir())
    return engine.configure(jobs=args.jobs, cache_dir=cache_dir,
                            keep_going=args.keep_going)


def _add_progress_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--progress", action="store_true",
                        help="live engine progress line on stderr")
    parser.add_argument("--progress-file", default=None, metavar="FILE",
                        help="write engine progress events to FILE as "
                             "JSON lines (see docs/observability.md)")


def _progress_sink(args) -> "engine.ProgressSink | None":
    """Build the progress sink the CLI flags ask for (or ``None``)."""
    sinks = []
    if getattr(args, "progress", False):
        sinks.append(engine.StderrLineSink())
    if getattr(args, "progress_file", None):
        sinks.append(engine.JsonlFileSink(args.progress_file))
    if not sinks:
        return None
    return sinks[0] if len(sinks) == 1 else engine.TeeSink(*sinks)


def _report(data: dict, executor, elapsed_s: float) -> None:
    title = data.get("figure") or data.get("table") or data.get("section")
    print(format_table(f"{title}: {data.get('metric', '')}",
                       data["columns"], data["rows"]))
    print(f"\n{executor.simulations_executed} simulations executed, "
          f"{executor.cache_hits} cache hits, "
          f"{executor.jobs} worker(s), {elapsed_s:.1f}s")


def _run_table(args, runner) -> int:
    """Run ``runner(scale)`` on the configured engine and print its table.

    A job skipped under ``--keep-going`` makes the runner raise
    :class:`~repro.experiments.engine.JobExecutionError`, which
    :func:`main` turns into exit 1 with the one-line summary.
    """
    executor = _configure_engine(args)
    sink = _progress_sink(args)
    executor.progress = sink
    start = time.perf_counter()
    try:
        data = runner(SCALES[args.scale]())
    finally:
        if sink is not None:
            sink.close()
            executor.progress = None
    _report(data, executor, time.perf_counter() - start)
    return 0


def _cmd_run_figure(args) -> int:
    if args.figure in NAMED_FIGURES:
        return _run_table(args, NAMED_FIGURES[args.figure])
    return _run_table(args, FIGURES[int(args.figure)])


def _cmd_run_static(args) -> int:
    runner = STATIC_EXPERIMENTS[args.name]
    if args.name == "rowhammer":
        return _run_table(args, runner)
    return _run_table(args, lambda scale: runner())


def _cmd_sweep(args) -> int:
    if not args.segment_blocks or not args.cache_rows:
        raise ValueError("sweep needs at least one segment size and one "
                         "cache capacity")
    return _run_table(args, lambda scale: design_space_sweep(
        scale, args.segment_blocks, args.cache_rows))


def _cmd_timeline(args) -> int:
    from repro.experiments.engine import SimJob
    from repro.workloads.catalog import get_benchmark

    try:
        get_benchmark(args.workload)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    executor = _configure_engine(args)
    scale = SCALES[args.scale]()
    job = SimJob.single_core(args.configuration, args.workload, scale,
                             telemetry=True,
                             telemetry_epoch_cycles=args.epoch)
    start = time.perf_counter()
    result = executor.run_one(job)
    elapsed_s = time.perf_counter() - start
    telemetry = result.telemetry
    rows = [[row["end_cycle"], row["ipc"], row["row_buffer_hit_rate"],
             row["cache_hit_rate"], row["reads"], row["writes"],
             row.get("read_gbps", 0.0), row["queue_depth_max"]]
            for row in telemetry.epochs.rows(telemetry.cpu_clock_ghz)]
    print(format_table(
        f"timeline: {args.workload} on {args.configuration} "
        f"(epoch = {telemetry.epoch_cycles} cycles)",
        ["end_cycle", "ipc", "rb_hit", "cache_hit", "reads", "writes",
         "read_GB/s", "queue_max"], rows))
    summary = telemetry.read_percentiles()
    print(f"\nread latency (cycles): p50 {summary['p50']}  "
          f"p95 {summary['p95']}  p99 {summary['p99']}  "
          f"max {summary['max']}  mean {summary['mean']:.1f}  "
          f"({summary['count']} reads, "
          f"{telemetry.write_latency.count} writes)")
    print(f"{executor.simulations_executed} simulations executed, "
          f"{executor.cache_hits} cache hits, {elapsed_s:.1f}s")
    return 0


def _cmd_trace(args) -> int:
    from repro.experiments.engine import SimJob
    from repro.sim.system import System
    from repro.sim.tracing import EventTracer, write_chrome_trace
    from repro.workloads.catalog import get_benchmark

    try:
        get_benchmark(args.workload)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    scale = SCALES[args.scale]()
    job = SimJob.single_core(args.configuration, args.workload, scale)
    config = job.build_config()
    traces = job.build_traces()
    tracer = EventTracer() if args.max_events is None \
        else EventTracer(max_events=args.max_events)
    system = System(config, traces, tracer=tracer)
    start = time.perf_counter()
    result = system.run(args.workload)
    elapsed_s = time.perf_counter() - start
    path = write_chrome_trace(
        args.out, tracer, config.dram,
        metadata={"workload": args.workload,
                  "configuration": args.configuration,
                  "scale": args.scale})
    kinds: dict[str, int] = {}
    for record in tracer.events:
        kinds[record[0]] = kinds.get(record[0], 0) + 1
    breakdown = ", ".join(f"{kinds.get(kind, 0)} {label}"
                          for kind, label in (("cmd", "commands"),
                                              ("req", "requests"),
                                              ("ref", "refreshes"),
                                              ("mech", "mechanism")))
    print(f"traced {args.workload} on {args.configuration}: "
          f"{result.total_cycles} cycles, {elapsed_s:.1f}s")
    print(f"{tracer.total_events} events recorded "
          f"({breakdown}; {tracer.dropped_events} dropped by the "
          f"{tracer.max_events}-event ring buffer)")
    print(f"trace written to {path} — open at https://ui.perfetto.dev")
    return 0


def _cmd_cache(args) -> int:
    cache_dir = args.cache_dir
    if cache_dir is None:
        cache_dir = str(default_cache_dir())
    cache = engine.ResultCache(None if cache_dir == "none" else cache_dir)
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"cleared {removed} cached result(s) from {cache.directory}")
    elif args.cache_command == "verify":
        report = cache.verify(repair=args.repair)
        print(f"cache directory : {cache.directory}")
        print(f"entries checked : {report['checked']}")
        print(f"ok              : {report['ok']}")
        print(f"stale salt      : {report['stale_salt']}")
        print(f"corrupt         : {len(report['corrupt'])}")
        for key in report["corrupt"]:
            print(f"  corrupt: {key}")
        if args.repair:
            print(f"quarantined     : {report['quarantined']}")
        elif report["corrupt"]:
            print("re-run with --repair to move corrupt entries to "
                  "quarantine/")
        return 1 if report["corrupt"] else 0
    else:
        stats = cache.stats()
        print(f"cache directory : {cache.directory}")
        print(f"disk entries    : {stats.disk_entries}")
        print(f"disk bytes      : {stats.disk_bytes}")
        print(f"shards          : {stats.shards}")
        print(f"gzip entries    : {stats.disk_compressed}")
        print(f"decode failures : {stats.decode_failures}")
        print(f"quarantined     : {stats.quarantine_entries}")
        print(f"salt            : {engine.cache_salt()}")
    return 0


def _cmd_standards(args) -> int:
    if args.standards_command == "list":
        print(_profile_table())
        return 0
    # ``smoke``: one tiny simulation per profile — a fast cross-standard
    # validation that every catalog entry builds and simulates.
    from repro.sim.config import make_system_config
    from repro.sim.system import run_workload
    from repro.workloads.catalog import get_benchmark

    scale = SCALES[args.scale]()
    trace = [get_benchmark("lbm").make_trace(scale.single_core_records)]
    rows = []
    for profile in list_profiles():
        start = time.perf_counter()
        result = run_workload(make_system_config("Base",
                                                 standard=profile.name),
                              trace, "lbm")
        rows.append([profile.name, profile.refresh_mode,
                     result.total_cycles, result.cores[0].ipc,
                     result.dram_counters.refreshes,
                     time.perf_counter() - start])
    print(format_table(
        "standards smoke: Base on one tiny lbm trace per profile",
        ["standard", "refresh", "cycles", "ipc", "refreshes", "wall_s"],
        rows))
    return 0


def _profile_table() -> str:
    rows = [profile.summary_row() for profile in list_profiles()]
    return format_table(
        "DRAM device catalog (make_system_config(standard=...))",
        ["standard", "family", "MT/s", "banks (groups x banks)",
         "row bytes", "refresh", "description"], rows)


def _cmd_list(args) -> int:
    del args
    print("figures (run-figure N):")
    for number, runner in sorted(FIGURES.items()):
        print(f"  {number:>2d}  {runner.__doc__.splitlines()[0]}")
    print("named studies (run-figure NAME):")
    for name, runner in NAMED_FIGURES.items():
        print(f"  {name:<12s}  {runner.__doc__.splitlines()[0]}")
    print("static experiments (run-static NAME):")
    for name, runner in STATIC_EXPERIMENTS.items():
        print(f"  {name:<12s}  {runner.__doc__.splitlines()[0]}")
    print("device profiles (standard=... / standards list):")
    for profile in list_profiles():
        print(f"  {profile.name:<12s}  {profile.family}, "
              f"{profile.data_rate_mts} MT/s, "
              f"{profile.bankgroups_per_rank}x"
              f"{profile.banks_per_bankgroup} banks, "
              f"{profile.row_size_bytes} B rows, "
              f"{profile.refresh_mode} refresh — {profile.description}")
    return 0


def _int_list(text: str) -> list[int]:
    return [int(item) for item in text.split(",") if item]


def build_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the FIGARO/FIGCache reproduction experiments "
                    "through the parallel, cached experiment engine.")
    sub = parser.add_subparsers(dest="command", required=True)

    figure = sub.add_parser("run-figure",
                            help="regenerate one of the paper's figures "
                                 "or a named study (e.g. dram-types)")
    figure.add_argument("figure", choices=FIGURE_CHOICES)
    _add_engine_arguments(figure)
    _add_progress_arguments(figure)
    figure.set_defaults(func=_cmd_run_figure)

    static = sub.add_parser("run-static",
                            help="regenerate a table/section study")
    static.add_argument("name", choices=list(STATIC_EXPERIMENTS))
    _add_engine_arguments(static)
    static.set_defaults(func=_cmd_run_static)

    sweep = sub.add_parser("sweep",
                           help="design-space sweep: segment size x "
                                "in-DRAM cache capacity")
    sweep.add_argument("--segment-blocks", type=_int_list,
                       default=[8, 16, 32], metavar="B1,B2,...",
                       help="segment sizes in 64 B blocks (default 8,16,32)")
    sweep.add_argument("--cache-rows", type=_int_list,
                       default=[32, 64, 128], metavar="R1,R2,...",
                       help="cache rows per bank (default 32,64,128)")
    _add_engine_arguments(sweep)
    _add_progress_arguments(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    timeline = sub.add_parser("timeline",
                              help="per-epoch telemetry time series for "
                                   "one single-core workload")
    timeline.add_argument("workload",
                          help="benchmark name (see 'list')")
    timeline.add_argument("--configuration", default="FIGCache-Fast",
                          metavar="NAME",
                          help="configuration to simulate "
                               "(default: FIGCache-Fast; one of "
                               f"{', '.join(CONFIGURATION_NAMES)})")
    timeline.add_argument("--epoch", type=int,
                          default=DEFAULT_EPOCH_CYCLES, metavar="CYCLES",
                          help="epoch length in CPU cycles "
                               f"(default {DEFAULT_EPOCH_CYCLES})")
    _add_engine_arguments(timeline)
    timeline.set_defaults(func=_cmd_timeline)

    standards = sub.add_parser("standards",
                               help="DRAM device catalog tools")
    standards.add_argument("standards_command", choices=("list", "smoke"))
    standards.add_argument("--scale", choices=sorted(SCALES),
                           default="tiny",
                           help="trace length for the smoke run "
                                "(default: tiny)")
    standards.set_defaults(func=_cmd_standards)

    trace = sub.add_parser("trace",
                           help="record an event-level simulation trace "
                                "as Chrome trace-event JSON (Perfetto)")
    trace.add_argument("workload", help="benchmark name (see 'list')")
    trace.add_argument("--configuration", "--config", dest="configuration",
                       default="FIGCache-Fast", metavar="NAME",
                       help="configuration to simulate "
                            "(default: FIGCache-Fast; one of "
                            f"{', '.join(CONFIGURATION_NAMES)})")
    trace.add_argument("--scale", choices=sorted(SCALES), default="smoke",
                       help="trace length (default: smoke)")
    trace.add_argument("--max-events", type=int, default=None,
                       metavar="N",
                       help="ring-buffer capacity; older events are "
                            "dropped past this (default 1000000)")
    trace.add_argument("--out", default="trace.json", metavar="FILE",
                       help="output path (default trace.json)")
    trace.set_defaults(func=_cmd_trace)

    cache = sub.add_parser("cache", help="persistent result cache tools")
    cache.add_argument("cache_command", choices=("stats", "clear", "verify"))
    cache.add_argument("--cache-dir", default=None, metavar="DIR")
    cache.add_argument("--repair", action="store_true",
                       help="with 'verify': move corrupt entries into "
                            "<cache>/quarantine/ instead of just "
                            "reporting them")
    cache.set_defaults(func=_cmd_cache)

    listing = sub.add_parser("list", help="list runnable experiments")
    listing.set_defaults(func=_cmd_list)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except engine.JobExecutionError as error:
        # The full per-job tracebacks live in the exception (and in a
        # --progress-file when one was given); the console gets one
        # actionable line, not a wall of worker traceback.
        report = error.report
        print(f"error: batch failed ({report.summary()}); first failure: "
              f"{report.failures[0].one_line()}", file=sys.stderr)
        print("hint: --keep-going retries and then skips poisoned jobs; "
              "--progress-file FILE captures per-job events",
              file=sys.stderr)
        return 1
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
