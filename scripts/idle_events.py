"""Count the simulator events that do no work.

Runs the jobs of the repository benchmark's ``single-sim`` and ``mix-sim``
passes for one seed (the benchmarks, mix, configurations and trace lengths
that ``perfbench/run.py --seed N`` runs), each job once, and counts:

* ``CORE_RUN`` events whose ``TraceCore.run_requests`` call issues nothing;
* bank wake attempts (``ChannelController.wake`` trying one bank) that find
  only writes, held back because the write queue is below the drain
  watermark;
* write arrivals that bring a channel's write backlog up to the low
  watermark, and at each one the other banks of the channel that hold only
  writes and have no pending wake.  From that moment FR-FCFS would issue
  those writes, but a bank whose wake found only held writes has left the
  wake list and is not tried again until a request for it arrives.

Run from the repository root::

    PYTHONPATH=src python3 scripts/idle_events.py --seed 1

docs/performance.md ("Events that do no work") says why these events stay.
"""

from __future__ import annotations

import argparse
import random

from repro.controller.channel_controller import ChannelController
from repro.cpu.core import TraceCore
from repro.experiments.engine import ExperimentScale
from repro.sim.config import CONFIGURATION_NAMES, make_system_config
from repro.sim.system import System
from repro.workloads.catalog import BENCHMARKS, benchmark_names
from repro.workloads.multiprogram import make_workload_suite

SCALE = ExperimentScale()
MIX_CONFIGS = ("Base", "FIGCache-Fast", "LISA-VILLA")


def install_counters() -> dict[str, int]:
    """Wrap the boundaries on their classes; returns the live counts."""
    counts = dict.fromkeys(("core_runs", "idle_core_runs", "bank_wakes",
                            "held_write_wakes", "low_watermark_arrivals",
                            "stranding_arrivals", "stranded_banks",
                            "high_watermark_arrivals"), 0)
    waking = False
    run_requests = TraceCore.run_requests
    enqueue = ChannelController.enqueue
    wake = ChannelController.wake
    try_schedule_bank = ChannelController._try_schedule_bank

    def counted_run_requests(core, now):
        issued = run_requests(core, now)
        counts["core_runs"] += 1
        counts["idle_core_runs"] += not issued
        return issued

    def counted_enqueue(controller, request, now):
        if request.is_write:
            backlog = controller._write_count + 1
            if backlog == controller._drain_low:
                # Banks whose held writes FR-FCFS would now issue, but which
                # no wake will try before a request for them arrives.
                stranded = sum(
                    1 for bank in controller._writes_by_bank
                    if bank != request.flat_bank
                    and bank not in controller._reads_by_bank
                    and bank not in controller._wakeup_cycle)
                counts["low_watermark_arrivals"] += 1
                counts["stranding_arrivals"] += stranded > 0
                counts["stranded_banks"] += stranded
            counts["high_watermark_arrivals"] += \
                backlog == controller._drain_high
        return enqueue(controller, request, now)

    def flagged_wake(controller, now, bank=None):
        nonlocal waking
        waking = True
        try:
            return wake(controller, now, bank)
        finally:
            waking = False

    def counted_try_schedule_bank(controller, flat_bank, now,
                                  force_writes=False):
        if waking:
            counts["bank_wakes"] += 1
            # The scheduling loop's first pass: a free bank with no reads,
            # whose writes wait for the backlog to reach the watermark.
            counts["held_write_wakes"] += (
                controller._channel.bank(flat_bank).ready_for_next <= now
                and flat_bank not in controller._reads_by_bank
                and flat_bank in controller._writes_by_bank
                and not controller._drain_mode
                and controller._write_count < controller._drain_low)
        return try_schedule_bank(controller, flat_bank, now, force_writes)

    TraceCore.run_requests = counted_run_requests
    ChannelController.enqueue = counted_enqueue
    ChannelController.wake = flagged_wake
    ChannelController._try_schedule_bank = counted_try_schedule_bank
    return counts


def single_sim_jobs(seed: int) -> list:
    """``single-sim``: 1 intensive + 1 non-intensive benchmark, 6 configs."""
    rng = random.Random(seed)
    names = sorted(rng.sample(benchmark_names(True), 1)
                   + rng.sample(benchmark_names(False), 1))
    jobs = []
    for name in names:
        trace = BENCHMARKS[name].make_trace(SCALE.single_core_records,
                                            seed_offset=seed)
        jobs += [(make_system_config(config), [trace], name)
                 for config in CONFIGURATION_NAMES]
    return jobs


def mix_sim_jobs(seed: int) -> list:
    """``mix-sim``: the seeded fully intensive 8-core mix on 4 channels."""
    mix = next(mix for mix in make_workload_suite(
        num_cores=SCALE.num_cores, mixes_per_category=1, seed=seed)
        if mix.intensive_fraction == 1.0)
    traces = mix.make_traces(SCALE.multicore_records)
    return [(make_system_config(config, channels=SCALE.multicore_channels),
             traces, mix.name) for config in MIX_CONFIGS]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    counts = install_counters()
    for workload, jobs in (("single-sim", single_sim_jobs(seed)),
                           ("mix-sim", mix_sim_jobs(seed))):
        counts.update(dict.fromkeys(counts, 0))
        events = 0
        for config, traces, name in jobs:
            system = System(config, traces)
            system.run(name)
            events += system.processed_events
        print(f"{workload} (seed {seed}, {len(jobs)} jobs): {events} events; "
              f"{counts['idle_core_runs']} of {counts['core_runs']} CORE_RUN "
              f"events issue nothing; {counts['held_write_wakes']} of "
              f"{counts['bank_wakes']} bank wake attempts find only writes "
              f"held below the drain watermark")
        print(f"  the write backlog reaches the low watermark on "
              f"{counts['low_watermark_arrivals']} arrivals; "
              f"{counts['stranding_arrivals']} of them leave other banks "
              f"holding only writes with no pending wake "
              f"({counts['stranded_banks']} banks in all); the high "
              f"watermark is reached on "
              f"{counts['high_watermark_arrivals']} arrivals")


if __name__ == "__main__":
    main()
