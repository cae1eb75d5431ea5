"""System assembly and the one-call workload runner.

:class:`System` wires a :class:`~repro.sim.config.SystemConfig` and a set of
per-core traces into cores, caches, the DRAM device, and one memory
controller and caching mechanism per channel, runs the event-driven
simulation, and produces a :class:`~repro.sim.metrics.SimulationResult`
including the energy breakdown.
"""

from __future__ import annotations

from repro.controller.channel_controller import ChannelController
from repro.cpu.core import TraceCore
from repro.dram.device import DRAMDevice
from repro.energy.system_energy import (SystemActivity, SystemEnergyModel,
                                         SystemEnergyParams)
from repro.sim.config import SystemConfig, make_mechanism
from repro.sim.metrics import CoreResult, SimulationResult
from repro.sim.simulator import Simulator, SimulatorLimits
from repro.sim.telemetry import LatencyHistogram, Telemetry, TelemetryResult
from repro.workloads.trace import TraceRecord


class System:
    """One fully assembled simulated system."""

    def __init__(self, config: SystemConfig,
                 traces: list[list[TraceRecord]],
                 energy_params: SystemEnergyParams | None = None,
                 limits: SimulatorLimits | None = None,
                 tracer=None):
        if not traces:
            raise ValueError("at least one per-core trace is required")
        self.config = config
        self.device = DRAMDevice(config.dram,
                                 refresh_enabled=config.refresh_enabled,
                                 track_row_activations=config.track_row_activations)
        self.mechanisms = make_mechanism(config)
        #: One controller per channel, each with that channel's mechanism.
        self.channel_controllers = [
            ChannelController(channel, mechanism, config.scheduler)
            for channel, mechanism in zip(self.device.channels,
                                          self.mechanisms, strict=True)]
        self.cores = [TraceCore(core_id, trace, config.core)
                      for core_id, trace in enumerate(traces)]
        if energy_params is None and config.dram_energy is not None:
            # Per-standard DRAM power table from the device catalog; the
            # non-DRAM component parameters stay at their defaults.
            energy_params = SystemEnergyParams(dram=config.dram_energy)
        self.energy_model = SystemEnergyModel(energy_params)
        self._limits = limits
        #: Optional event tracer (see :mod:`repro.sim.tracing`).  A run-time
        #: observer, not part of :class:`SystemConfig` — it never enters the
        #: config digest and never changes simulated results.
        self.tracer = tracer
        if tracer is not None:
            tracer.install(self.channel_controllers)
        #: Simulator events processed by the most recent :meth:`run` call
        #: (used by the perf benchmark harness to report events/sec).
        self.processed_events = 0

    def run(self, workload_name: str = "workload") -> SimulationResult:
        """Simulate the workload to completion and gather all metrics."""
        telemetry = None
        if self.config.telemetry is not None:
            telemetry = Telemetry(self.config.telemetry, self.cores,
                                  self.channel_controllers)
        simulator = Simulator(self.cores, self.channel_controllers,
                              self.device.mapper, self._limits,
                              telemetry=telemetry)
        simulator.run()
        self.processed_events = simulator.processed_events

        core_results = [
            CoreResult(core_id=core.core_id,
                       instructions=core.stats.instructions,
                       cycles=max(core.stats.finish_cycle, 1),
                       llc_misses=(core.stats.llc_miss_loads
                                   + core.stats.llc_miss_stores),
                       memory_instructions=core.stats.memory_instructions)
            for core in self.cores
        ]
        total_cycles = max(core.cycles for core in core_results)
        clock_ghz = self.config.dram.cpu_clock_ghz
        elapsed_ns = total_cycles / clock_ghz

        counters = self.device.total_counters()
        cache_lookups = sum(m.stats.cache_lookups for m in self.mechanisms)
        cache_hits = sum(m.stats.cache_hits for m in self.mechanisms)
        relocation_ops = sum(m.stats.relocation_operations
                             for m in self.mechanisms)
        relocation_cycles = sum(m.stats.relocation_cycles
                                for m in self.mechanisms)
        hit_rate = cache_hits / cache_lookups if cache_lookups else 0.0
        # The one place per-channel controller counters are summed.  Every
        # completion adds one count to its direction's latency dict, so the
        # merged read histogram's mean is the exact-integer mean latency.
        read_latency = LatencyHistogram()
        write_latency = LatencyHistogram()
        for controller in self.channel_controllers:
            read_latency.merge(LatencyHistogram(controller.read_latencies))
            write_latency.merge(LatencyHistogram(controller.write_latencies))

        result = SimulationResult(
            configuration=self.config.name,
            workload=workload_name,
            cores=core_results,
            total_cycles=total_cycles,
            elapsed_ns=elapsed_ns,
            dram_counters=counters,
            in_dram_cache_hit_rate=hit_rate,
            cache_lookups=cache_lookups,
            cache_hits=cache_hits,
            average_read_latency_cycles=read_latency.mean,
            memory_reads=sum(controller.completed_reads
                             for controller in self.channel_controllers),
            memory_writes=sum(controller.completed_writes
                              for controller in self.channel_controllers),
            relocation_operations=relocation_ops,
            relocation_cycles=relocation_cycles,
        )
        if telemetry is not None:
            result.telemetry = TelemetryResult(
                epoch_cycles=telemetry.epoch_cycles,
                cpu_clock_ghz=clock_ghz,
                read_latency=read_latency,
                write_latency=write_latency,
                epochs=telemetry.series,
            )
        result.energy = self._compute_energy(result)
        return result

    def _compute_energy(self, result: SimulationResult):
        l1l2_accesses = sum(core.hierarchy.l1.hits + core.hierarchy.l1.misses
                            + core.hierarchy.l2.hits + core.hierarchy.l2.misses
                            for core in self.cores)
        llc_accesses = sum(core.hierarchy.llc.hits + core.hierarchy.llc.misses
                           for core in self.cores)
        offchip_blocks = result.memory_reads + result.memory_writes
        activity = SystemActivity(
            elapsed_ns=result.elapsed_ns,
            num_cores=len(self.cores),
            num_channels=self.config.dram.channels,
            instructions=result.instructions,
            l1l2_accesses=l1l2_accesses,
            llc_accesses=llc_accesses,
            offchip_blocks=offchip_blocks,
            dram_counters=result.dram_counters,
            has_tag_store=self.config.name not in ("Base", "LL-DRAM"),
        )
        return self.energy_model.energy(activity)


def run_workload(config: SystemConfig, traces: list[list[TraceRecord]],
                 workload_name: str = "workload",
                 energy_params: SystemEnergyParams | None = None,
                 limits: SimulatorLimits | None = None,
                 tracer=None) -> SimulationResult:
    """Build a system for ``config``, run ``traces``, and return the result."""
    system = System(config, traces, energy_params=energy_params,
                    limits=limits, tracer=tracer)
    return system.run(workload_name)
