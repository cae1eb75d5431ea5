"""Simulation result metrics.

Collects the quantities the paper reports: per-core IPC, weighted speedup
for multiprogrammed workloads, in-DRAM cache hit rate (Figure 9), DRAM
row-buffer hit rate (Figure 10), average memory latency, and the energy
breakdown (Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.counters import CommandCounters
from repro.energy.system_energy import SystemEnergyBreakdown
from repro.sim.telemetry import TelemetryResult


@dataclass
class CoreResult:
    """Per-core outcome of one simulation."""

    core_id: int
    instructions: int
    cycles: int
    llc_misses: int
    memory_instructions: int

    @property
    def ipc(self) -> float:
        """Instructions per cycle for this core."""
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles

    def to_dict(self) -> dict:
        """JSON-serialisable form (used by the persistent result cache)."""
        return {
            "core_id": self.core_id,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "llc_misses": self.llc_misses,
            "memory_instructions": self.memory_instructions,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CoreResult":
        """Rebuild a per-core result from :meth:`to_dict` output."""
        return cls(core_id=data["core_id"],
                   instructions=data["instructions"],
                   cycles=data["cycles"],
                   llc_misses=data["llc_misses"],
                   memory_instructions=data["memory_instructions"])


@dataclass
class SimulationResult:
    """Full outcome of simulating one workload on one configuration."""

    #: Configuration name (Base, FIGCache-Fast, ...).
    configuration: str
    #: Workload name.
    workload: str
    #: Per-core results, in core order.
    cores: list[CoreResult]
    #: Total simulated cycles (the longest core's finish time).
    total_cycles: int
    #: Simulated wall-clock time in nanoseconds.
    elapsed_ns: float
    #: Aggregate DRAM command counters.
    dram_counters: CommandCounters
    #: In-DRAM cache hit rate (0.0 for systems without a cache).
    in_dram_cache_hit_rate: float
    #: In-DRAM cache lookups and hits (absolute counts).
    cache_lookups: int
    cache_hits: int
    #: Mean read latency observed at the memory controller, in cycles.
    average_read_latency_cycles: float
    #: Reads and writes serviced by the memory system.
    memory_reads: int
    memory_writes: int
    #: Relocation work performed by the caching mechanism.
    relocation_operations: int
    relocation_cycles: int
    #: Energy breakdown (filled in by the system runner).
    energy: SystemEnergyBreakdown | None = None
    #: Telemetry section (latency distributions + epoch time series), only
    #: attached when the system configuration enables telemetry.
    telemetry: TelemetryResult | None = None
    #: Optional extra per-experiment data.
    extra: dict = field(default_factory=dict)

    @property
    def row_buffer_hit_rate(self) -> float:
        """DRAM row-buffer hit rate over all column accesses."""
        return self.dram_counters.row_buffer_hit_rate

    @property
    def instructions(self) -> int:
        """Total instructions executed across cores."""
        return sum(core.instructions for core in self.cores)

    @property
    def ipc_sum(self) -> float:
        """Sum of per-core IPCs (throughput metric for identical cores)."""
        return sum(core.ipc for core in self.cores)

    def to_dict(self) -> dict:
        """JSON-serialisable form, exact to the bit for every metric.

        ``extra`` must itself be JSON-serialisable for the round trip to be
        lossless; the experiment engine never stores anything else in it.

        The ``telemetry`` key is only present when a telemetry section was
        collected: results simulated with telemetry off serialise exactly
        as they did before the telemetry subsystem existed, which is what
        keeps the pre-refactor golden fixtures comparable bit for bit.
        """
        data = {
            "configuration": self.configuration,
            "workload": self.workload,
            "cores": [core.to_dict() for core in self.cores],
            "total_cycles": self.total_cycles,
            "elapsed_ns": self.elapsed_ns,
            "dram_counters": self.dram_counters.to_dict(),
            "in_dram_cache_hit_rate": self.in_dram_cache_hit_rate,
            "cache_lookups": self.cache_lookups,
            "cache_hits": self.cache_hits,
            "average_read_latency_cycles": self.average_read_latency_cycles,
            "memory_reads": self.memory_reads,
            "memory_writes": self.memory_writes,
            "relocation_operations": self.relocation_operations,
            "relocation_cycles": self.relocation_cycles,
            "energy": self.energy.to_dict() if self.energy else None,
            "extra": self.extra,
        }
        if self.telemetry is not None:
            data["telemetry"] = self.telemetry.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SimulationResult":
        """Rebuild a result from :meth:`to_dict` output.

        Every field :meth:`to_dict` writes is required; ``telemetry`` is
        absent exactly when no section was collected.
        """
        energy = data["energy"]
        telemetry = data.get("telemetry")
        return cls(
            configuration=data["configuration"],
            workload=data["workload"],
            cores=[CoreResult.from_dict(core) for core in data["cores"]],
            total_cycles=data["total_cycles"],
            elapsed_ns=data["elapsed_ns"],
            dram_counters=CommandCounters.from_dict(data["dram_counters"]),
            in_dram_cache_hit_rate=data["in_dram_cache_hit_rate"],
            cache_lookups=data["cache_lookups"],
            cache_hits=data["cache_hits"],
            average_read_latency_cycles=data["average_read_latency_cycles"],
            memory_reads=data["memory_reads"],
            memory_writes=data["memory_writes"],
            relocation_operations=data["relocation_operations"],
            relocation_cycles=data["relocation_cycles"],
            energy=SystemEnergyBreakdown.from_dict(energy)
            if energy is not None else None,
            telemetry=TelemetryResult.from_dict(telemetry)
            if telemetry is not None else None,
            extra=data["extra"],
        )


def weighted_speedup(shared: SimulationResult,
                     alone_ipcs: list[float]) -> float:
    """Weighted speedup of a multiprogrammed run (Snavely & Tullsen).

    ``alone_ipcs[i]`` is core *i*'s IPC when its application runs alone on
    the baseline system.  The paper uses weighted speedup as its system
    performance metric for the eight-core workloads.
    """
    if len(alone_ipcs) != len(shared.cores):
        raise ValueError("need one alone-IPC per core")
    total = 0.0
    for core, alone in zip(shared.cores, alone_ipcs):
        if alone <= 0:
            raise ValueError("alone IPC must be positive")
        total += core.ipc / alone
    return total


def speedup_over(result: SimulationResult, baseline: SimulationResult) -> float:
    """Single-core speedup: IPC ratio against a baseline run."""
    if len(result.cores) != 1 or len(baseline.cores) != 1:
        raise ValueError("speedup_over is defined for single-core runs")
    base_ipc = baseline.cores[0].ipc
    if base_ipc <= 0:
        raise ValueError("baseline IPC must be positive")
    return result.cores[0].ipc / base_ipc
