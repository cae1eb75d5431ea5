"""System-level energy model and breakdown (Figure 11).

Models the non-DRAM components the paper accounts for — CPU cores, L1/L2
caches, the last-level cache, and the off-chip interconnect — with simple
activity-plus-static models, and combines them with the DRAM energy model
into the normalised breakdown reported in the paper's Figure 11.

Two effects drive the paper's energy results and are both captured here:

* shorter execution time reduces every component's static energy, and
* a higher row-buffer hit rate (plus fast-subarray hits) reduces DRAM
  activation energy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.counters import CommandCounters
from repro.energy.dram_power import DRAMEnergyModel, DRAMEnergyParams


@dataclass(frozen=True)
class SystemEnergyParams:
    """Per-component energy parameters (representative 22 nm values)."""

    #: Static power per core, in milliwatts.
    core_static_mw: float = 900.0
    #: Dynamic energy per executed instruction, in nanojoules.
    core_dynamic_nj_per_instruction: float = 0.25
    #: Dynamic energy per L1/L2 access, in nanojoules.
    l1l2_nj_per_access: float = 0.08
    #: Static power of L1+L2 per core, in milliwatts.
    l1l2_static_mw: float = 40.0
    #: Dynamic energy per LLC access, in nanojoules.
    llc_nj_per_access: float = 0.6
    #: Static power of the LLC (whole chip), in milliwatts.
    llc_static_mw: float = 350.0
    #: Energy per 64 B transferred over the off-chip interconnect, nJ.
    offchip_nj_per_block: float = 4.0
    #: Static power of the off-chip interface per channel, in milliwatts.
    offchip_static_mw: float = 60.0
    #: FIGCache tag store power (paper Section 8.3: 0.187 mW), milliwatts.
    fts_mw: float = 0.187
    #: DRAM energy parameters.
    dram: DRAMEnergyParams = DRAMEnergyParams()


@dataclass(frozen=True)
class SystemActivity:
    """Activity counts a simulation produces for the energy model."""

    #: Execution time in nanoseconds.
    elapsed_ns: float
    #: Number of cores.
    num_cores: int
    #: Number of memory channels.
    num_channels: int
    #: Total instructions executed.
    instructions: int
    #: L1 + L2 accesses.
    l1l2_accesses: int
    #: LLC accesses.
    llc_accesses: int
    #: Blocks transferred over the off-chip bus (reads + writes).
    offchip_blocks: int
    #: DRAM command counts.
    dram_counters: CommandCounters
    #: Whether an in-DRAM cache tag store is present (FIGCache/LISA-VILLA).
    has_tag_store: bool = False


@dataclass(frozen=True)
class SystemEnergyBreakdown:
    """System energy split by component, in nanojoules."""

    cpu_nj: float
    l1l2_nj: float
    llc_nj: float
    offchip_nj: float
    dram_nj: float

    @property
    def total_nj(self) -> float:
        """Total system energy."""
        return (self.cpu_nj + self.l1l2_nj + self.llc_nj + self.offchip_nj
                + self.dram_nj)

    def to_dict(self) -> dict:
        """JSON-serialisable form (used by the persistent result cache)."""
        return {
            "cpu_nj": self.cpu_nj,
            "l1l2_nj": self.l1l2_nj,
            "llc_nj": self.llc_nj,
            "offchip_nj": self.offchip_nj,
            "dram_nj": self.dram_nj,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SystemEnergyBreakdown":
        """Rebuild a breakdown from :meth:`to_dict` output."""
        return cls(cpu_nj=data["cpu_nj"], l1l2_nj=data["l1l2_nj"],
                   llc_nj=data["llc_nj"], offchip_nj=data["offchip_nj"],
                   dram_nj=data["dram_nj"])

    def normalized_to(self, baseline: "SystemEnergyBreakdown") -> dict:
        """Per-component energy normalised to a baseline's total."""
        total = baseline.total_nj
        if total <= 0:
            raise ValueError("baseline energy must be positive")
        return {
            "CPU": self.cpu_nj / total,
            "L1&L2": self.l1l2_nj / total,
            "LLC": self.llc_nj / total,
            "Off-Chip": self.offchip_nj / total,
            "DRAM": self.dram_nj / total,
            "Total": self.total_nj / total,
        }


class SystemEnergyModel:
    """Computes the Figure 11 style system energy breakdown."""

    def __init__(self, params: SystemEnergyParams | None = None):
        self._params = params or SystemEnergyParams()
        self._dram_model = DRAMEnergyModel(self._params.dram)

    @property
    def params(self) -> SystemEnergyParams:
        """The energy parameters in use."""
        return self._params

    def energy(self, activity: SystemActivity) -> SystemEnergyBreakdown:
        """Compute the per-component energy for one simulation."""
        params = self._params
        elapsed_ns = activity.elapsed_ns
        cpu = (params.core_static_mw * 1e-3 * elapsed_ns * activity.num_cores
               + params.core_dynamic_nj_per_instruction
               * activity.instructions)
        l1l2 = (params.l1l2_static_mw * 1e-3 * elapsed_ns * activity.num_cores
                + params.l1l2_nj_per_access * activity.l1l2_accesses)
        llc = (params.llc_static_mw * 1e-3 * elapsed_ns
               + params.llc_nj_per_access * activity.llc_accesses)
        if activity.has_tag_store:
            llc += params.fts_mw * 1e-3 * elapsed_ns
        offchip = (params.offchip_static_mw * 1e-3 * elapsed_ns
                   * activity.num_channels
                   + params.offchip_nj_per_block * activity.offchip_blocks)
        dram = self._dram_model.energy(activity.dram_counters, elapsed_ns,
                                       activity.num_channels).total_nj
        return SystemEnergyBreakdown(cpu_nj=cpu, l1l2_nj=l1l2, llc_nj=llc,
                                     offchip_nj=offchip, dram_nj=dram)
