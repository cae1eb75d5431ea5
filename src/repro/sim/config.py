"""System configuration: the evaluated mechanisms and their DRAM setups.

The paper evaluates six configurations (Section 8), listed in
:data:`CONFIGURATION_NAMES`: Base, LISA-VILLA, FIGCache-Slow,
FIGCache-Fast, FIGCache-Ideal, and LL-DRAM.  Each one is a combination of
a DRAM organization (how many fast subarrays exist, whether every
subarray is fast) and a caching mechanism (none, LISA-VILLA row caching,
or FIGCache with a placement option).  :func:`make_system_config` builds
the right combination by name and :func:`make_mechanism` instantiates its
caching mechanism.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace

from repro.baselines.base import BaseMechanism
from repro.baselines.lisa_villa import LISAVillaConfig, LISAVillaMechanism
from repro.controller.scheduler import SchedulerConfig
from repro.core.figcache import FIGCache, FIGCacheConfig
from repro.core.mechanism import CachingMechanism
from repro.cpu.core import CoreConfig
from repro.dram.config import DRAMConfig
from repro.dram.standards import get_profile
from repro.energy.dram_power import DRAMEnergyParams
from repro.sim.telemetry import DEFAULT_EPOCH_CYCLES, TelemetryConfig


#: The paper's six configurations (Section 8), in presentation order.
CONFIGURATION_NAMES = ("Base", "LISA-VILLA", "FIGCache-Slow", "FIGCache-Fast",
                       "FIGCache-Ideal", "LL-DRAM")


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build one simulated system."""

    #: Configuration name (one of :data:`CONFIGURATION_NAMES`).
    name: str
    #: DRAM organization (includes fast subarray layout).
    dram: DRAMConfig
    #: Core front-end and cache hierarchy configuration.
    core: CoreConfig = field(default_factory=CoreConfig)
    #: Memory controller queue/scheduling configuration.
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    #: FIGCache configuration (only used by FIGCache-* systems).
    figcache: FIGCacheConfig | None = None
    #: LISA-VILLA configuration (only used by the LISA-VILLA system).
    lisa_villa: LISAVillaConfig | None = None
    #: Enable DRAM refresh (tREFI/tRFC).
    refresh_enabled: bool = True
    #: Track per-row activation counts (RowHammer-style analysis only).
    track_row_activations: bool = False
    #: Device-catalog standard the DRAM organization was built from (see
    #: :mod:`repro.dram.standards`).  Redundant with ``dram.standard`` but
    #: kept at the top level so sweeps and cache keys read naturally.
    standard: str = "DDR4-1600"
    #: Per-standard DRAM energy parameters from the device profile; None
    #: falls back to the base DDR4 table.
    dram_energy: DRAMEnergyParams | None = None
    #: Telemetry collection (latency distributions + epoch time series);
    #: None (the default) keeps telemetry off.  Collection is pure
    #: observation, so this knob never changes simulated results — but it
    #: changes what the result *contains*, which is why it is part of the
    #: configuration (and thus of the experiment engine's cache key).
    telemetry: TelemetryConfig | None = None


def config_digest(config: SystemConfig) -> str:
    """Stable content hash of a fully-built system configuration.

    Every field of the configuration (including the nested DRAM organization,
    timings, core, scheduler, and mechanism configs) contributes to the
    digest, so any knob that changes simulated behaviour changes the hash.
    The experiment engine uses this as part of its persistent cache key.
    """
    payload = json.dumps(asdict(config), sort_keys=True,
                         separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def make_mechanism(config: SystemConfig) -> list[CachingMechanism]:
    """Instantiate one caching-mechanism object per channel.

    The mechanism follows the configuration's mechanism config: FIGCache
    or LISA-VILLA when one is set, otherwise none (Base and LL-DRAM).
    """
    channels = range(config.dram.channels)
    if config.figcache is not None:
        return [FIGCache(config.dram, config.figcache) for _ in channels]
    if config.lisa_villa is not None:
        return [LISAVillaMechanism(config.dram, config.lisa_villa)
                for _ in channels]
    return [BaseMechanism() for _ in channels]


def make_system_config(name: str, channels: int = 1,
                       core: CoreConfig | None = None,
                       segment_blocks: int = 16,
                       cache_rows_per_bank: int = 64,
                       fast_subarrays: int = 2,
                       replacement_policy: str = "RowBenefit",
                       insertion_threshold: int = 1,
                       refresh_enabled: bool = True,
                       track_row_activations: bool = False,
                       standard: str = "DDR4-1600",
                       telemetry: bool = False,
                       telemetry_epoch_cycles: int = DEFAULT_EPOCH_CYCLES,
                       dram_overrides: dict | None = None) -> SystemConfig:
    """Build the named configuration (paper Section 8).

    Parameters other than ``name`` and ``channels`` are the sensitivity
    knobs used by the Figure 12–15 studies; the defaults reproduce the
    paper's Table 1 configuration.  ``standard`` selects a device-catalog
    profile (:mod:`repro.dram.standards`) — organization, timing table,
    refresh mode, and energy parameters — with ``"DDR4-1600"`` being
    bit-identical to the historical defaults.  ``telemetry=True`` attaches
    a :class:`~repro.sim.telemetry.TelemetryConfig` sampling every
    ``telemetry_epoch_cycles`` cycles; telemetry never changes simulated
    results, only what the result reports.  A cache configuration that
    does not fit the DRAM organization (for example a segment size that
    does not divide the row) raises ``ValueError`` here, so a job's key
    already rejects it, before any worker runs.
    """
    if name not in CONFIGURATION_NAMES:
        raise ValueError(f"unknown configuration {name!r}; choose one of "
                         f"{CONFIGURATION_NAMES}")
    core = core or CoreConfig()
    profile = get_profile(standard)
    dram = DRAMConfig.from_profile(profile, channels=channels)
    if dram_overrides:
        dram = replace(dram, **dram_overrides)

    figcache_config: FIGCacheConfig | None = None
    lisa_config: LISAVillaConfig | None = None
    if name == "LL-DRAM":
        dram = replace(dram, all_subarrays_fast=True)
    elif name == "LISA-VILLA":
        lisa_config = LISAVillaConfig()
        dram = replace(
            dram,
            fast_subarrays_per_bank=lisa_config.fast_subarrays_per_bank,
            rows_per_fast_subarray=32)
        lisa_config.validate(dram)
    elif name.startswith("FIGCache-"):
        placement = name.removeprefix("FIGCache-").lower()
        if placement != "slow":
            rows_per_fast = 32
            needed_fast_subarrays = max(
                fast_subarrays,
                -(-cache_rows_per_bank // rows_per_fast))  # ceiling
            dram = replace(dram,
                           fast_subarrays_per_bank=needed_fast_subarrays,
                           rows_per_fast_subarray=rows_per_fast)
        figcache_config = FIGCacheConfig(
            segment_blocks=segment_blocks,
            cache_rows_per_bank=cache_rows_per_bank,
            placement=placement,
            replacement_policy=replacement_policy,
            insertion_threshold=insertion_threshold)
        figcache_config.validate(dram)

    telemetry_config = TelemetryConfig(epoch_cycles=telemetry_epoch_cycles) \
        if telemetry else None
    return SystemConfig(name=name, dram=dram, core=core,
                        figcache=figcache_config, lisa_villa=lisa_config,
                        refresh_enabled=refresh_enabled,
                        track_row_activations=track_row_activations,
                        standard=standard, dram_energy=profile.energy,
                        telemetry=telemetry_config)
