"""System configuration: the evaluated mechanisms and their DRAM setups.

The paper evaluates six configurations (Section 8): Base, LISA-VILLA,
FIGCache-Slow, FIGCache-Fast, FIGCache-Ideal, and LL-DRAM.  Each one is a
combination of a DRAM organization (how many fast subarrays exist, whether
every subarray is fast) and a caching mechanism (none, LISA-VILLA row
caching, or FIGCache with a placement option).

Configurations live in a registry (mirroring
:func:`repro.dram.standards.register_profile`): each
:class:`ConfigurationSpec` couples a mechanism factory with an optional
``prepare`` hook that adjusts the DRAM organization and mechanism configs
for that configuration.  :func:`register_configuration` adds
project-specific configurations at runtime; :data:`CONFIGURATION_NAMES` is
derived from the registry rather than hand-maintained.
:func:`make_system_config` builds the right combination by name.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

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


@dataclass(frozen=True)
class MechanismKnobs:
    """The sensitivity knobs a configuration's ``prepare`` hook may use.

    These are the Figure 12–15 sweep parameters of
    :func:`make_system_config`; bundling them keeps the ``prepare``
    signature stable when knobs are added.
    """

    segment_blocks: int = 16
    cache_rows_per_bank: int = 64
    fast_subarrays: int = 2
    replacement_policy: str = "RowBenefit"
    insertion_threshold: int = 1


@dataclass(frozen=True)
class ConfigurationSpec:
    """One registered system configuration.

    ``prepare(dram, knobs)`` returns the possibly-adjusted
    ``(dram, figcache_config, lisa_villa_config)`` triple used to build
    the :class:`SystemConfig`; ``mechanism_factory(config)`` instantiates
    one per-channel caching mechanism for a built configuration.
    """

    name: str
    mechanism_factory: Callable[["SystemConfig"], CachingMechanism]
    prepare: Callable[[DRAMConfig, MechanismKnobs],
                      tuple[DRAMConfig, FIGCacheConfig | None,
                            LISAVillaConfig | None]] | None = None
    description: str = ""


#: Registered configurations by name, in registration (presentation)
#: order.  The paper's six configurations are registered below; runtime
#: extensions go through :func:`register_configuration`.
MECHANISM_REGISTRY: dict[str, ConfigurationSpec] = {}


def register_configuration(name: str,
                           mechanism_factory: Callable,
                           prepare: Callable | None = None,
                           description: str = "") -> ConfigurationSpec:
    """Register a system configuration (extension point).

    Mirrors :func:`repro.dram.standards.register_profile`: after
    registration the configuration is buildable with
    :func:`make_system_config`, listed by :func:`configuration_names`, and
    usable anywhere a configuration name is accepted.  Re-registering an
    existing name is rejected to keep experiment identities stable.
    """
    if name in MECHANISM_REGISTRY:
        raise ValueError(f"configuration {name!r} is already registered")
    spec = ConfigurationSpec(name=name, mechanism_factory=mechanism_factory,
                             prepare=prepare, description=description)
    MECHANISM_REGISTRY[name] = spec
    return spec


def configuration_names() -> tuple[str, ...]:
    """Every registered configuration name, in registration order."""
    return tuple(MECHANISM_REGISTRY)


# ----------------------------------------------------------------------
# The paper's six configurations (Section 8).
# ----------------------------------------------------------------------
def _prepare_ll_dram(dram, knobs):
    del knobs
    return replace(dram, all_subarrays_fast=True), None, None


def _prepare_lisa_villa(dram, knobs):
    del knobs
    lisa_config = LISAVillaConfig()
    dram = replace(
        dram,
        fast_subarrays_per_bank=lisa_config.fast_subarrays_per_bank,
        rows_per_fast_subarray=32)
    return dram, None, lisa_config


def _prepare_figcache(placement: str):
    """Build a ``prepare`` hook for one FIGCache placement option."""
    def prepare(dram, knobs):
        if placement != "slow":
            rows_per_fast = 32
            needed_fast_subarrays = max(
                knobs.fast_subarrays,
                -(-knobs.cache_rows_per_bank // rows_per_fast))  # ceiling
            dram = replace(dram,
                           fast_subarrays_per_bank=needed_fast_subarrays,
                           rows_per_fast_subarray=rows_per_fast)
        figcache_config = FIGCacheConfig(
            segment_blocks=knobs.segment_blocks,
            cache_rows_per_bank=knobs.cache_rows_per_bank,
            placement=placement,
            replacement_policy=knobs.replacement_policy,
            insertion_threshold=knobs.insertion_threshold)
        return dram, figcache_config, None
    return prepare


def _base_mechanism(config: "SystemConfig") -> CachingMechanism:
    del config
    return BaseMechanism()


def _lisa_villa_mechanism(config: "SystemConfig") -> CachingMechanism:
    return LISAVillaMechanism(config.dram, config.lisa_villa)


def _figcache_mechanism(config: "SystemConfig") -> CachingMechanism:
    return FIGCache(config.dram, config.figcache)


register_configuration(
    "Base", _base_mechanism,
    description="conventional DRAM, no in-DRAM cache")
register_configuration(
    "LISA-VILLA", _lisa_villa_mechanism, _prepare_lisa_villa,
    description="LISA row-granularity in-DRAM cache baseline")
register_configuration(
    "FIGCache-Slow", _figcache_mechanism, _prepare_figcache("slow"),
    description="FIGCache with cache rows in normal (slow) subarrays")
register_configuration(
    "FIGCache-Fast", _figcache_mechanism, _prepare_figcache("fast"),
    description="FIGCache with cache rows in fast subarrays")
register_configuration(
    "FIGCache-Ideal", _figcache_mechanism, _prepare_figcache("ideal"),
    description="FIGCache with idealised placement")
register_configuration(
    "LL-DRAM", _base_mechanism, _prepare_ll_dram,
    description="every subarray fast, no caching (latency upper bound)")

#: Names of the built-in configurations, in presentation order — derived
#: from the registry at import (a snapshot, mirroring
#: ``standards.STANDARD_NAMES``; consumers that must see
#: runtime-registered configurations too should call
#: :func:`configuration_names` instead).
CONFIGURATION_NAMES = configuration_names()


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build one simulated system."""

    #: Configuration name (a :data:`MECHANISM_REGISTRY` key).
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


def _registry_spec(name: str) -> ConfigurationSpec:
    spec = MECHANISM_REGISTRY.get(name)
    if spec is None:
        raise ValueError(f"unknown configuration {name!r}; choose one of "
                         f"{configuration_names()}")
    return spec


def make_mechanism(config: SystemConfig) -> list[CachingMechanism]:
    """Instantiate one caching-mechanism object per channel."""
    spec = _registry_spec(config.name)
    return [spec.mechanism_factory(config)
            for _ in range(config.dram.channels)]


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
    results, only what the result reports.
    """
    spec = _registry_spec(name)
    core = core or CoreConfig()
    profile = get_profile(standard)
    dram = DRAMConfig.from_profile(profile, channels=channels)
    if dram_overrides:
        dram = replace(dram, **dram_overrides)

    figcache_config: FIGCacheConfig | None = None
    lisa_config: LISAVillaConfig | None = None
    if spec.prepare is not None:
        knobs = MechanismKnobs(segment_blocks=segment_blocks,
                               cache_rows_per_bank=cache_rows_per_bank,
                               fast_subarrays=fast_subarrays,
                               replacement_policy=replacement_policy,
                               insertion_threshold=insertion_threshold)
        dram, figcache_config, lisa_config = spec.prepare(dram, knobs)

    telemetry_config = TelemetryConfig(epoch_cycles=telemetry_epoch_cycles) \
        if telemetry else None
    return SystemConfig(name=name, dram=dram, core=core,
                        figcache=figcache_config, lisa_villa=lisa_config,
                        refresh_enabled=refresh_enabled,
                        track_row_activations=track_row_activations,
                        standard=standard, dram_energy=profile.energy,
                        telemetry=telemetry_config)
