"""System assembly and the event-driven simulation loop.

* :mod:`repro.sim.config` — :class:`SystemConfig` ties together the DRAM
  organization, the caching mechanism, the core configuration, and the
  workload scaling knobs; configurations live in a registry
  (:func:`register_configuration`) with named constructors for every
  configuration the paper evaluates (Base, LISA-VILLA, FIGCache-Slow/-Fast/
  -Ideal, LL-DRAM).
* :mod:`repro.sim.system` — builds a :class:`System` (cores + caches +
  DRAM + one controller and mechanism per channel) from a configuration
  and a set of traces.
* :mod:`repro.sim.simulator` — the global event loop co-simulating the cores
  and the memory system.
* :mod:`repro.sim.metrics` — :class:`SimulationResult` with IPC, weighted
  speedup, in-DRAM cache hit rate, row-buffer hit rate, and energy.
* :mod:`repro.sim.telemetry` — the unified telemetry layer: per-request
  latency distributions (exact p50/p95/p99/max), epoch-sampled time
  series, and pluggable probes (see ``docs/telemetry.md``).
"""

from repro.sim.config import (CONFIGURATION_NAMES, MECHANISM_REGISTRY,
                              ConfigurationSpec, SystemConfig,
                              configuration_names, make_mechanism,
                              make_system_config, register_configuration)
from repro.sim.metrics import SimulationResult, weighted_speedup
from repro.sim.simulator import Simulator
from repro.sim.system import System, run_workload
from repro.sim.telemetry import (LatencyHistogram, Telemetry,
                                 TelemetryConfig, TelemetryResult)

__all__ = [
    "CONFIGURATION_NAMES",
    "ConfigurationSpec",
    "LatencyHistogram",
    "MECHANISM_REGISTRY",
    "SimulationResult",
    "Simulator",
    "System",
    "SystemConfig",
    "Telemetry",
    "TelemetryConfig",
    "TelemetryResult",
    "configuration_names",
    "make_mechanism",
    "make_system_config",
    "register_configuration",
    "run_workload",
    "weighted_speedup",
]
