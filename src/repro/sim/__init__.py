"""System assembly and the event-driven simulation loop.

* :mod:`repro.sim.config` — :class:`SystemConfig` ties together the DRAM
  organization, the caching mechanism, the core configuration, and the
  sensitivity knobs; :func:`make_system_config` builds each of the six
  configurations the paper evaluates (:data:`CONFIGURATION_NAMES`: Base,
  LISA-VILLA, FIGCache-Slow/-Fast/-Ideal, LL-DRAM) by name.
* :mod:`repro.sim.system` — builds a :class:`System` (cores + caches +
  DRAM + one controller and mechanism per channel) from a configuration
  and a set of traces.
* :mod:`repro.sim.simulator` — the global event loop co-simulating the cores
  and the memory system.
* :mod:`repro.sim.metrics` — :class:`SimulationResult` with IPC, weighted
  speedup, in-DRAM cache hit rate, row-buffer hit rate, and energy.
* :mod:`repro.sim.telemetry` — the unified telemetry layer: per-request
  latency distributions (exact p50/p95/p99/max) and epoch-sampled time
  series (see ``docs/telemetry.md``).
"""

from repro.sim.config import (CONFIGURATION_NAMES, SystemConfig,
                              make_mechanism, make_system_config)
from repro.sim.metrics import SimulationResult, weighted_speedup
from repro.sim.simulator import Simulator
from repro.sim.system import System, run_workload
from repro.sim.telemetry import (LatencyHistogram, Telemetry,
                                 TelemetryConfig, TelemetryResult)

__all__ = [
    "CONFIGURATION_NAMES",
    "LatencyHistogram",
    "SimulationResult",
    "Simulator",
    "System",
    "SystemConfig",
    "Telemetry",
    "TelemetryConfig",
    "TelemetryResult",
    "make_mechanism",
    "make_system_config",
    "run_workload",
    "weighted_speedup",
]
