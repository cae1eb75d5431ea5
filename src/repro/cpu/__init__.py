"""Processor-side substrate: cores, MSHRs, and the cache hierarchy.

The paper drives its DRAM simulator with Pin-collected application traces
fed through an in-house processor model (3-wide cores, 256-entry instruction
windows, 8 MSHRs per core, and a three-level cache hierarchy).  This package
provides the equivalent substrate for the reproduction:

* :mod:`repro.cpu.cache` — set-associative, write-back, write-allocate
  caches with LRU replacement.
* :mod:`repro.cpu.hierarchy` — the per-core L1/L2/LLC stack, producing
  memory requests for LLC misses and dirty writebacks.
* :mod:`repro.cpu.mshr` — miss-status holding registers limiting the number
  of outstanding misses per core.
* :mod:`repro.cpu.core` — the trace-driven core model with issue-width and
  instruction-window constraints, replaying compiled traces.
"""

from repro.cpu.cache import CacheConfig, SetAssociativeCache
from repro.cpu.core import CoreConfig, CoreStats, TraceCore
from repro.cpu.hierarchy import CacheHierarchy, HierarchyAccess, HierarchyConfig
from repro.cpu.mshr import MSHRFile

__all__ = [
    "CacheConfig",
    "CacheHierarchy",
    "CoreConfig",
    "CoreStats",
    "HierarchyAccess",
    "HierarchyConfig",
    "MSHRFile",
    "SetAssociativeCache",
    "TraceCore",
]
