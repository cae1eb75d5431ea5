"""Per-core cache hierarchy (L1 / L2 / LLC).

The hierarchy filters the core's memory instructions: only LLC misses and
dirty LLC writebacks reach the memory controller.  Latency at each level is
charged to the core as a (small) exposed hit cost; out-of-order execution is
assumed to hide the rest, which is the usual first-order approximation for
trace-driven memory-system studies.

The memory system's timing never reaches the hierarchy, so
:func:`repro.cpu.core.compile_trace` runs it once per trace and process
rather than once per record of every simulated system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.cache import CacheConfig, SetAssociativeCache


@dataclass(frozen=True)
class HierarchyConfig:
    """Cache hierarchy configuration.

    The paper's Table 1 uses a 64 kB 4-way L1, a 256 kB 8-way L2, and a
    2 MB/core 16-way LLC.  The reproduction's default scales each level down
    (the synthetic traces are correspondingly smaller than the paper's
    billion-instruction traces); the paper-sized hierarchy is available via
    :meth:`paper_table1`.
    """

    l1: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=16 * 1024, associativity=4, hit_latency_cycles=0))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=64 * 1024, associativity=8, hit_latency_cycles=3))
    llc: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=256 * 1024, associativity=16, hit_latency_cycles=8))

    def __post_init__(self) -> None:
        sizes = {self.l1.block_size_bytes, self.l2.block_size_bytes,
                 self.llc.block_size_bytes}
        if len(sizes) != 1:
            raise ValueError("L1, L2 and LLC must share one block size, got "
                             f"{sorted(sizes)} B")

    @classmethod
    def paper_table1(cls) -> "HierarchyConfig":
        """The paper's full-size per-core hierarchy."""
        return cls(
            l1=CacheConfig(size_bytes=64 * 1024, associativity=4,
                           hit_latency_cycles=0),
            l2=CacheConfig(size_bytes=256 * 1024, associativity=8,
                           hit_latency_cycles=3),
            llc=CacheConfig(size_bytes=2 * 1024 * 1024, associativity=16,
                            hit_latency_cycles=8),
        )


@dataclass(frozen=True, slots=True)
class HierarchyAccess:
    """Outcome of pushing one memory instruction through the hierarchy.

    Immutable — the hierarchy returns shared instances for the common
    no-writeback outcomes.
    """

    #: Level that served the access: ``L1``, ``L2``, ``LLC``, or ``memory``.
    level: str
    #: Exposed latency charged to the core for cache hits (cycles).
    exposed_latency: int
    #: True when a request must be sent to the memory controller.
    needs_memory: bool
    #: Block-aligned addresses of dirty LLC blocks evicted by this access.
    writebacks: tuple[int, ...] = ()


class CacheHierarchy:
    """Three-level private cache hierarchy for one core."""

    __slots__ = ('_config', 'l1', 'l2', 'llc', 'accesses', 'llc_misses',
                 '_l1_hit', '_l2_hit', '_llc_hit', '_memory_miss')

    def __init__(self, config: HierarchyConfig | None = None):
        self._config = config or HierarchyConfig()
        self.l1 = SetAssociativeCache(self._config.l1)
        self.l2 = SetAssociativeCache(self._config.l2)
        self.llc = SetAssociativeCache(self._config.llc)
        self.accesses = 0
        self.llc_misses = 0
        # Shared results for the writeback-free outcomes (the vast majority
        # of accesses): one immutable instance per (level, latency) pair.
        config = self._config
        self._l1_hit = HierarchyAccess(
            level="L1", exposed_latency=config.l1.hit_latency_cycles,
            needs_memory=False)
        self._l2_hit = HierarchyAccess(
            level="L2", exposed_latency=config.l2.hit_latency_cycles,
            needs_memory=False)
        self._llc_hit = HierarchyAccess(
            level="LLC", exposed_latency=config.llc.hit_latency_cycles,
            needs_memory=False)
        self._memory_miss = HierarchyAccess(
            level="memory", exposed_latency=config.llc.hit_latency_cycles,
            needs_memory=True)

    @property
    def config(self) -> HierarchyConfig:
        """The hierarchy configuration."""
        return self._config

    def access(self, address: int, is_write: bool) -> HierarchyAccess:
        """Push one memory instruction through L1, L2, and the LLC."""
        self.accesses += 1
        result = self.l1.access(address, is_write)
        if result.hit:
            return self._l1_hit
        writebacks: list[int] = []
        # L1 victim writebacks are absorbed by L2 (modelled as L2 writes).
        if result.writeback_address is not None:
            self._fill_lower(self.l2, result.writeback_address, dirty=True,
                             writebacks=writebacks)

        result = self.l2.access(address, is_write)
        if result.hit:
            # Writebacks triggered by the L1-victim fill are absorbed here,
            # matching the original model: an L2 hit never surfaces them.
            return self._l2_hit
        if result.writeback_address is not None:
            self._fill_lower(self.llc, result.writeback_address, dirty=True,
                             writebacks=writebacks)

        result = self.llc.access(address, is_write)
        if result.hit:
            if not writebacks:
                return self._llc_hit
            return HierarchyAccess(
                level="LLC",
                exposed_latency=self._config.llc.hit_latency_cycles,
                needs_memory=False, writebacks=tuple(writebacks))
        if result.writeback_address is not None:
            writebacks.append(result.writeback_address)
        self.llc_misses += 1
        if not writebacks:
            return self._memory_miss
        return HierarchyAccess(
            level="memory",
            exposed_latency=self._config.llc.hit_latency_cycles,
            needs_memory=True, writebacks=tuple(writebacks))

    def _fill_lower(self, cache: SetAssociativeCache, address: int,
                    dirty: bool, writebacks: list[int]) -> None:
        """Install a victim block into the next lower level."""
        result = cache.access(address, dirty)
        if result.writeback_address is not None:
            if cache is self.l2:
                self._fill_lower(self.llc, result.writeback_address,
                                 dirty=True, writebacks=writebacks)
            else:
                writebacks.append(result.writeback_address)
