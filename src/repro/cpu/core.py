"""Trace-driven core model.

Each core replays a trace of :class:`~repro.workloads.trace.TraceRecord`
entries.  A record describes a burst of non-memory instructions (``bubbles``)
followed by one memory instruction.  The core model enforces the paper's
Table 1 front-end constraints:

* up to ``issue_width`` instructions issue per cycle;
* at most ``window_size`` instructions may be in flight past the oldest
  unresolved LLC load miss (the 256-entry instruction window);
* at most ``mshr_entries`` cache-block misses may be outstanding at once.

Cache hits are (mostly) hidden by out-of-order execution; only LLC misses
interact with the memory system.  The model is event-driven: the simulator
calls :meth:`TraceCore.run_requests` to let the core issue work until it
must stall or finishes (it returns the issued requests as plain
``(issue_cycle, address, is_write)`` tuples; :attr:`TraceCore.finished`
tells which of the two stopped it), and :meth:`TraceCore.notify_completion`
when one of its memory requests completes.

Nothing the memory system does reaches back into the caches, so a trace's
hierarchy outcome depends only on its records, the issue width and the
:class:`~repro.cpu.hierarchy.HierarchyConfig`: :func:`compile_trace`
simulates it once per trace and process, and every core replaying that
trace shares the result, fetched on the core's first
:meth:`TraceCore.run_requests`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from repro.cpu.hierarchy import CacheHierarchy, HierarchyConfig
from repro.cpu.mshr import MSHRFile
from repro.workloads.trace import TraceRecord


@dataclass(frozen=True)
class CoreConfig:
    """Core front-end parameters (paper Table 1 defaults)."""

    issue_width: int = 3
    window_size: int = 256
    mshr_entries: int = 8
    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)


@dataclass(slots=True)
class CoreStats:
    """Per-core statistics gathered during simulation."""

    instructions: int = 0
    memory_instructions: int = 0
    llc_miss_loads: int = 0
    llc_miss_stores: int = 0
    writebacks: int = 0
    stall_cycles_window: int = 0
    stall_cycles_mshr: int = 0
    finish_cycle: int = 0

    def ipc(self) -> float:
        """Instructions per cycle over the whole run."""
        if self.finish_cycle <= 0:
            return 0.0
        return self.instructions / self.finish_cycle


#: Compiled traces kept per process, least recently used dropped first
#: (every figure runs each trace under three or more configurations).
COMPILED_TRACE_CAPACITY = 16


class CompiledTrace(NamedTuple):
    """A trace's cache-hierarchy outcome; shared by cores, so immutable."""

    #: Per record: (issue cycles plus exposed hit latency, instructions,
    #: address, is_write, LLC miss, dirty LLC victims evicted).
    records: tuple[tuple[int, int, int, bool, bool, tuple[int, ...]], ...]
    #: ``(hits, misses, writebacks)`` of L1, L2 and the LLC.
    levels: tuple[tuple[int, int, int], ...]
    accesses: int
    llc_misses: int


@lru_cache(maxsize=COMPILED_TRACE_CAPACITY)
def compile_trace(records: tuple[TraceRecord, ...], issue_width: int,
                  hierarchy: HierarchyConfig) -> CompiledTrace:
    """Run ``records`` through a fresh cache hierarchy.

    Keyed on the records' contents (records compare by value), never on a
    trace list's identity: its owner may mutate it.
    """
    caches = CacheHierarchy(hierarchy)
    access = caches.access
    compiled = []
    for record in records:
        bubbles, address, is_write = \
            record.bubbles, record.address, record.is_write
        result = access(address, is_write)
        compiled.append((max((bubbles + issue_width) // issue_width, 1)
                         + result.exposed_latency, bubbles + 1, address,
                         is_write, result.needs_memory, result.writebacks))
    return CompiledTrace(
        records=tuple(compiled),
        levels=tuple((cache.hits, cache.misses, cache.writebacks)
                     for cache in (caches.l1, caches.l2, caches.llc)),
        accesses=caches.accesses, llc_misses=caches.llc_misses)


class TraceCore:
    """One trace-driven core."""

    __slots__ = ('core_id', '_trace', '_config', 'hierarchy', 'mshrs',
                 'stats', '_window_size', '_block_mask', '_mshr_entries',
                 '_mshr_capacity', '_mshr_shift', '_run_hot',
                 '_trace_length', '_core_cycle', '_next_record',
                 '_issued_instructions', '_outstanding', '_finished')

    def __init__(self, core_id: int, trace: list[TraceRecord],
                 config: CoreConfig | None = None):
        self.core_id = core_id
        self._trace = trace
        self._config = config or CoreConfig()
        #: Carries the compiled trace's counters once the core has run;
        #: its sets stay empty (see :func:`compile_trace`).
        self.hierarchy = CacheHierarchy(self._config.hierarchy)
        block_size = self._config.hierarchy.l1.block_size_bytes
        # MSHRs track misses per cache block, the granularity at which
        # notify_completion matches completions to outstanding misses.
        self.mshrs = MSHRFile(self._config.mshr_entries, block_size)
        self.stats = CoreStats()
        # Hot-path constants hoisted out of the per-record loop.
        self._window_size = self._config.window_size
        self._block_mask = ~(block_size - 1)
        self._mshr_entries = self.mshrs.entries
        self._mshr_capacity = self.mshrs.num_entries
        self._mshr_shift = self.mshrs._offset_bits
        self._trace_length = len(trace)
        #: Core-local clock: the cycle up to which the core has issued work.
        self._core_cycle = 0
        #: Index of the next trace record to execute.
        self._next_record = 0
        #: Instructions issued so far (program-order position).
        self._issued_instructions = 0
        #: Outstanding LLC load misses, in program order, each a plain
        #: ``(address, instruction_position, blocks_window)`` tuple: the
        #: missed address, the instruction count (program-order position)
        #: at which it issued, and whether the window cannot retire past it
        #: (demand loads).
        self._outstanding: list[tuple[int, int, bool]] = []
        self._finished = False
        #: Everything the issue loop needs, as one tuple, built with the
        #: compiled trace on the first run: :meth:`run_requests` is called
        #: once per unblocking completion and often issues only a couple of
        #: records, so its fixed setup cost (a dozen attribute loads)
        #: matters; one load plus an unpack is cheaper.
        self._run_hot: tuple | None = None

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def config(self) -> CoreConfig:
        """Core front-end configuration."""
        return self._config

    @property
    def finished(self) -> bool:
        """True when the whole trace has been executed."""
        return self._finished

    @property
    def core_cycle(self) -> int:
        """The core's local clock (cycles of issued work)."""
        return self._core_cycle

    @property
    def trace_length(self) -> int:
        """Number of records in the core's trace."""
        return len(self._trace)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def run_requests(self, now: int) -> list[tuple[int, int, bool]]:
        """Issue work starting at cycle ``now`` until a stall or completion.

        Returns the memory requests issued, in issue order, each a plain
        ``(issue_cycle, address, is_write)`` tuple; issue cycles are all
        >= ``now``.  The caller is responsible for delivering them to the
        memory controller at those times and for calling
        :meth:`notify_completion` when each read completes.  Afterwards
        :attr:`finished` tells whether the core executed its whole trace;
        otherwise it stalled, waiting for a completion.
        """
        if self._finished:
            return []
        hot = self._run_hot or self._load_compiled_trace()
        if now > self._core_cycle:
            self._core_cycle = now
        requests: list[tuple[int, int, bool]] = []

        # The whole issue loop runs on locals (written back before every
        # return): it executes once per trace record, and both a method
        # call per record and repeated attribute loads are measurable.  The
        # loop head stalls when the MSHRs are full or the oldest blocking
        # miss is ``window_size`` instructions behind.
        (records, trace_length, mshr_entries, mshr_capacity, outstanding,
         window_size, mshrs, mshr_shift, run_stats) = hot
        next_record = self._next_record
        core_cycle = self._core_cycle
        issued_instructions = self._issued_instructions
        # Statistics accumulate in locals and flush once after the loop.
        new_instructions = 0
        new_memory_instructions = 0
        new_writebacks = 0
        new_miss_loads = 0
        new_miss_stores = 0
        stalled = False
        while next_record < trace_length:
            if len(mshr_entries) >= mshr_capacity:
                stalled = True
                break
            if outstanding:
                _, oldest_position, oldest_blocks = outstanding[0]
                if oldest_blocks \
                        and (issued_instructions
                             - oldest_position) >= window_size:
                    stalled = True
                    break
            (cycles, instructions, address, is_write, needs_memory,
             writebacks) = records[next_record]
            next_record += 1

            core_cycle += cycles
            issued_instructions += instructions
            new_instructions += instructions
            new_memory_instructions += 1

            for writeback_address in writebacks:
                new_writebacks += 1
                requests.append((core_cycle, writeback_address, True))
            if not needs_memory:
                continue

            # Inline MSHRFile.allocate: the loop head guarantees a free
            # entry, so the full-file error path cannot trigger here.
            block = address >> mshr_shift
            merged_count = mshr_entries.get(block)
            if merged_count is None:
                mshr_entries[block] = 1
                mshrs.allocations += 1
                new_entry = True
            else:
                mshr_entries[block] = merged_count + 1
                mshrs.merges += 1
                new_entry = False
            if is_write:
                new_miss_stores += 1
            else:
                new_miss_loads += 1
            if new_entry:
                requests.append((core_cycle, address, False))
                outstanding.append((address, issued_instructions,
                                    not is_write))
            elif not is_write:
                # The miss merged into an existing MSHR; the load still
                # blocks the window on the earlier request's completion.
                outstanding.append((address, issued_instructions, True))
        self._next_record = next_record
        self._core_cycle = core_cycle
        self._issued_instructions = issued_instructions
        run_stats.instructions += new_instructions
        run_stats.memory_instructions += new_memory_instructions
        run_stats.writebacks += new_writebacks
        run_stats.llc_miss_loads += new_miss_loads
        run_stats.llc_miss_stores += new_miss_stores
        if not stalled and not outstanding:
            self._retire()
        return requests

    def notify_completion(self, address: int, completion_cycle: int) -> bool:
        """A read request issued by this core completed.

        Returns True when the core can now make progress (the caller should
        schedule a :meth:`run_requests` at ``completion_cycle``).  The core's clock is
        only advanced when this completion is what the core was waiting for;
        a younger miss returning early does not release an older window
        stall.
        """
        block_mask = self._block_mask
        block = address & block_mask
        outstanding = self._outstanding
        # ``miss[0]`` is the outstanding miss's address.
        kept = [miss for miss in outstanding
                if (miss[0] & block_mask) != block]
        if len(kept) == len(outstanding):
            return False
        # The issue loop's stall checks, once against the state before the
        # completion is applied and once after.
        mshr_entries = self._mshr_entries
        window_size = self._window_size
        _, oldest_position, oldest_blocks = outstanding[0]
        stalled_before = len(mshr_entries) >= self._mshr_capacity \
            or (oldest_blocks
                and (self._issued_instructions
                     - oldest_position) >= window_size)
        # In-place so aliases of the outstanding list stay valid.
        outstanding[:] = kept
        # Inline MSHRFile.release (the entry must exist: an outstanding
        # miss for the block implies a live MSHR).
        del mshr_entries[address >> self._mshr_shift]

        if kept:
            _, oldest_position, oldest_blocks = kept[0]
            can_progress = not (oldest_blocks
                                and (self._issued_instructions
                                     - oldest_position) >= window_size)
        else:
            can_progress = True
        if can_progress and completion_cycle > self._core_cycle:
            # The core could not issue past this point until the data came
            # back; charge the wait as stall time and advance the clock.
            stall = completion_cycle - self._core_cycle
            if stalled_before and self.mshrs.occupancy + 1 >= self.mshrs.capacity:
                self.stats.stall_cycles_mshr += stall
            else:
                self.stats.stall_cycles_window += stall
            self._core_cycle = completion_cycle
        if self._next_record >= self._trace_length and not self._outstanding:
            self._retire()
        return can_progress and not self._finished

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------
    def _load_compiled_trace(self) -> tuple:
        """Fetch the compiled trace, add its counters to :attr:`hierarchy`
        (the energy model reads them) and build the issue loop state."""
        config = self._config
        compiled = compile_trace(tuple(self._trace), config.issue_width,
                                 config.hierarchy)
        hierarchy = self.hierarchy
        for cache, (hits, misses, writebacks) in zip(
                (hierarchy.l1, hierarchy.l2, hierarchy.llc), compiled.levels):
            cache.hits += hits
            cache.misses += misses
            cache.writebacks += writebacks
        hierarchy.accesses += compiled.accesses
        hierarchy.llc_misses += compiled.llc_misses
        self._trace_length = len(compiled.records)
        self._run_hot = (compiled.records, self._trace_length,
                         self._mshr_entries, self._mshr_capacity,
                         self._outstanding, self._window_size, self.mshrs,
                         self._mshr_shift, self.stats)
        return self._run_hot

    def _retire(self) -> None:
        self._finished = True
        self.stats.finish_cycle = self._core_cycle
