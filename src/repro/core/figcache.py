"""FIGCache: the fine-grained in-DRAM cache built on FIGARO.

FIGCache (paper Section 5) caches *row segments* — contiguous groups of
cache blocks, 1/8 of a row by default — in a small number of cache rows per
bank.  The cache rows can live in dedicated fast subarrays (FIGCache-Fast),
in reserved rows of an ordinary slow subarray (FIGCache-Slow), or be served
with zero relocation cost (FIGCache-Ideal, an idealised upper bound).

The memory-controller-side state is the FIGCache Tag Store
(:class:`repro.core.tag_store.FigTagStore`), one per bank.  On every demand
request the controller looks up the FTS:

* **Hit** — the request is redirected to the cache row slot holding the
  segment; the entry's benefit counter is bumped; writes set the dirty bit.
* **Miss** — the request is served from its original row.  The insertion
  policy then decides whether to relocate the missed segment into the cache
  (insert-any-miss by default).  If the cache is full, the replacement
  policy picks a victim (RowBenefit by default); dirty victims are written
  back to their source rows with FIGARO relocations before the new segment
  is relocated in.  Because the demand access has just opened the source
  row, the insertion relocation skips the initial ACTIVATE (Section 8.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.insertion import InsertionPolicy, make_insertion_policy
from repro.core.mechanism import CachingMechanism, ServiceResult
from repro.core.replacement import ReplacementPolicy, make_replacement_policy
from repro.core.tag_store import FigTagStore
from repro.dram.address import DecodedAddress
from repro.dram.channel import Channel
from repro.dram.config import DRAMConfig


@dataclass(frozen=True)
class FIGCacheConfig:
    """Configuration of the FIGCache mechanism (paper Table 1 defaults)."""

    #: Number of cache blocks per row segment (16 blocks = 1 kB = 1/8 row).
    segment_blocks: int = 16
    #: In-DRAM cache rows per bank (64 rows in the paper).
    cache_rows_per_bank: int = 64
    #: Where cache rows live: ``fast`` (dedicated fast subarrays), ``slow``
    #: (reserved rows in a regular subarray), or ``ideal`` (fast subarrays
    #: with zero-cost relocation — the FIGCache-Ideal configuration).
    placement: str = "fast"
    #: Replacement policy name (RowBenefit, SegmentBenefit, LRU, Random).
    replacement_policy: str = "RowBenefit"
    #: Miss-count threshold for insertion (1 = insert-any-miss).
    insertion_threshold: int = 1
    #: Benefit counter width in bits.
    benefit_bits: int = 5
    #: Seed for the Random replacement policy.
    seed: int = 0

    def validate(self, dram: DRAMConfig) -> None:
        """Check that this cache configuration fits the DRAM organization."""
        if self.placement not in ("fast", "slow", "ideal"):
            raise ValueError(
                f"placement must be 'fast', 'slow', or 'ideal', "
                f"got {self.placement!r}")
        if self.segment_blocks <= 0 \
                or dram.blocks_per_row % self.segment_blocks != 0:
            raise ValueError(
                f"segment_blocks ({self.segment_blocks}) must divide the "
                f"blocks per row ({dram.blocks_per_row})")
        if self.cache_rows_per_bank <= 0:
            raise ValueError("cache_rows_per_bank must be positive")
        if self.placement in ("fast", "ideal"):
            if dram.fast_rows_per_bank < self.cache_rows_per_bank:
                raise ValueError(
                    f"placement {self.placement!r} needs at least "
                    f"{self.cache_rows_per_bank} fast rows per bank, but the "
                    f"DRAM configuration provides {dram.fast_rows_per_bank}")
        else:
            if dram.rows_per_subarray < self.cache_rows_per_bank:
                raise ValueError(
                    "slow placement reserves cache rows inside one subarray; "
                    f"{self.cache_rows_per_bank} rows do not fit in a "
                    f"{dram.rows_per_subarray}-row subarray")


@dataclass
class _BankCache:
    """Per-bank cache state: tag store, policies, and row id mapping."""

    tags: FigTagStore
    replacement: ReplacementPolicy
    insertion: InsertionPolicy
    #: Bank-level row ids of the cache rows, indexed by cache-row number.
    cache_row_ids: list[int]
    #: Subarray that must not be cached from (slow placement only; -1 if n/a).
    excluded_subarray: int = -1
    #: Pending-eviction bookkeeping is held by the replacement policy.
    extra: dict = field(default_factory=dict)


class FIGCache(CachingMechanism):
    """The FIGCache caching mechanism (controller-side manager)."""

    def __init__(self, dram_config: DRAMConfig,
                 cache_config: FIGCacheConfig | None = None):
        super().__init__()
        self._dram = dram_config
        self._cfg = cache_config or FIGCacheConfig()
        self._cfg.validate(dram_config)
        self._segment_blocks = self._cfg.segment_blocks
        self._ideal_placement = self._cfg.placement == "ideal"
        self._segments_per_source_row = (dram_config.blocks_per_row
                                         // self._cfg.segment_blocks)
        #: Per-bank caches, eagerly built for every bank of the channel so
        #: the tag stores and policies are constructed at system-assembly
        #: time rather than lazily on the first access of each bank.
        #: (:meth:`_bank_cache` still handles out-of-range flat banks for
        #: callers that probe unusual topologies.)
        self._banks: dict[int, _BankCache] = {
            flat_bank: self._build_bank_cache()
            for flat_bank in range(dram_config.banks_per_channel)}
        self.name = {
            "fast": "FIGCache-Fast",
            "slow": "FIGCache-Slow",
            "ideal": "FIGCache-Ideal",
        }[self._cfg.placement]

    # ------------------------------------------------------------------
    # Public configuration accessors.
    # ------------------------------------------------------------------
    @property
    def config(self) -> FIGCacheConfig:
        """The FIGCache configuration."""
        return self._cfg

    @property
    def dram_config(self) -> DRAMConfig:
        """The DRAM organization this cache is configured for."""
        return self._dram

    @property
    def segments_per_cache_row(self) -> int:
        """Row segments that fit in one cache row."""
        return self._segments_per_source_row

    @property
    def segments_per_source_row(self) -> int:
        """Row segments per source (regular) DRAM row."""
        return self._segments_per_source_row

    def tag_store(self, flat_bank: int) -> FigTagStore:
        """Return (creating if needed) the FTS of one bank."""
        return self._bank_cache(flat_bank).tags

    # ------------------------------------------------------------------
    # CachingMechanism interface.
    # ------------------------------------------------------------------
    def effective_row(self, channel: Channel, decoded: DecodedAddress,
                      flat_bank: int) -> int:
        # Called once per queued candidate on every scheduling attempt, so
        # the miss path (no tag entry) must stay a couple of dict lookups.
        bank_cache = self._banks.get(flat_bank)
        if bank_cache is None:
            bank_cache = self._bank_cache(flat_bank)
        row = decoded.row
        tags = bank_cache.tags
        slot = tags._lookup.get(
            (row, decoded.column_block // self._segment_blocks))
        if slot is None:
            return row
        # A clean cached copy equals its source row, so while the source
        # row is open it is served from there as a row hit (see service).
        if not tags._entries[slot].dirty \
                and channel.bank(flat_bank).open_row == row:
            return row
        return bank_cache.cache_row_ids[slot // tags._segments_per_row]

    def service(self, channel: Channel, now: int, decoded: DecodedAddress,
                flat_bank: int, is_write: bool) -> ServiceResult:
        """Serve one request: hit and miss paths fused for the hot loop."""
        bank_cache = self._banks.get(flat_bank)
        if bank_cache is None:
            bank_cache = self._bank_cache(flat_bank)
        tags = bank_cache.tags
        row = decoded.row
        segment = decoded.column_block // self._segment_blocks
        stats = self.stats
        stats.cache_lookups += 1

        # Inline FigTagStore.lookup.
        slot = tags._lookup.get((row, segment))
        if slot is not None:
            # --- Hit path -------------------------------------------------
            entry = tags._entries[slot]
            stats.cache_hits += 1
            # Inline FigTagStore.touch (the entry came from a lookup, so it
            # is valid): bump benefit, recency, and dirtiness.
            if entry.benefit < tags._benefit_max:
                entry.benefit += 1
            tags._touch_counter += 1
            entry.last_touch = tags._touch_counter
            if is_write:
                entry.dirty = True
            # Serve a clean cached segment from its source row while that
            # row is open: the FTS lookup happens at schedule time, when
            # the controller knows the open row, and the two copies are
            # identical, so a row hit there is both correct and faster than
            # re-opening the cache row.  This mainly helps the accesses
            # that follow an insertion, whose source row the demand miss
            # just opened.  A write dirties the copy and goes to the cache.
            if not is_write and not entry.dirty \
                    and channel.bank(flat_bank).open_row == row:
                target_row = row
            else:
                target_row = bank_cache.cache_row_ids[
                    slot // tags._segments_per_row]

            access = channel.access(now, flat_bank, target_row, is_write)
            # No relocation on a hit: the access result already carries the
            # bank's post-access readiness.
            return ServiceResult(access.completion_cycle,
                                 access.bank_ready_cycle, access.outcome,
                                 True, access.served_fast, 0)

        # --- Miss path ----------------------------------------------------
        access = channel.access(now, flat_bank, row, is_write)
        relocation_cycles = 0

        insertion = bank_cache.insertion
        if (bank_cache.excluded_subarray < 0
                or self._may_cache(bank_cache, row)) \
                and (insertion.always_inserts
                     or insertion.should_insert(row, segment)):
            relocation_cycles = self._insert_segment(
                channel, access.completion_cycle, flat_bank, bank_cache,
                row, segment, dirty=is_write)
            # Relocation work may have pushed the bank's busy window past
            # the access, so re-read its readiness.
            bank_busy_until = channel.bank(flat_bank).ready_for_next
        else:
            bank_busy_until = access.bank_ready_cycle
        return ServiceResult(access.completion_cycle, bank_busy_until,
                             access.outcome, False, access.served_fast,
                             relocation_cycles)

    def _insert_segment(self, channel: Channel, now: int, flat_bank: int,
                        bank_cache: _BankCache, source_row: int,
                        segment: int, dirty: bool) -> int:
        """Relocate the missed segment into the cache; returns cycles spent."""
        tags = bank_cache.tags
        stats = self.stats
        relocation_cycles = 0
        current = now

        slot = tags.first_free_slot()
        if slot is None:
            slot, writeback_cycles, current = self._evict_for_space(
                channel, current, flat_bank, bank_cache)
            relocation_cycles += writeback_cycles

        if not self._ideal_placement:
            cache_row = bank_cache.cache_row_ids[
                slot // tags._segments_per_row]
            result = channel.relocate(current, flat_bank, source_row,
                                      cache_row, self._segment_blocks,
                                      keep_source_open=True)
            relocation_cycles += result.completion_cycle - result.start_cycle
            stats.relocation_operations += result.reloc_commands
            current = result.completion_cycle

        tags.insert(slot, source_row, segment, dirty=dirty)
        bank_cache.replacement.notify_insertion(slot)
        bank_cache.insertion.notify_inserted(source_row, segment)
        stats.insertions += 1
        stats.relocation_cycles += relocation_cycles
        if self.tracer is not None:
            self.tracer.mechanism_event(
                current, channel.channel_id, flat_bank, "fig-insert",
                {"source_row": source_row, "segment": segment,
                 "slot": slot, "dirty": dirty,
                 "relocation_cycles": relocation_cycles})
        return relocation_cycles

    def _evict_for_space(self, channel: Channel, now: int, flat_bank: int,
                         bank_cache: _BankCache) -> tuple[int, int, int]:
        """Evict one victim segment; returns (slot, writeback cycles, time)."""
        tags = bank_cache.tags
        victim_slot = bank_cache.replacement.choose_victim()
        victim = tags.evict(victim_slot)
        bank_cache.replacement.notify_eviction(victim_slot)
        bank_cache.insertion.notify_evicted(victim.source_row,
                                            victim.source_segment)
        self.stats.evictions += 1

        writeback_cycles = 0
        current = now
        if victim.dirty and not self._ideal_placement:
            cache_row = bank_cache.cache_row_ids[
                victim_slot // tags._segments_per_row]
            result = channel.relocate(current, flat_bank, cache_row,
                                      victim.source_row,
                                      self._segment_blocks)
            writeback_cycles = result.completion_cycle - result.start_cycle
            current = result.completion_cycle
            self.stats.relocation_operations += result.reloc_commands
            self.stats.dirty_writebacks += 1
        elif victim.dirty:
            self.stats.dirty_writebacks += 1
        if self.tracer is not None:
            self.tracer.mechanism_event(
                current, channel.channel_id, flat_bank, "fig-evict",
                {"source_row": victim.source_row,
                 "segment": victim.source_segment, "slot": victim_slot,
                 "dirty": victim.dirty,
                 "writeback_cycles": writeback_cycles})
        return victim_slot, writeback_cycles, current

    # ------------------------------------------------------------------
    # Bank-cache construction and placement rules.
    # ------------------------------------------------------------------
    def _may_cache(self, bank_cache: _BankCache, source_row: int) -> bool:
        """Segments from the excluded subarray (slow placement) stay uncached."""
        if bank_cache.excluded_subarray < 0:
            return True
        return (self._dram.subarray_of_row(source_row)
                != bank_cache.excluded_subarray)

    def _bank_cache(self, flat_bank: int) -> _BankCache:
        bank_cache = self._banks.get(flat_bank)
        if bank_cache is None:
            bank_cache = self._build_bank_cache()
            self._banks[flat_bank] = bank_cache
        return bank_cache

    def _build_bank_cache(self) -> _BankCache:
        tags = FigTagStore(self._cfg.cache_rows_per_bank,
                           self._segments_per_source_row,
                           benefit_bits=self._cfg.benefit_bits)
        replacement = make_replacement_policy(self._cfg.replacement_policy,
                                              tags, seed=self._cfg.seed)
        insertion = make_insertion_policy(self._cfg.insertion_threshold)
        cache_row_ids, excluded = self._cache_row_layout()
        return _BankCache(tags=tags, replacement=replacement,
                          insertion=insertion, cache_row_ids=cache_row_ids,
                          excluded_subarray=excluded)

    def _cache_row_layout(self) -> tuple[list[int], int]:
        """Bank-level row ids used as cache rows, and the excluded subarray."""
        if self._cfg.placement in ("fast", "ideal"):
            rows = [self._dram.fast_region_row(index)
                    for index in range(self._cfg.cache_rows_per_bank)]
            return rows, -1
        # Slow placement: reserve the last rows of the last regular subarray.
        last_subarray = self._dram.subarrays_per_bank - 1
        first_reserved = (self._dram.regular_rows_per_bank
                          - self._cfg.cache_rows_per_bank)
        rows = [first_reserved + index
                for index in range(self._cfg.cache_rows_per_bank)]
        return rows, last_subarray
