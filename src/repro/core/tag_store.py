"""FIGCache Tag Store (FTS).

The FTS lives in the memory controller and tracks which row segments are
currently held in the in-DRAM cache of each bank (paper Section 5.1).  One
:class:`FigTagStore` instance covers one bank and is fully associative: any
segment of any row of the bank may occupy any cache slot.

Each entry holds the paper's four fields: the tag (original row and segment
index), a valid bit, a dirty bit, and a saturating benefit counter used by
the benefit-based replacement policies.

A slot's :class:`TagEntry` is created the first time the slot is filled.
Slots are handed out lowest first, so the created entries are always the
slots ``0 .. n - 1`` for some ``n``, and a tag store whose cache never
fills costs only the entries it used: building one is O(1), not
O(cache slots).  Every accessor still answers for all ``num_slots``
slots; a slot that was never filled reads as a fresh, invalid entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush


@dataclass(slots=True)
class TagEntry:
    """One FTS entry: metadata for one in-DRAM cache slot."""

    #: Index of the cache slot this entry describes (0 .. num_slots - 1).
    slot: int
    #: Original row of the cached segment (valid entries only).
    source_row: int = -1
    #: Segment index within the original row (valid entries only).
    source_segment: int = -1
    #: Valid bit.
    valid: bool = False
    #: Dirty bit: the cached copy differs from the source row.
    dirty: bool = False
    #: Saturating benefit counter (5 bits in the paper).
    benefit: int = 0
    #: Insertion sequence number (used by the LRU policy and for statistics).
    last_touch: int = 0

    @property
    def tag(self) -> tuple[int, int]:
        """(source row, source segment) pair identifying the cached data."""
        return (self.source_row, self.source_segment)


class FigTagStore:
    """Fully-associative tag store for the in-DRAM cache of one bank."""

    __slots__ = ('_num_cache_rows', '_segments_per_row', '_num_slots',
                 '_benefit_max', '_entries', '_lookup', '_touch_counter',
                 '_free_heap')

    def __init__(self, num_cache_rows: int, segments_per_row: int,
                 benefit_bits: int = 5):
        if num_cache_rows <= 0 or segments_per_row <= 0:
            raise ValueError("cache must have at least one row and one slot")
        self._num_cache_rows = num_cache_rows
        self._segments_per_row = segments_per_row
        self._num_slots = num_cache_rows * segments_per_row
        self._benefit_max = (1 << benefit_bits) - 1
        #: Entries of the slots created so far, indexed by slot: always
        #: slots ``0 .. len - 1``.  ``len`` is the never-used frontier.
        self._entries: list[TagEntry] = []
        #: Map from (source_row, source_segment) to slot for O(1) lookup.
        self._lookup: dict[tuple[int, int], int] = {}
        #: Monotonic counter for recency bookkeeping.
        self._touch_counter = 0
        #: Min-heap of candidate free slots below the frontier, fed by
        #: :meth:`evict` (and by :meth:`_grow` for slots created empty).
        #: Entries that have since been filled are pruned lazily, so
        #: :meth:`first_free_slot` is O(log slots) amortised instead of the
        #: full-store scan :meth:`free_slots` performs.
        self._free_heap: list[int] = []

    # ------------------------------------------------------------------
    # Geometry.
    # ------------------------------------------------------------------
    @property
    def num_slots(self) -> int:
        """Total number of segment slots in this bank's cache."""
        return self._num_slots

    @property
    def num_cache_rows(self) -> int:
        """Number of in-DRAM cache rows in this bank."""
        return self._num_cache_rows

    @property
    def segments_per_row(self) -> int:
        """Number of segment slots per cache row."""
        return self._segments_per_row

    def cache_row_of_slot(self, slot: int) -> int:
        """Cache-row index (0-based within the cache) that holds ``slot``."""
        return slot // self._segments_per_row

    def slot_offset_in_row(self, slot: int) -> int:
        """Segment offset of ``slot`` within its cache row."""
        return slot % self._segments_per_row

    def slots_of_cache_row(self, cache_row: int) -> list[int]:
        """All slot indices belonging to one cache row."""
        first = cache_row * self._segments_per_row
        return list(range(first, first + self._segments_per_row))

    # ------------------------------------------------------------------
    # Lookup and updates.
    # ------------------------------------------------------------------
    def entry(self, slot: int) -> TagEntry:
        """Return the entry for ``slot`` (0 <= slot < :attr:`num_slots`)."""
        if not 0 <= slot < self._num_slots:
            raise IndexError(
                f"slot {slot} is outside [0, {self._num_slots})")
        if slot >= len(self._entries):
            self._grow(slot)
        return self._entries[slot]

    def entries(self) -> list[TagEntry]:
        """All ``num_slots`` entries (valid and invalid), indexed by slot."""
        self._grow(self._num_slots - 1)
        return list(self._entries)

    def valid_entries(self) -> list[TagEntry]:
        """All valid entries."""
        return [entry for entry in self._entries if entry.valid]

    def lookup(self, source_row: int, source_segment: int) -> TagEntry | None:
        """Return the entry caching the given segment, or None on a miss."""
        slot = self._lookup.get((source_row, source_segment))
        if slot is None:
            return None
        return self._entries[slot]

    def touch(self, entry: TagEntry, is_write: bool) -> None:
        """Record a cache hit on ``entry``: bump benefit, recency, dirtiness."""
        if not entry.valid:
            raise ValueError("cannot touch an invalid entry")
        if entry.benefit < self._benefit_max:
            entry.benefit += 1
        self._touch_counter += 1
        entry.last_touch = self._touch_counter
        if is_write:
            entry.dirty = True

    def free_slots(self) -> list[int]:
        """Slots not currently holding a valid segment."""
        return [entry.slot for entry in self._entries if not entry.valid] \
            + list(range(len(self._entries), self._num_slots))

    def first_free_slot(self) -> int | None:
        """Lowest-index slot not holding a valid segment, or None when full.

        Equivalent to ``free_slots()[0]``: every invalid slot below the
        frontier is a heap candidate (:meth:`evict` and :meth:`_grow` add
        the slots they leave empty), so the lowest one is the lowest free
        slot when the heap holds one, and the frontier otherwise.
        """
        heap = self._free_heap
        entries = self._entries
        while heap:
            slot = heap[0]
            if entries[slot].valid:
                heappop(heap)
                continue
            return slot
        frontier = len(entries)
        return frontier if frontier < self._num_slots else None

    def _grow(self, slot: int) -> None:
        """Create the empty entries of every never-used slot up to ``slot``."""
        entries = self._entries
        for new in range(len(entries), slot + 1):
            entries.append(TagEntry(slot=new))
            heappush(self._free_heap, new)

    def insert(self, slot: int, source_row: int, source_segment: int,
               dirty: bool = False) -> TagEntry:
        """Fill ``slot`` with a newly cached segment."""
        if (source_row, source_segment) in self._lookup:
            raise ValueError(
                f"segment ({source_row}, {source_segment}) is already cached")
        entries = self._entries
        if slot == len(entries):
            # The never-used frontier, where slots are handed out while no
            # evicted slot is free: its entry is created for this fill.
            entry = TagEntry(slot)
            entries.append(entry)
        else:
            entry = self.entry(slot)
            if entry.valid:
                raise ValueError(
                    f"slot {slot} is still valid; evict it first")
        entry.source_row = source_row
        entry.source_segment = source_segment
        entry.valid = True
        entry.dirty = dirty
        entry.benefit = 1
        self._touch_counter += 1
        entry.last_touch = self._touch_counter
        self._lookup[(source_row, source_segment)] = slot
        return entry

    def evict(self, slot: int) -> TagEntry:
        """Invalidate ``slot`` and return a snapshot of the evicted entry."""
        entries = self._entries
        if not 0 <= slot < len(entries) or not entries[slot].valid:
            raise ValueError(f"slot {slot} is not valid")
        entry = entries[slot]
        snapshot = TagEntry(slot=entry.slot, source_row=entry.source_row,
                            source_segment=entry.source_segment, valid=True,
                            dirty=entry.dirty, benefit=entry.benefit,
                            last_touch=entry.last_touch)
        del self._lookup[(entry.source_row, entry.source_segment)]
        entry.valid = False
        entry.dirty = False
        entry.benefit = 0
        entry.source_row = -1
        entry.source_segment = -1
        heappush(self._free_heap, slot)
        return snapshot

    def occupancy(self) -> float:
        """Fraction of slots holding valid segments."""
        return len(self._lookup) / self._num_slots

    def row_benefit(self, cache_row: int) -> int:
        """Cumulative benefit of all valid segments in one cache row."""
        first = cache_row * self._segments_per_row
        return sum(entry.benefit
                   for entry in self._entries[first:first
                                              + self._segments_per_row]
                   if entry.valid)

    def storage_bits_per_entry(self, rows_per_bank: int,
                               segments_per_source_row: int) -> int:
        """Storage cost of one FTS entry in bits (paper Section 8.3).

        The tag must identify one of ``rows_per_bank x
        segments_per_source_row`` segments; add the valid bit, dirty bit, and
        the benefit counter width.
        """
        segment_count = rows_per_bank * segments_per_source_row
        tag_bits = max(1, (segment_count - 1).bit_length())
        benefit_bits = self._benefit_max.bit_length()
        return tag_bits + benefit_bits + 2
