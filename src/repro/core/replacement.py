"""In-DRAM cache replacement policies.

The paper's FIGCache uses a *RowBenefit* policy (Section 5.1): insertion
happens at row-segment granularity but eviction is decided at cache-row
granularity.  When space is needed and no eviction is in progress, the cache
row with the lowest cumulative benefit is marked for eviction (a bit-vector
tracks which of its segments are still pending), and marked segments are then
evicted one by one — lowest individual benefit first — as new segments are
inserted.  Evicting whole rows packs temporally-correlated segments together
and is what raises the in-DRAM cache's row-buffer hit rate.

For the Figure 14 sensitivity study the paper compares RowBenefit against
three conventional segment-granularity policies, also implemented here:
SegmentBenefit (evict the globally lowest-benefit segment), LRU, and Random.
"""

from __future__ import annotations

import abc
import random

from repro.core.tag_store import FigTagStore


class ReplacementPolicy(abc.ABC):
    """Chooses which valid cache slot to evict when the cache is full."""

    name = "abstract"

    def __init__(self, tag_store: FigTagStore):
        self._tags = tag_store

    @abc.abstractmethod
    def choose_victim(self) -> int:
        """Return the slot index to evict.  The cache is known to be full."""

    def notify_eviction(self, slot: int) -> None:
        """Hook invoked after ``slot`` has been evicted."""

    def notify_insertion(self, slot: int) -> None:
        """Hook invoked after a new segment was inserted into ``slot``."""


class RowBenefitReplacement(ReplacementPolicy):
    """The paper's row-granularity, benefit-driven replacement policy."""

    name = "RowBenefit"

    def __init__(self, tag_store: FigTagStore):
        super().__init__(tag_store)
        #: Cache row currently being drained, or None.
        self._eviction_row: int | None = None
        #: Slots of the eviction row still marked for eviction (the paper's
        #: 8-bit bit-vector, one bit per segment of the row).
        self._marked_slots: set[int] = set()

    @property
    def eviction_row(self) -> int | None:
        """Cache row currently marked for draining (None when idle)."""
        return self._eviction_row

    def choose_victim(self) -> int:
        if not self._marked_slots:
            self._select_new_eviction_row()
        # Among the marked (still-valid) segments, evict the one with the
        # lowest individual benefit score.
        candidates = [self._tags.entry(slot) for slot in self._marked_slots
                      if self._tags.entry(slot).valid]
        if not candidates:
            # Every marked slot was already invalid (e.g. freed elsewhere);
            # restart the selection with a fresh row.
            self._marked_slots.clear()
            self._select_new_eviction_row()
            candidates = [self._tags.entry(slot) for slot in self._marked_slots
                          if self._tags.entry(slot).valid]
        victim = min(candidates, key=lambda entry: (entry.benefit, entry.slot))
        return victim.slot

    def notify_eviction(self, slot: int) -> None:
        self._marked_slots.discard(slot)
        if not self._marked_slots:
            self._eviction_row = None

    def _select_new_eviction_row(self) -> None:
        """Mark the cache row with the lowest cumulative benefit for eviction.

        One pass over the tag store accumulates each cache row's cumulative
        benefit; the row with the lowest total (ties: lowest row index,
        matching ``min`` over ``(benefit, row)`` pairs) wins.
        """
        entries = self._tags.entries()
        segments_per_row = self._tags.segments_per_row
        num_rows = self._tags.num_cache_rows
        totals = [0] * num_rows
        has_valid = [False] * num_rows
        for index, entry in enumerate(entries):
            if entry.valid:
                cache_row = index // segments_per_row
                totals[cache_row] += entry.benefit
                has_valid[cache_row] = True
        chosen = None
        for cache_row in range(num_rows):
            if has_valid[cache_row] and (chosen is None
                                         or totals[cache_row]
                                         < totals[chosen]):
                chosen = cache_row
        if chosen is None:
            raise ValueError("no valid entries to evict")
        self._eviction_row = chosen
        first = chosen * segments_per_row
        self._marked_slots = {
            entry.slot
            for entry in entries[first:first + segments_per_row]
            if entry.valid}


class SegmentBenefitReplacement(ReplacementPolicy):
    """Evict the valid segment with the lowest benefit, cache-wide."""

    name = "SegmentBenefit"

    def choose_victim(self) -> int:
        entries = self._tags.valid_entries()
        if not entries:
            raise ValueError("no valid entries to evict")
        victim = min(entries, key=lambda entry: (entry.benefit, entry.slot))
        return victim.slot


class LRUReplacement(ReplacementPolicy):
    """Evict the least-recently-used valid segment."""

    name = "LRU"

    def choose_victim(self) -> int:
        entries = self._tags.valid_entries()
        if not entries:
            raise ValueError("no valid entries to evict")
        victim = min(entries, key=lambda entry: (entry.last_touch, entry.slot))
        return victim.slot


class RandomReplacement(ReplacementPolicy):
    """Evict a valid segment chosen uniformly at random (deterministic seed)."""

    name = "Random"

    def __init__(self, tag_store: FigTagStore, seed: int = 0):
        super().__init__(tag_store)
        self._rng = random.Random(seed)

    def choose_victim(self) -> int:
        entries = self._tags.valid_entries()
        if not entries:
            raise ValueError("no valid entries to evict")
        return self._rng.choice(entries).slot


_POLICIES = {
    "RowBenefit": RowBenefitReplacement,
    "SegmentBenefit": SegmentBenefitReplacement,
    "LRU": LRUReplacement,
    "Random": RandomReplacement,
}


def make_replacement_policy(name: str, tag_store: FigTagStore,
                            seed: int = 0) -> ReplacementPolicy:
    """Instantiate a replacement policy by name (see Figure 14)."""
    if name not in _POLICIES:
        raise ValueError(
            f"unknown replacement policy {name!r}; "
            f"choose one of {sorted(_POLICIES)}")
    if name == "Random":
        return RandomReplacement(tag_store, seed=seed)
    return _POLICIES[name](tag_store)


def available_replacement_policies() -> list[str]:
    """Names of all implemented replacement policies."""
    return sorted(_POLICIES)
