"""Miss-status holding registers (MSHRs).

Each core has a small number of MSHRs (8 in the paper's Table 1) limiting
how many cache-block misses can be outstanding to the memory system at once.
Misses to a block that already has an MSHR allocated are merged into the
existing entry rather than consuming a new one.
"""

from __future__ import annotations


class MSHRFile:
    """Outstanding-miss tracking for one core."""

    __slots__ = ('num_entries', '_offset_bits', 'entries', 'allocations', 'merges')

    def __init__(self, num_entries: int, block_size_bytes: int = 64):
        if num_entries <= 0:
            raise ValueError("an MSHR file needs at least one entry")
        if block_size_bytes <= 0 or block_size_bytes & (block_size_bytes - 1):
            raise ValueError("block size must be a positive power of two")
        self.num_entries = num_entries
        self._offset_bits = block_size_bytes.bit_length() - 1
        #: Map from block address to the number of merged misses.  Public so
        #: the core's stall check can test fullness inline without a method
        #: call per issued record; treat as read-only outside this class.
        self.entries: dict[int, int] = {}
        self.allocations = 0
        self.merges = 0

    @property
    def capacity(self) -> int:
        """Number of MSHR entries."""
        return self.num_entries

    @property
    def occupancy(self) -> int:
        """Entries currently allocated."""
        return len(self.entries)

    def is_full(self) -> bool:
        """True when no new block miss can be tracked."""
        return len(self.entries) >= self.num_entries

    def _block(self, address: int) -> int:
        return address >> self._offset_bits

    def allocate(self, address: int) -> bool:
        """Track a miss to ``address``.

        Returns True when a new entry was allocated (a new memory request
        must be issued) and False when the miss merged into an existing
        entry.  Raises ``RuntimeError`` when a new entry is needed but the
        MSHR file is full — callers must check :meth:`is_full` first.
        """
        block = self._block(address)
        if block in self.entries:
            self.entries[block] += 1
            self.merges += 1
            return False
        if self.is_full():
            raise RuntimeError("MSHR file is full")
        self.entries[block] = 1
        self.allocations += 1
        return True

    def release(self, address: int) -> int:
        """Free the entry for ``address``; returns the merged miss count."""
        block = self._block(address)
        if block not in self.entries:
            raise KeyError(f"no MSHR entry for block {block:#x}")
        return self.entries.pop(block)
