"""Physical address mapping.

The paper (Table 1) interleaves addresses as ``{row, rank, bankgroup, bank,
channel, column}`` with the column in the least-significant position.  This
module implements that mapping in both directions: decoding a byte address
into DRAM coordinates and re-encoding coordinates into a byte address.

Addresses are decoded at cache-block granularity: the low ``log2(block
size)`` bits are the byte offset within a block and are ignored by the
memory system.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.dram.config import DRAMConfig

#: Routes memoized across every geometry in the process (about 14 MB when
#: full); a miss that would exceed it first clears every memo in place.
ROUTE_CAPACITY = 1 << 16

#: The process-wide route memo: one ``{address: (decoded, flat_bank,
#: channel)}`` dict per mapping geometry.  Module state is sound only because
#: a route is a pure function of (geometry, address).  Dicts are cleared in
#: place and never rebound, so references a running simulator hoisted stay
#: valid.  The lock guards the check-then-insert of a miss and ``_stored``
#: (routes held over all geometries); reads take none.
_ROUTES: dict[tuple[int, ...], dict[int, tuple[DecodedAddress, int, int]]] = {}
_ROUTES_LOCK = threading.Lock()
_stored = 0


def _log2_exact(value: int, name: str) -> int:
    """Return log2 of ``value``, requiring it to be a power of two."""
    if value <= 0 or value & (value - 1):
        raise ValueError(f"{name} must be a positive power of two, got {value}")
    return value.bit_length() - 1


@dataclass(frozen=True, slots=True)
class DecodedAddress:
    """A physical address decoded into DRAM coordinates.

    The flat bank index within a channel depends on the configuration, so it
    is computed by :meth:`AddressMapper.flat_bank` rather than stored here.
    Instances are immutable; :meth:`AddressMapper.route` interns one per
    distinct address and geometry, shared by every request that touches the
    block in any system of the process.
    """

    channel: int
    rank: int
    bankgroup: int
    bank: int
    row: int
    column_block: int


class AddressMapper:
    """Maps byte addresses to DRAM coordinates and back.

    Bit layout (least-significant first)::

        | block offset | column (block) | channel | bank | bankgroup | rank | row |
    """

    def __init__(self, config: DRAMConfig):
        config.validate()
        self._config = config
        self._offset_bits = _log2_exact(config.block_size_bytes,
                                        "block_size_bytes")
        self._column_bits = _log2_exact(config.blocks_per_row,
                                        "blocks_per_row")
        self._channel_bits = _log2_exact(config.channels, "channels") \
            if config.channels > 1 else 0
        self._bank_bits = _log2_exact(config.banks_per_bankgroup,
                                      "banks_per_bankgroup")
        self._bankgroup_bits = _log2_exact(config.bankgroups_per_rank,
                                           "bankgroups_per_rank")
        self._rank_bits = _log2_exact(config.ranks_per_channel,
                                      "ranks_per_channel") \
            if config.ranks_per_channel > 1 else 0
        self._rows = config.regular_rows_per_bank
        self._banks_per_rank = config.banks_per_rank
        self._banks_per_bankgroup = config.banks_per_bankgroup
        # The key is the nine values decode and flat_bank read.  Timings and
        # fast subarrays (appended after the regular rows) never move a
        # route, so all paper configurations and DDR4 speed grades at one
        # channel count share one memo.
        geometry = (self._offset_bits, self._column_bits, self._channel_bits,
                    self._bank_bits, self._bankgroup_bits, self._rank_bits,
                    self._rows, self._banks_per_rank,
                    self._banks_per_bankgroup)
        with _ROUTES_LOCK:
            #: This geometry's shared route memo; only :meth:`route` writes.
            self.routes = _ROUTES.setdefault(geometry, {})

    @property
    def config(self) -> DRAMConfig:
        """The DRAM configuration this mapper was built for."""
        return self._config

    def decode(self, address: int) -> DecodedAddress:
        """Decode a byte address into DRAM coordinates.

        The simulation hot path goes through :meth:`route`, which memoizes
        this per geometry, so each distinct address is decoded once per
        process while it stays in the memo.
        """
        if address < 0:
            raise ValueError(f"address must be non-negative, got {address}")
        bits = address >> self._offset_bits
        column = bits & ((1 << self._column_bits) - 1)
        bits >>= self._column_bits
        channel = bits & ((1 << self._channel_bits) - 1) \
            if self._channel_bits else 0
        bits >>= self._channel_bits
        bank = bits & ((1 << self._bank_bits) - 1)
        bits >>= self._bank_bits
        bankgroup = bits & ((1 << self._bankgroup_bits) - 1)
        bits >>= self._bankgroup_bits
        rank = bits & ((1 << self._rank_bits) - 1) if self._rank_bits else 0
        bits >>= self._rank_bits
        row = bits % self._rows
        # Positional (field order): a third cheaper than keywords per miss.
        return DecodedAddress(channel, rank, bankgroup, bank, row, column)

    def route(self, address: int) -> tuple[DecodedAddress, int, int]:
        """Return ``(decoded, flat_bank, channel)`` for a byte address.

        Memoized in :attr:`routes`, shared by every mapper of this geometry;
        a negative address raises before anything is stored.
        """
        global _stored
        routes = self.routes
        entry = routes.get(address)
        if entry is None:
            decoded = self.decode(address)
            entry = (decoded, self.flat_bank(decoded), decoded.channel)
            # acquire/release rather than ``with``: half the cost per miss.
            _ROUTES_LOCK.acquire()
            try:
                if address not in routes:
                    if _stored >= ROUTE_CAPACITY:
                        for memo in _ROUTES.values():
                            memo.clear()
                        _stored = 0
                    routes[address] = entry
                    _stored += 1
            finally:
                _ROUTES_LOCK.release()
        return entry

    def encode(self, decoded: DecodedAddress) -> int:
        """Re-encode DRAM coordinates into a byte address (block aligned)."""
        self._check(decoded)
        bits = decoded.row
        bits = (bits << self._rank_bits) | decoded.rank
        bits = (bits << self._bankgroup_bits) | decoded.bankgroup
        bits = (bits << self._bank_bits) | decoded.bank
        bits = (bits << self._channel_bits) | decoded.channel
        bits = (bits << self._column_bits) | decoded.column_block
        return bits << self._offset_bits

    def flat_bank(self, decoded: DecodedAddress) -> int:
        """Return the bank index within a channel, folding in the bank group."""
        return (decoded.rank * self._banks_per_rank
                + decoded.bankgroup * self._banks_per_bankgroup
                + decoded.bank)

    def segment_of(self, decoded: DecodedAddress, blocks_per_segment: int) -> int:
        """Return the row-segment index of a decoded address within its row."""
        if blocks_per_segment <= 0:
            raise ValueError("blocks_per_segment must be positive")
        return decoded.column_block // blocks_per_segment

    def _check(self, decoded: DecodedAddress) -> None:
        config = self._config
        if not 0 <= decoded.channel < config.channels:
            raise ValueError(f"channel {decoded.channel} out of range")
        if not 0 <= decoded.rank < config.ranks_per_channel:
            raise ValueError(f"rank {decoded.rank} out of range")
        if not 0 <= decoded.bankgroup < config.bankgroups_per_rank:
            raise ValueError(f"bankgroup {decoded.bankgroup} out of range")
        if not 0 <= decoded.bank < config.banks_per_bankgroup:
            raise ValueError(f"bank {decoded.bank} out of range")
        if not 0 <= decoded.row < config.regular_rows_per_bank:
            raise ValueError(f"row {decoded.row} out of range")
        if not 0 <= decoded.column_block < config.blocks_per_row:
            raise ValueError(f"column {decoded.column_block} out of range")
