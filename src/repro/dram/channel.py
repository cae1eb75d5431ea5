"""Channel model: banks, ranks, the shared data bus, and refresh.

A :class:`Channel` owns the rank and bank timing state for one memory
channel and exposes the operations the memory controller needs: servicing a
column access, relocating a row segment, and applying refresh.
"""

from __future__ import annotations

from repro.dram.bank import Bank
from repro.dram.config import DRAMConfig
from repro.dram.counters import CommandCounters
from repro.dram.rank import Rank


class Channel:
    """Timing state for one memory channel."""

    __slots__ = ('_config', '_id', 'counters', '_ranks', '_banks', '_rank_of',
                 '_treloc', '_bus_free_at', 'tracer')

    def __init__(self, config: DRAMConfig, channel_id: int,
                 refresh_enabled: bool = True,
                 track_row_activations: bool = False):
        self._config = config
        self._id = channel_id
        self.counters = CommandCounters(
            track_row_activations=track_row_activations)
        slow = config.slow_timing_set()
        fast = config.fast_timing_set()
        self._ranks = [Rank(slow, refresh_enabled=refresh_enabled,
                            refresh_mode=config.refresh_mode,
                            num_banks=config.banks_per_rank,
                            num_bankgroups=config.bankgroups_per_rank)
                       for _ in range(config.ranks_per_channel)]
        self._banks: list[Bank] = []
        #: Owning rank per flat bank index (avoids a division per access).
        self._rank_of: list[Rank] = []
        for rank_id, rank in enumerate(self._ranks):
            for bankgroup in range(config.bankgroups_per_rank):
                for bank in range(config.banks_per_bankgroup):
                    key = (channel_id, rank_id, bankgroup, bank)
                    self._banks.append(Bank(config, rank, key,
                                            self.counters, slow, fast))
                    self._rank_of.append(rank)
        #: RELOC latency in cycles; the fast timing set scales only tRCD,
        #: tRP and tRAS, so one value serves every row.
        self._treloc = slow.treloc
        #: Earliest cycle the shared data bus is free.
        self._bus_free_at = 0
        #: Optional event tracer (see :mod:`repro.sim.tracing`); checked
        #: only on the cold refresh path.
        self.tracer = None

    # ------------------------------------------------------------------
    # Topology accessors.
    # ------------------------------------------------------------------
    @property
    def channel_id(self) -> int:
        """Index of this channel in the memory system."""
        return self._id

    @property
    def config(self) -> DRAMConfig:
        """The DRAM configuration for this channel."""
        return self._config

    @property
    def num_banks(self) -> int:
        """Total number of banks in this channel."""
        return len(self._banks)

    def bank(self, flat_bank: int) -> Bank:
        """Return the bank with the given flat index within the channel."""
        return self._banks[flat_bank]

    def banks(self) -> list[Bank]:
        """All banks of this channel."""
        return list(self._banks)

    def rank_of_bank(self, flat_bank: int) -> Rank:
        """Return the rank that owns the given flat bank index."""
        return self._rank_of[flat_bank]

    @property
    def bus_free_at(self) -> int:
        """Earliest cycle at which the channel data bus is free."""
        return self._bus_free_at

    # ------------------------------------------------------------------
    # Operations.
    # ------------------------------------------------------------------
    def access(self, now: int, flat_bank: int, row: int,
               is_write: bool) -> tuple[int, int, str, bool]:
        """Service one column access, honouring refresh and bus occupancy.

        Returns :meth:`Bank.access`'s tuple.
        """
        # Refresh is due a handful of times per million cycles; check the
        # rank's deadline inline so the common case skips the refresh walk.
        rank = self._rank_of[flat_bank]
        if rank.refresh_enabled and now >= rank.next_refresh_due:
            start = self._apply_refresh(now, flat_bank)
        else:
            start = now
        result = self._banks[flat_bank].access(start, row, is_write,
                                               self._bus_free_at)
        self._bus_free_at = result[0]  # the access's completion cycle
        return result

    # Both relocation entry points run the one Bank.relocate sequence and
    # differ only in the transfer term.  They stay separate public methods
    # because the benchmark's layer trace (perfbench/layer_trace.py) wraps
    # each by name.
    def relocate(self, now: int, flat_bank: int, source_row: int,
                 destination_row: int, num_blocks: int,
                 keep_source_open: bool = False) -> tuple[int, int, int]:
        """Relocate a row segment inside one bank using FIGARO.

        The transfer is one RELOC per cache block: ``num_blocks x tRELOC``
        cycles.  Returns :meth:`Bank.relocate`'s tuple.
        """
        if num_blocks <= 0:
            raise ValueError("relocation needs at least one block")
        start = self._apply_refresh(now, flat_bank)
        return self._banks[flat_bank].relocate(
            start, source_row, destination_row, num_blocks * self._treloc,
            num_blocks, keep_source_open)

    def bulk_relocate(self, now: int, flat_bank: int, source_row: int,
                      destination_row: int, transfer_cycles: int,
                      keep_source_open: bool = False) -> tuple[int, int, int]:
        """Relocate an entire row with a bulk (LISA-style) mechanism.

        The caller supplies the distance-dependent ``transfer_cycles``; no
        RELOC command is issued.  Returns :meth:`Bank.relocate`'s tuple.
        """
        start = self._apply_refresh(now, flat_bank)
        return self._banks[flat_bank].relocate(
            start, source_row, destination_row, transfer_cycles, 0,
            keep_source_open)

    # ------------------------------------------------------------------
    # Refresh handling.
    # ------------------------------------------------------------------
    def _apply_refresh(self, now: int, flat_bank: int) -> int:
        """Perform any due refreshes for the bank's rank; return the adjusted
        earliest start cycle for a new operation.

        All-bank mode (DDR4/DDR5 REFab): each pending refresh blocks every
        bank of the rank for tRFC, so the access always waits out the
        chain.  Per-bank mode (LPDDR4 REFpb, HBM2 REFSB): refresh commands
        to *different* banks overlap in time, so each pending refresh is
        stamped at its own due slot (it ran on schedule in the background)
        and blocks only its round-robin target bank for tRFCpb from that
        slot.  The access waits only when its own bank's refresh window
        extends past ``now``.  Serialising the catch-up from ``now``
        instead (tRFCpb back to back, the obvious port of the all-bank
        chain) is wrong and unstable: with per-bank cadences of
        tREFI/banks, a traffic burst's worth of pending refreshes would
        block every bank of the rank far into the future, stalling the
        traffic that drains the backlog and growing the next backlog —
        a runaway that sent HBM2 simulations past the cycle limit.
        """
        rank = self.rank_of_bank(flat_bank)
        start = now
        pending = rank.pending_refreshes(now)
        if pending == 0:
            return start
        banks_per_rank = self._config.banks_per_rank
        first_bank = (flat_bank // banks_per_rank) * banks_per_rank
        if rank.refresh_mode == "per-bank":
            # Runs ~banks-per-rank times more often than the all-bank
            # path but touches one bank per refresh, so index the bank
            # list directly instead of slicing out the whole rank.
            banks = self._banks
            local_bank = flat_bank - first_bank
            tracer = self.tracer
            for _ in range(pending):
                due = rank.next_refresh_due
                completion = rank.perform_refresh(due)
                self.counters.refreshes += 1
                target = rank.last_refreshed_bank
                if tracer is not None:
                    tracer.refresh(due, completion, self._id,
                                   first_bank + target, "per-bank")
                # Close the target's row unconditionally (the refresh
                # happened, even if its window already passed); the
                # force only costs time when ``completion`` is still in
                # the future.
                banks[first_bank + target] \
                    .force_precharge_for_refresh(completion)
                if target == local_bank and completion > start:
                    start = completion
            return start
        rank_banks = self._banks[first_bank:first_bank + banks_per_rank]
        tracer = self.tracer
        for _ in range(pending):
            completion = rank.perform_refresh(start)
            self.counters.refreshes += 1
            if tracer is not None:
                tracer.refresh(start, completion, self._id, first_bank,
                               "all-bank")
            for bank in rank_banks:
                bank.force_precharge_for_refresh(completion)
            start = completion
        return start
