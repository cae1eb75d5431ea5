"""Bank state machine and timing model.

A :class:`Bank` tracks the DRAM-side state that determines how long a memory
request takes to service: which row (if any) is open in the bank's local row
buffers, when the last ACTIVATE happened (tRAS), when the last column access
happened (tCCD / tWR / tRTP / tWTR), and when the next ACTIVATE or PRECHARGE
may be issued (tRP, tRC).

The model is event-driven: :meth:`Bank.access` is called by the memory
controller with the cycle at which it wants to start the access, and returns
when the data transfer completes and which row-buffer outcome occurred.
Every in-bank relocation runs through :meth:`Bank.relocate`, which occupies
the bank for the ACT / transfer / ACT / PRE sequence described in the
paper's Section 4.2.  Two transfer terms use it: FIGARO's one RELOC per
cache block (distance independent) and LISA-VILLA's hop-by-hop row copy
(growing with the distance between subarrays).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.dram.commands import Command
from repro.dram.config import DRAMConfig
from repro.dram.counters import CommandCounters
from repro.dram.rank import Rank
from repro.dram.timings import TimingSet


@dataclass(slots=True)
class AccessResult:
    """Outcome of one column access serviced by a bank.

    Plain slotted records (not frozen): one is created per serviced
    request, and frozen-dataclass construction costs an ``object.__setattr__``
    per field on the hottest allocation site in the model.  Treat as
    read-only.
    """

    #: Cycle at which the first command of the access was issued.
    issue_cycle: int
    #: Cycle at which the data burst completes on the channel bus.
    completion_cycle: int
    #: Cycle at which the bank can accept the next request.
    bank_ready_cycle: int
    #: ``hit``, ``miss``, or ``conflict``.
    outcome: str
    #: True when the access was served from a fast (short-bitline) region.
    served_fast: bool


@dataclass(slots=True)
class RelocationResult:
    """Outcome of one in-bank relocation (:meth:`Bank.relocate`)."""

    #: Cycle at which the relocation sequence started.
    start_cycle: int
    #: Cycle at which the bank becomes available again.
    completion_cycle: int
    #: Number of RELOC commands issued (one per cache block for FIGARO,
    #: none for a bulk row copy).
    reloc_commands: int


class Bank:
    """Timing state for one DRAM bank (shared across the chips of a rank)."""

    __slots__ = ('_rank', '_key', '_counters', '_slow', '_fast',
                 '_all_fast', '_regular_rows', '_trrd', '_tfaw',
                 '_bg_index', '_col_pacing', '_tccd_s_rank', '_tccd_l_rank',
                 '_act_bg_pacing', '_trrd_l',
                 '_read_hot', '_write_hot', 'open_row',
                 '_last_act', '_next_act_allowed', '_next_col_allowed',
                 '_next_pre_allowed', '_busy_until')

    def __init__(self, config: DRAMConfig, rank: Rank, bank_key: tuple,
                 counters: CommandCounters):
        self._rank = rank
        self._key = bank_key
        self._counters = counters
        self._slow = config.slow_timing_set()
        self._fast = config.fast_timing_set()
        #: Fast-region predicate hoisted out of the per-access path: a row
        #: is fast when every subarray is fast or when it lies at or above
        #: the regular-row boundary (fast subarrays are appended after all
        #: regular rows).
        self._all_fast = config.all_subarrays_fast
        self._regular_rows = config.regular_rows_per_bank
        #: Rank activation-pacing constants, hoisted for the inline tRRD /
        #: tFAW check in :meth:`_activate` (rank timings are the slow set).
        self._trrd = rank.timing.trrd
        self._tfaw = rank.timing.tfaw
        #: Bank-group pacing (bank-grouped standards only).  Column
        #: commands across the rank must be tCCD_L apart within a bank
        #: group and tCCD_S apart across groups; same-group ACTIVATEs are
        #: paced at tRRD_L.  Both checks are gated on flags computed once
        #: here, so standards without the splits (the DDR4-1600 Table 1
        #: device, LPDDR4's flat 8-bank rank) skip them entirely and keep
        #: the historical hot path — bus occupancy alone paces their
        #: bursts, which preserves the pinned golden results.
        self._bg_index = bank_key[2]
        self._tccd_l_rank = rank.timing.tccd
        self._tccd_s_rank = rank.timing.tccd_s
        self._col_pacing = rank.timing.tccd_s < rank.timing.tccd
        self._trrd_l = rank.timing.trrd_l
        self._act_bg_pacing = rank.timing.trrd_l > rank.timing.trrd
        #: Column-access timing constants per (timing set, direction), as
        #: tuples so :meth:`access` does one load plus an unpack instead of
        #: five attribute loads through the TimingSet.
        self._read_hot = tuple(
            (t.tcl, t.tbl, t.tccd, t.trtp) for t in (self._slow, self._fast))
        self._write_hot = tuple(
            (t.tcwl, t.tbl, t.tccd, t.twtr, t.twr)
            for t in (self._slow, self._fast))
        #: Row currently latched in a local row buffer, or None if precharged.
        self.open_row: int | None = None
        #: Cycle of the most recent ACTIVATE (governs tRAS).
        self._last_act = -(10 ** 9)
        #: Earliest cycle at which the next ACTIVATE may be issued (tRP/tRC).
        self._next_act_allowed = 0
        #: Earliest cycle at which the next column command may be issued.
        self._next_col_allowed = 0
        #: Earliest cycle at which a PRECHARGE may be issued (tRAS/tWR/tRTP).
        self._next_pre_allowed = 0
        #: Cycle until which the bank is occupied by a multi-command sequence
        #: such as a FIGARO relocation.
        self._busy_until = 0

    # ------------------------------------------------------------------
    # Introspection helpers.
    # ------------------------------------------------------------------
    @property
    def key(self) -> tuple:
        """Identifier tuple (rank, bankgroup, bank) used in statistics."""
        return self._key

    @property
    def busy_until(self) -> int:
        """Cycle until which the bank is blocked by an ongoing sequence."""
        return self._busy_until

    @property
    def ready_for_next(self) -> int:
        """Earliest cycle at which another column command could be issued.

        Used by the memory controller to decide when to wake up and schedule
        the next request for this bank.  Row hits to the open row can be
        pipelined (tCCD apart), so this is typically earlier than the
        completion of the previous data burst.
        """
        return max(self._busy_until, self._next_col_allowed)

    def timing_for_row(self, row: int) -> TimingSet:
        """Return the timing set that applies to ``row``."""
        if self._all_fast or row >= self._regular_rows:
            return self._fast
        return self._slow

    def earliest_start(self, now: int, row: int) -> int:
        """Earliest cycle an access to ``row`` could begin (for scheduling)."""
        start = max(now, self._busy_until)
        if self.open_row == row:
            return max(start, self._next_col_allowed)
        if self.open_row is None:
            return max(start, self._next_act_allowed)
        return max(start, self._next_pre_allowed)

    # ------------------------------------------------------------------
    # Demand accesses.
    # ------------------------------------------------------------------
    def access(self, now: int, row: int, is_write: bool,
               bus_free_at: int) -> AccessResult:
        """Service one column access to ``row`` starting no earlier than ``now``.

        ``bus_free_at`` is the earliest cycle the channel data bus is free;
        the returned :class:`AccessResult` reflects both bank and bus
        constraints.  The caller (channel controller) is responsible for
        advancing its own bus-free pointer to ``completion_cycle``.
        """
        served_fast = self._all_fast or row >= self._regular_rows
        timing = self._fast if served_fast else self._slow
        counters = self._counters
        busy_until = self._busy_until
        start = now if now > busy_until else busy_until
        open_row = self.open_row

        if open_row == row:
            outcome = "hit"
            counters.row_hits += 1
            next_col = self._next_col_allowed
            col_cycle = start if start > next_col else next_col
        elif open_row is None:
            outcome = "miss"
            counters.row_misses += 1
            col_cycle = self._activate(start, row, timing)
        else:
            outcome = "conflict"
            counters.row_conflicts += 1
            next_pre = self._next_pre_allowed
            pre_cycle = start if start > next_pre else next_pre
            act_cycle = pre_cycle + self.timing_for_row(open_row).trp
            counters.precharges += 1
            col_cycle = self._activate(act_cycle, row, timing,
                                       already_constrained=True)

        if self._col_pacing:
            # Rank-wide column pacing for bank-grouped standards: tCCD_L
            # after the most recent column command to the *same* bank
            # group (tracked per group — an intervening other-group
            # command must not reset the window), tCCD_S after any column
            # command rank-wide (subsumed by tCCD_L within the group).
            rank = self._rank
            earliest_col = rank._bg_last_col[self._bg_index] \
                + self._tccd_l_rank
            cross = rank._last_col_cycle + self._tccd_s_rank
            if cross > earliest_col:
                earliest_col = cross
            if earliest_col > col_cycle:
                col_cycle = earliest_col

        # Inline the burst timing, _update_after_column, and the command
        # counters, reading the timing constants from the precomputed
        # per-direction tuples.
        if is_write:
            data_latency, tbl, tccd, twtr, twr = self._write_hot[served_fast]
            burst_start = col_cycle + data_latency
            if burst_start < bus_free_at:
                # The data burst must also wait for the shared channel bus.
                burst_start = bus_free_at
                col_cycle = burst_start - data_latency
            completion = burst_start + tbl
            counters.writes += 1
            if served_fast:
                counters.fast_writes += 1
            # Write recovery: the written data must reach the cells before
            # a PRECHARGE; reads after writes pay the turnaround.
            next_col = col_cycle + tccd
            turnaround = completion + twtr
            if turnaround > next_col:
                next_col = turnaround
            next_pre = completion + twr
        else:
            data_latency, tbl, tccd, trtp = self._read_hot[served_fast]
            burst_start = col_cycle + data_latency
            if burst_start < bus_free_at:
                burst_start = bus_free_at
                col_cycle = burst_start - data_latency
            completion = burst_start + tbl
            counters.reads += 1
            if served_fast:
                counters.fast_reads += 1
            next_col = col_cycle + tccd
            next_pre = col_cycle + trtp
        if next_col > self._next_col_allowed:
            self._next_col_allowed = next_col
        if next_pre > self._next_pre_allowed:
            self._next_pre_allowed = next_pre
        if col_cycle > self._busy_until:
            self._busy_until = col_cycle
        if self._col_pacing:
            # Record the final column-command slot (after any bus wait
            # shifted it) for the next bank's pacing check.
            rank = self._rank
            rank._last_col_cycle = col_cycle
            rank._bg_last_col[self._bg_index] = col_cycle

        return AccessResult(start, completion, self._next_col_allowed,
                            outcome, served_fast)

    def precharge(self, now: int) -> int:
        """Explicitly close the open row; returns the cycle the bank is idle."""
        if self.open_row is None:
            return now
        timing = self.timing_for_row(self.open_row)
        pre_cycle = max(now, self._next_pre_allowed, self._busy_until)
        self._counters.record_command(Command.PRECHARGE)
        self.open_row = None
        self._next_act_allowed = max(self._next_act_allowed,
                                     pre_cycle + timing.trp)
        return pre_cycle + timing.trp

    # ------------------------------------------------------------------
    # In-bank relocation.
    # ------------------------------------------------------------------
    def relocate(self, now: int, source_row: int, destination_row: int,
                 transfer_cycles: int, relocs: int,
                 keep_source_open: bool = False) -> RelocationResult:
        """Move data from ``source_row`` to ``destination_row``.

        Command sequence (paper Section 4.2): PRECHARGE whatever other row
        is open, ACTIVATE the source (skipped when the source row is already
        open, which is the common case on a cache insertion because the
        demand access just opened it), the transfer, ACTIVATE the
        destination (overwrites only the columns driven by the global row
        buffer), and a PRECHARGE.

        The transfer occupies the bank for ``transfer_cycles`` and issues
        ``relocs`` RELOC commands; it is the only term in which the two
        relocation mechanisms differ:

        * FIGARO: one RELOC per cache block, ``num_blocks x tRELOC``
          cycles whatever the distance (:meth:`Channel.relocate`);
        * LISA-VILLA: a hop-by-hop row copy between adjacent subarrays
          whose length grows with the distance, and no RELOC
          (:meth:`Channel.bulk_relocate`).

        ``keep_source_open`` models the subarray-level parallelism FIGARO
        relies on: the destination row lives in a *different* subarray, so
        activating and precharging it does not disturb the source subarray's
        local row buffer.  When the source row was already open on entry and
        ``keep_source_open`` is set, it remains open afterwards, so queued
        row hits to the source row are not turned into row misses by the
        relocation.  Otherwise the bank ends the sequence precharged.
        """
        if source_row == destination_row:
            raise ValueError("source and destination rows must differ")
        if transfer_cycles < 0:
            raise ValueError("transfer_cycles must be non-negative")
        # Inline timing_for_row: this runs once per cache insertion.
        all_fast = self._all_fast
        regular_rows = self._regular_rows
        src_timing = self._fast if all_fast or source_row >= regular_rows \
            else self._slow
        dst_timing = self._fast \
            if all_fast or destination_row >= regular_rows else self._slow

        counters = self._counters
        start = max(now, self._busy_until)
        source_was_open = self.open_row == source_row
        cycle = start
        if not source_was_open:
            # Close whatever is open, then activate the source row.
            if self.open_row is not None:
                pre_cycle = max(cycle, self._next_pre_allowed)
                cycle = pre_cycle + self.timing_for_row(self.open_row).trp
                counters.precharges += 1
            cycle = max(cycle, self._next_act_allowed)
            counters.activates += 1
            if all_fast or source_row >= regular_rows:
                counters.fast_activates += 1
            if counters.track_row_activations:
                counters.record_row_activation(self._key, source_row)
            # The source row must be fully restored (tRAS) before its local
            # row buffer can drive the global row buffer for the transfer.
            cycle = cycle + src_timing.tras
        else:
            # The source row is already open; the transfer may begin as soon
            # as the restore completed and any outstanding column traffic
            # drained.
            cycle = max(cycle, self._last_act + src_timing.tras,
                        self._next_col_allowed)

        cycle += transfer_cycles
        counters.relocs += relocs

        # ACTIVATE the destination row to latch the relocated columns into
        # the destination cells, then PRECHARGE the bank.  The destination
        # bitlines are already driven to stable values by the GRB, so the
        # paper accounts tRCD (not a full tRAS) for this activation, giving
        # the 63.5 ns end-to-end figure of Section 4.2.
        counters.activates += 1
        if all_fast or destination_row >= regular_rows:
            counters.fast_activates += 1
        if counters.track_row_activations:
            counters.record_row_activation(self._key, destination_row)
        cycle += dst_timing.trcd
        counters.precharges += 1
        cycle += dst_timing.trp

        if keep_source_open and source_was_open:
            # Only the destination subarray was activated and precharged; the
            # source row stays latched in its own local row buffer.
            self.open_row = source_row
            self._busy_until = cycle
            self._next_act_allowed = max(self._next_act_allowed, cycle)
            self._next_col_allowed = max(self._next_col_allowed, cycle)
            self._next_pre_allowed = max(self._next_pre_allowed, cycle)
        else:
            # The bank ends the sequence precharged.
            self.open_row = None
            self._busy_until = cycle
            self._next_act_allowed = cycle
            self._next_col_allowed = cycle
            self._next_pre_allowed = cycle

        return RelocationResult(start, cycle, relocs)

    # ------------------------------------------------------------------
    # Refresh support.
    # ------------------------------------------------------------------
    def force_precharge_for_refresh(self, cycle: int) -> None:
        """Close the bank and block it until ``cycle`` (used by refresh)."""
        self.open_row = None
        self._busy_until = max(self._busy_until, cycle)
        self._next_act_allowed = max(self._next_act_allowed, cycle)
        self._next_col_allowed = max(self._next_col_allowed, cycle)
        self._next_pre_allowed = max(self._next_pre_allowed, cycle)

    # ------------------------------------------------------------------
    # Internal helpers.
    # ------------------------------------------------------------------
    def _activate(self, earliest: int, row: int, timing: TimingSet,
                  already_constrained: bool = False) -> int:
        """Issue an ACTIVATE for ``row``; returns the earliest column cycle."""
        if not already_constrained and earliest < self._next_act_allowed:
            earliest = self._next_act_allowed
        # Rank activation pacing: tRRD from the previous ACTIVATE, tFAW
        # over the last four.
        rank = self._rank
        act_cycle = earliest
        rrd_earliest = rank._last_activate + self._trrd
        if rrd_earliest > act_cycle:
            act_cycle = rrd_earliest
        recent = rank._recent_activates
        if len(recent) == 4:
            faw_earliest = recent[0] + self._tfaw
            if faw_earliest > act_cycle:
                act_cycle = faw_earliest
        if self._act_bg_pacing:
            # Same-bank-group ACTIVATE pacing (tRRD_L) for bank-grouped
            # standards; the rank-wide check above already applied tRRD_S.
            bg_last = rank._bg_last_act
            bg_earliest = bg_last[self._bg_index] + self._trrd_l
            if bg_earliest > act_cycle:
                act_cycle = bg_earliest
            bg_last[self._bg_index] = act_cycle
        rank._last_activate = act_cycle
        recent.append(act_cycle)
        counters = self._counters
        counters.activates += 1
        if self._all_fast or row >= self._regular_rows:
            counters.fast_activates += 1
        if counters.track_row_activations:
            counters.record_row_activation(self._key, row)
        self.open_row = row
        self._last_act = act_cycle
        # tRAS governs the earliest PRECHARGE after this ACTIVATE.
        self._next_pre_allowed = act_cycle + timing.tras
        return act_cycle + timing.trcd

