"""Rank-level timing state: inter-bank activation limits and refresh.

A rank groups the chips that operate in lockstep.  Three rank-wide
constraints matter to the architecture model:

* tRRD / tFAW limit how quickly ACTIVATE commands may be issued across the
  banks of one rank; bank-grouped standards additionally pace same-group
  ACTIVATEs at tRRD_L and column commands at tCCD_S/tCCD_L (state lives
  here, enforcement is inlined in :class:`~repro.dram.bank.Bank`).
* Periodic refresh (tREFI / tRFC) blocks the whole rank and closes all
  open rows — or, for per-bank-refresh standards (LPDDR4 REFpb, HBM2
  REFSB), blocks a single rotating bank for tRFCpb at a tREFI/banks
  cadence.
"""

from __future__ import annotations

from collections import deque

from repro.dram.timings import TimingSet

_FAR_PAST = -(10 ** 9)


class Rank:
    """Timing state shared by all banks of one rank."""

    __slots__ = ('_timing', 'refresh_enabled', '_recent_activates',
                 '_last_activate', 'next_refresh_due', 'refresh_count',
                 'refresh_mode', '_refresh_interval', '_refresh_duration',
                 '_num_banks', 'refresh_bank_pointer', 'last_refreshed_bank',
                 '_last_col_cycle', '_bg_last_col', '_bg_last_act')

    def __init__(self, timing: TimingSet, refresh_enabled: bool = True,
                 refresh_mode: str = "all-bank", num_banks: int = 16,
                 num_bankgroups: int = 4):
        self._timing = timing
        self.refresh_enabled = refresh_enabled
        #: Issue cycles of the most recent ACTIVATEs (for tFAW).
        self._recent_activates: deque[int] = deque(maxlen=4)
        #: Cycle of the most recent ACTIVATE (for tRRD).
        self._last_activate = _FAR_PAST
        #: Refresh cadence: all-bank refresh blocks the rank for tRFC every
        #: tREFI; per-bank refresh blocks one bank for tRFCpb every
        #: tREFI / banks, visiting banks round-robin.
        self.refresh_mode = refresh_mode
        self._num_banks = num_banks
        if refresh_mode == "per-bank":
            self._refresh_interval = max(timing.trefi // num_banks, 1)
            self._refresh_duration = timing.trfc_pb
        else:
            self._refresh_interval = timing.trefi
            self._refresh_duration = timing.trfc
        #: Cycle at which the next refresh is due (read by the channel's
        #: per-access fast path; treat as read-only outside this class).
        self.next_refresh_due = self._refresh_interval
        #: Number of refresh commands performed (for energy accounting; a
        #: per-bank refresh counts as one command).
        self.refresh_count = 0
        #: Next bank to be refreshed and the bank the most recent
        #: :meth:`perform_refresh` targeted (per-bank mode only).
        self.refresh_bank_pointer = 0
        self.last_refreshed_bank = -1
        #: Bank-group pacing state (enforced inline by Bank for standards
        #: with tCCD_S/tCCD_L or tRRD_L splits): the most recent column
        #: command cycle rank-wide (tCCD_S) and per bank group (tCCD_L),
        #: and the most recent ACTIVATE cycle per bank group (tRRD_L).
        self._last_col_cycle = _FAR_PAST
        self._bg_last_col = [_FAR_PAST] * num_bankgroups
        self._bg_last_act = [_FAR_PAST] * num_bankgroups

    @property
    def timing(self) -> TimingSet:
        """Rank-level timing parameters (regular/slow timings)."""
        return self._timing

    # ------------------------------------------------------------------
    # Refresh.
    # ------------------------------------------------------------------
    @property
    def refresh_interval(self) -> int:
        """Cycles between refresh commands (tREFI, or tREFI/banks per-bank)."""
        return self._refresh_interval

    @property
    def refresh_duration(self) -> int:
        """Cycles one refresh command blocks its target (tRFC or tRFCpb)."""
        return self._refresh_duration

    def refresh_due(self, now: int) -> bool:
        """Return True when a refresh should be performed at or before ``now``."""
        return self.refresh_enabled and now >= self.next_refresh_due

    def pending_refreshes(self, now: int) -> int:
        """Number of refresh intervals elapsed but not yet serviced."""
        if not self.refresh_enabled or now < self.next_refresh_due:
            return 0
        elapsed = now - self.next_refresh_due
        return 1 + elapsed // self._refresh_interval

    def perform_refresh(self, now: int) -> int:
        """Perform one refresh command starting at ``now``.

        Returns the cycle at which the refreshed target becomes available
        again.  In all-bank mode the caller must also call
        :meth:`Bank.force_precharge_for_refresh` on every bank of the
        rank; in per-bank mode only on ``last_refreshed_bank``, which this
        method sets (and advances round-robin) before returning.
        """
        if not self.refresh_enabled:
            return now
        completion = now + self._refresh_duration
        self.next_refresh_due += self._refresh_interval
        self.refresh_count += 1
        if self.refresh_mode == "per-bank":
            self.last_refreshed_bank = self.refresh_bank_pointer
            self.refresh_bank_pointer = \
                (self.refresh_bank_pointer + 1) % self._num_banks
        return completion
