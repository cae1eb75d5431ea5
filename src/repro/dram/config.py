"""DRAM organization configuration.

:class:`DRAMConfig` captures the organization side of the paper's Table 1:
channels, ranks, bank groups, banks, subarrays, rows, and row/block sizes,
plus the fast-subarray layout used by FIGCache-Fast, LISA-VILLA, and
LL-DRAM.

The defaults describe the paper's DDR4-1600 device.  Other standards are
built with :meth:`DRAMConfig.from_profile` from the named
:class:`~repro.dram.standards.DeviceProfile` entries in
:mod:`repro.dram.standards`, which carry per-standard organization,
timings, refresh mode, and fast-subarray derivation factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.timings import (FAST_TRAS_REDUCTION, FAST_TRCD_REDUCTION,
                                FAST_TRP_REDUCTION, DRAMTimings, TimingSet)

#: Refresh modes a configuration may select.  ``all-bank`` blocks the whole
#: rank for tRFC (DDR4/DDR5 REFab); ``per-bank`` refreshes one bank at a
#: time for tRFCpb, rotating round-robin (LPDDR4 REFpb, HBM2 REFSB).
REFRESH_MODES = ("all-bank", "per-bank")


@dataclass(frozen=True)
class DRAMConfig:
    """Organization and timing configuration for the simulated DRAM system.

    The defaults reproduce the paper's Table 1: DDR4, 800 MHz bus, one rank,
    4 bank groups with 4 banks each, 64 subarrays per bank, 512 rows per
    subarray, 8 kB rows, 64 B cache blocks, and 4 GB per channel.
    """

    #: Number of independent memory channels (1 for single-core runs,
    #: 4 for eight-core runs in the paper).
    channels: int = 1
    #: Ranks per channel.
    ranks_per_channel: int = 1
    #: Bank groups per rank.
    bankgroups_per_rank: int = 4
    #: Banks per bank group.
    banks_per_bankgroup: int = 4
    #: Regular (slow) subarrays per bank.
    subarrays_per_bank: int = 64
    #: Rows per regular subarray.
    rows_per_subarray: int = 512
    #: Row size in bytes (per rank; the paper uses 8 kB DDR4 rows).
    row_size_bytes: int = 8192
    #: Cache block (column across the rank) size in bytes.
    block_size_bytes: int = 64
    #: Number of extra fast subarrays appended to each bank (0 for plain
    #: DDR4 and FIGCache-Slow, 2 for FIGCache-Fast, 16 for LISA-VILLA).
    fast_subarrays_per_bank: int = 0
    #: Rows per fast subarray (the paper uses 32-row fast subarrays).
    rows_per_fast_subarray: int = 32
    #: When true, every subarray uses fast timings (the LL-DRAM idealized
    #: configuration).
    all_subarrays_fast: bool = False
    #: CPU clock frequency used as the simulator clock domain.
    cpu_clock_ghz: float = 3.2
    #: Regular (slow) subarray timing parameters.
    timings: DRAMTimings = field(default_factory=DRAMTimings)
    #: Name of the device standard this organization models (matches a
    #: profile in :mod:`repro.dram.standards` for catalog-built configs).
    standard: str = "DDR4-1600"
    #: Refresh mode: ``"all-bank"`` (REFab, blocks the rank for tRFC) or
    #: ``"per-bank"`` (REFpb/REFSB, blocks one bank for tRFCpb).
    refresh_mode: str = "all-bank"
    #: Per-standard fast-subarray timing reductions.  The defaults are the
    #: paper's Table 1 / LISA-VILLA SPICE figures; profiles may override
    #: them for standards with different bitline geometry.
    fast_trcd_reduction: float = FAST_TRCD_REDUCTION
    fast_trp_reduction: float = FAST_TRP_REDUCTION
    fast_tras_reduction: float = FAST_TRAS_REDUCTION

    def __post_init__(self) -> None:
        """Validate the organization eagerly, with actionable messages.

        Construction-time validation replaces the silent downstream
        breakage (wrong address decode widths, zero-row fast regions,
        negative cycle counts) that an inconsistent configuration used to
        cause only deep inside a simulation.
        """
        self.validate()

    # ------------------------------------------------------------------
    # Derived organization properties.
    # ------------------------------------------------------------------
    @property
    def banks_per_rank(self) -> int:
        """Total banks in one rank."""
        return self.bankgroups_per_rank * self.banks_per_bankgroup

    @property
    def banks_per_channel(self) -> int:
        """Total banks in one channel."""
        return self.banks_per_rank * self.ranks_per_channel

    @property
    def blocks_per_row(self) -> int:
        """Cache blocks (rank-level columns) per DRAM row."""
        return self.row_size_bytes // self.block_size_bytes

    @property
    def regular_rows_per_bank(self) -> int:
        """Rows held in the regular (slow) subarrays of one bank."""
        return self.subarrays_per_bank * self.rows_per_subarray

    @property
    def fast_rows_per_bank(self) -> int:
        """Rows held in the appended fast subarrays of one bank."""
        return self.fast_subarrays_per_bank * self.rows_per_fast_subarray

    @property
    def rows_per_bank(self) -> int:
        """All rows in one bank, regular plus fast."""
        return self.regular_rows_per_bank + self.fast_rows_per_bank

    @property
    def bank_capacity_bytes(self) -> int:
        """Addressable (regular) capacity of one bank in bytes."""
        return self.regular_rows_per_bank * self.row_size_bytes

    @property
    def channel_capacity_bytes(self) -> int:
        """Addressable capacity of one channel in bytes."""
        return self.bank_capacity_bytes * self.banks_per_channel

    # ------------------------------------------------------------------
    # Timing sets.
    # ------------------------------------------------------------------
    def slow_timing_set(self) -> TimingSet:
        """Cycle-domain timings for regular subarrays."""
        return TimingSet.from_timings(self.timings, self.cpu_clock_ghz)

    def fast_timings(self) -> DRAMTimings:
        """Nanosecond timings for fast (short-bitline) subarrays.

        Derived from the regular timings with this configuration's
        per-standard reduction factors (the defaults reproduce
        :func:`~repro.dram.timings.derive_fast_timings`).
        """
        return self.timings.scaled(
            trcd_factor=1.0 - self.fast_trcd_reduction,
            trp_factor=1.0 - self.fast_trp_reduction,
            tras_factor=1.0 - self.fast_tras_reduction)

    def fast_timing_set(self) -> TimingSet:
        """Cycle-domain timings for fast (short-bitline) subarrays."""
        return TimingSet.from_timings(self.fast_timings(),
                                      self.cpu_clock_ghz)

    # ------------------------------------------------------------------
    # Row / subarray helpers.
    # ------------------------------------------------------------------
    def subarray_of_row(self, row: int) -> int:
        """Return the subarray index that holds ``row`` within a bank.

        Regular rows occupy subarrays ``0 .. subarrays_per_bank - 1``; rows in
        appended fast subarrays are numbered after all regular rows and map to
        subarray indices ``subarrays_per_bank ..``.
        """
        if row < 0:
            raise ValueError(f"row index must be non-negative, got {row}")
        if row < self.regular_rows_per_bank:
            return row // self.rows_per_subarray
        fast_row = row - self.regular_rows_per_bank
        if fast_row >= self.fast_rows_per_bank:
            raise ValueError(
                f"row {row} out of range for bank with "
                f"{self.rows_per_bank} rows")
        return self.subarrays_per_bank + fast_row // self.rows_per_fast_subarray

    def is_fast_row(self, row: int) -> bool:
        """Return True when ``row`` resides in a fast (short-bitline) region."""
        if self.all_subarrays_fast:
            return True
        return row >= self.regular_rows_per_bank

    def fast_region_row(self, index: int) -> int:
        """Return the bank-level row id of the ``index``-th fast-region row."""
        if index < 0 or index >= self.fast_rows_per_bank:
            raise ValueError(
                f"fast region row index {index} out of range "
                f"(bank has {self.fast_rows_per_bank} fast rows)")
        return self.regular_rows_per_bank + index

    def validate(self) -> None:
        """Raise ``ValueError`` for configurations that cannot be simulated.

        Run automatically on construction (``__post_init__``); kept public
        because :class:`~repro.dram.device.DRAMDevice` and the address
        mapper also call it defensively on the configs they receive.
        """
        if self.channels <= 0:
            raise ValueError("at least one channel is required")
        if self.block_size_bytes <= 0:
            raise ValueError("block_size_bytes must be positive, got "
                             f"{self.block_size_bytes}")
        if self.row_size_bytes % self.block_size_bytes != 0:
            raise ValueError(
                f"row size ({self.row_size_bytes} B) must be a multiple of "
                f"the cache block size ({self.block_size_bytes} B)")
        if self.blocks_per_row & (self.blocks_per_row - 1):
            raise ValueError(
                f"blocks per row must be a power of two, got "
                f"{self.blocks_per_row} ({self.row_size_bytes} B rows of "
                f"{self.block_size_bytes} B blocks)")
        for name in ("ranks_per_channel", "bankgroups_per_rank",
                     "banks_per_bankgroup", "subarrays_per_bank",
                     "rows_per_subarray"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.fast_subarrays_per_bank < 0:
            raise ValueError("fast_subarrays_per_bank must be non-negative, "
                             f"got {self.fast_subarrays_per_bank}")
        if self.fast_subarrays_per_bank > 0 \
                and self.rows_per_fast_subarray <= 0:
            raise ValueError(
                f"{self.fast_subarrays_per_bank} fast subarray(s) per bank "
                f"need a positive rows_per_fast_subarray, got "
                f"{self.rows_per_fast_subarray}")
        if self.cpu_clock_ghz <= 0:
            raise ValueError(f"cpu_clock_ghz must be positive, got "
                             f"{self.cpu_clock_ghz}")
        if self.refresh_mode not in REFRESH_MODES:
            raise ValueError(
                f"unknown refresh mode {self.refresh_mode!r}; choose one of "
                f"{REFRESH_MODES}")
        if self.refresh_mode == "per-bank" \
                and not (self.timings.trfc_pb_ns or 0) > 0:
            raise ValueError(
                "per-bank refresh needs a positive trfc_pb_ns (tRFCpb) in "
                "the timing table; without it the tRFC fallback would "
                "block each bank for the full all-bank refresh time at "
                "the per-bank cadence")
        for name, value in vars(self.timings).items():
            if value is not None and value < 0:
                raise ValueError(
                    f"timing parameter {name} must be non-negative, got "
                    f"{value} (standard {self.standard!r})")
        for name in ("fast_trcd_reduction", "fast_trp_reduction",
                     "fast_tras_reduction"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")

    # ------------------------------------------------------------------
    # Standard profiles.
    # ------------------------------------------------------------------
    @classmethod
    def from_profile(cls, profile, channels: int = 1,
                     **overrides) -> "DRAMConfig":
        """Build a configuration from a device-catalog profile.

        ``profile`` is a :class:`~repro.dram.standards.DeviceProfile` (or
        anything exposing the same fields).  Fast-subarray layout and other
        mechanism-side knobs are supplied via ``overrides``, exactly as
        keyword arguments to :class:`DRAMConfig`.
        """
        kwargs = dict(
            channels=channels,
            ranks_per_channel=profile.ranks_per_channel,
            bankgroups_per_rank=profile.bankgroups_per_rank,
            banks_per_bankgroup=profile.banks_per_bankgroup,
            subarrays_per_bank=profile.subarrays_per_bank,
            rows_per_subarray=profile.rows_per_subarray,
            row_size_bytes=profile.row_size_bytes,
            timings=profile.timings,
            standard=profile.name,
            refresh_mode=profile.refresh_mode,
            fast_trcd_reduction=profile.fast_trcd_reduction,
            fast_trp_reduction=profile.fast_trp_reduction,
            fast_tras_reduction=profile.fast_tras_reduction,
        )
        kwargs.update(overrides)
        return cls(**kwargs)
