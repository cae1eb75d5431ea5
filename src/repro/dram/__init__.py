"""DRAM device substrate.

This package models the DRAM organization and timing behaviour that the
FIGARO/FIGCache mechanisms are built on: channels, ranks, bank groups, banks,
subarrays, rows, and columns, together with the timing parameters that
govern ACTIVATE / READ / WRITE / PRECHARGE / REFRESH and the new RELOC
command introduced by FIGARO.  The defaults model the paper's DDR4-1600
Table 1 device; other standards (DDR4 speed grades, LPDDR4, HBM2, DDR5)
are built from the device catalog in :mod:`repro.dram.standards`.

The model is event-driven rather than cycle-stepped: each bank tracks the
earliest cycle at which the next command of each kind may be issued, and the
memory controller (``repro.controller``) asks banks to service requests at
specific points in time.  This keeps multi-core simulations fast enough to
run the paper's full experiment matrix in pure Python while preserving the
first-order latency effects (row hits, row misses, row conflicts, bank-level
parallelism, refresh, and relocation occupancy) that the paper's results
depend on.
"""

from repro.dram.address import AddressMapper, DecodedAddress
from repro.dram.bank import Bank
from repro.dram.channel import Channel
from repro.dram.commands import Command
from repro.dram.config import DRAMConfig
from repro.dram.counters import CommandCounters
from repro.dram.device import DRAMDevice
from repro.dram.rank import Rank
from repro.dram.subarray import Subarray
from repro.dram.timings import DRAMTimings, TimingSet, derive_fast_timings

__all__ = [
    "AddressMapper",
    "Bank",
    "Channel",
    "Command",
    "CommandCounters",
    "DRAMConfig",
    "DRAMDevice",
    "DRAMTimings",
    "DecodedAddress",
    "Rank",
    "Subarray",
    "TimingSet",
    "derive_fast_timings",
]
