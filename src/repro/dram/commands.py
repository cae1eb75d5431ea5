"""DRAM command vocabulary.

The set of commands issued by the memory controller to the DRAM device.
``RELOC`` is the new command introduced by the FIGARO substrate (paper
Section 4.1): it copies one column of data between the local row buffers of
two subarrays in the same bank through the global row buffer.
"""

from __future__ import annotations

import enum


class Command(enum.Enum):
    """Commands the memory controller can issue to a DRAM bank or rank."""

    #: Open (activate) a row: latch its contents into the local row buffer.
    ACTIVATE = "ACT"
    #: Close the open row and prepare bitlines for the next activation.
    PRECHARGE = "PRE"
    #: Read one column (one cache block across the rank) from the open row.
    READ = "RD"
    #: Write one column into the open row.
    WRITE = "WR"
    #: All-bank refresh for one rank.
    REFRESH = "REF"
    #: FIGARO column relocation between two local row buffers via the GRB.
    RELOC = "RELOC"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value
