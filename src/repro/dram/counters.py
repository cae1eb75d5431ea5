"""Command and event counters used for statistics and energy accounting."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dram.commands import Command


@dataclass
class CommandCounters:
    """Counts of DRAM commands and access outcomes.

    One instance is kept per channel; the energy model and the experiment
    metrics consume these counts after a simulation finishes.
    """

    activates: int = 0
    precharges: int = 0
    reads: int = 0
    writes: int = 0
    refreshes: int = 0
    relocs: int = 0
    #: ACTIVATE/READ/WRITE issued to fast (short-bitline) regions.
    fast_activates: int = 0
    fast_reads: int = 0
    fast_writes: int = 0
    #: Access outcome classification for row-buffer statistics.
    row_hits: int = 0
    row_misses: int = 0
    row_conflicts: int = 0
    #: Per-row activation counts (only populated when tracking is enabled,
    #: used by the RowHammer-style activation-concentration experiment).
    row_activation_counts: dict = field(default_factory=dict)
    track_row_activations: bool = False

    def record_command(self, command: Command, fast: bool = False) -> None:
        """Record a single command issue."""
        if command is Command.ACTIVATE:
            self.activates += 1
            if fast:
                self.fast_activates += 1
        elif command is Command.PRECHARGE:
            self.precharges += 1
        elif command is Command.READ:
            self.reads += 1
            if fast:
                self.fast_reads += 1
        elif command is Command.WRITE:
            self.writes += 1
            if fast:
                self.fast_writes += 1
        elif command is Command.REFRESH:
            self.refreshes += 1
        elif command is Command.RELOC:
            self.relocs += 1
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown command {command!r}")

    def record_row_activation(self, bank_key: tuple, row: int) -> None:
        """Record which row was activated (for activation-locality studies)."""
        if not self.track_row_activations:
            return
        key = (bank_key, row)
        self.row_activation_counts[key] = \
            self.row_activation_counts.get(key, 0) + 1

    @property
    def column_accesses(self) -> int:
        """Total READ plus WRITE commands."""
        return self.reads + self.writes

    @property
    def row_buffer_hit_rate(self) -> float:
        """Fraction of accesses that hit an already-open row."""
        total = self.row_hits + self.row_misses + self.row_conflicts
        if total == 0:
            return 0.0
        return self.row_hits / total

    def to_dict(self) -> dict:
        """JSON-serialisable form (used by the persistent result cache).

        ``row_activation_counts`` keys are ``(bank_key, row)`` tuples, which
        JSON cannot represent directly; they are flattened to
        ``[[*bank_key], row, count]`` triples and rebuilt by
        :meth:`from_dict`.
        """
        return {
            "activates": self.activates,
            "precharges": self.precharges,
            "reads": self.reads,
            "writes": self.writes,
            "refreshes": self.refreshes,
            "relocs": self.relocs,
            "fast_activates": self.fast_activates,
            "fast_reads": self.fast_reads,
            "fast_writes": self.fast_writes,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "row_conflicts": self.row_conflicts,
            "track_row_activations": self.track_row_activations,
            "row_activation_counts": [
                [list(bank_key), row, count]
                for (bank_key, row), count
                in sorted(self.row_activation_counts.items())],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CommandCounters":
        """Rebuild counters from :meth:`to_dict` output."""
        counts = {(tuple(bank_key), row): count
                  for bank_key, row, count in data["row_activation_counts"]}
        return cls(
            activates=data["activates"],
            precharges=data["precharges"],
            reads=data["reads"],
            writes=data["writes"],
            refreshes=data["refreshes"],
            relocs=data["relocs"],
            fast_activates=data["fast_activates"],
            fast_reads=data["fast_reads"],
            fast_writes=data["fast_writes"],
            row_hits=data["row_hits"],
            row_misses=data["row_misses"],
            row_conflicts=data["row_conflicts"],
            track_row_activations=data["track_row_activations"],
            row_activation_counts=counts,
        )

    def merge(self, other: "CommandCounters") -> None:
        """Accumulate another counter set into this one."""
        self.activates += other.activates
        self.precharges += other.precharges
        self.reads += other.reads
        self.writes += other.writes
        self.refreshes += other.refreshes
        self.relocs += other.relocs
        self.fast_activates += other.fast_activates
        self.fast_reads += other.fast_reads
        self.fast_writes += other.fast_writes
        self.row_hits += other.row_hits
        self.row_misses += other.row_misses
        self.row_conflicts += other.row_conflicts
        for key, count in other.row_activation_counts.items():
            self.row_activation_counts[key] = \
                self.row_activation_counts.get(key, 0) + count
