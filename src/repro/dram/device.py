"""Top-level DRAM device: all channels plus the address mapper."""

from __future__ import annotations

from repro.dram.address import AddressMapper
from repro.dram.channel import Channel
from repro.dram.config import DRAMConfig


class DRAMDevice:
    """The whole simulated DRAM system (every channel)."""

    def __init__(self, config: DRAMConfig, refresh_enabled: bool = True,
                 track_row_activations: bool = False):
        config.validate()
        self._config = config
        self.mapper = AddressMapper(config)
        self.channels = [
            Channel(config, channel_id, refresh_enabled=refresh_enabled,
                    track_row_activations=track_row_activations)
            for channel_id in range(config.channels)
        ]

    @property
    def config(self) -> DRAMConfig:
        """The DRAM configuration used to build this device."""
        return self._config

    def channel(self, channel_id: int) -> Channel:
        """Return one channel by index."""
        return self.channels[channel_id]

    def total_counters(self):
        """Merge command counters across channels into a fresh instance."""
        from repro.dram.counters import CommandCounters

        total = CommandCounters()
        for channel in self.channels:
            total.merge(channel.counters)
        return total
