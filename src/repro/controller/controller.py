"""Top-level memory controller spanning all channels.

The :class:`MemoryController` routes each request to its channel's
:class:`~repro.controller.channel_controller.ChannelController` using the
address mapping, and aggregates completion statistics across channels.
"""

from __future__ import annotations

from heapq import heappop

from repro.controller.channel_controller import ChannelController
from repro.controller.request import MemoryRequest
from repro.controller.scheduler import SchedulerConfig
from repro.core.mechanism import CachingMechanism
from repro.dram.device import DRAMDevice


class MemoryController:
    """All per-channel controllers plus request routing."""

    __slots__ = ('_device', 'channel_controllers', '_controllers_tuple')

    def __init__(self, device: DRAMDevice,
                 mechanisms: list[CachingMechanism],
                 scheduler_config: SchedulerConfig | None = None):
        if len(mechanisms) != len(device.channels):
            raise ValueError(
                "one caching mechanism instance is required per channel "
                f"(got {len(mechanisms)} for {len(device.channels)} channels)")
        self._device = device
        self.channel_controllers = [
            ChannelController(channel, mechanism, scheduler_config)
            for channel, mechanism in zip(device.channels, mechanisms)
        ]
        #: Tuple copy for the per-event wake-up scan (tuple iteration is
        #: slightly cheaper than list iteration, and the set of channels
        #: never changes).
        self._controllers_tuple = tuple(self.channel_controllers)

    @property
    def device(self) -> DRAMDevice:
        """The DRAM device driven by this controller."""
        return self._device

    def route(self, request: MemoryRequest) -> ChannelController:
        """Decode the request's address and return its channel controller.

        Routes come from :meth:`AddressMapper.route`, memoized process-wide
        per address-mapping geometry.
        """
        request.decoded, request.flat_bank, channel = \
            self._device.mapper.route(request.address)
        return self.channel_controllers[channel]

    def enqueue(self, request: MemoryRequest, now: int) -> list[MemoryRequest]:
        """Route and enqueue a request; returns newly completed requests."""
        return self.route(request).enqueue(request, now)

    def wake(self, now: int) -> list[MemoryRequest]:
        """Give every channel a chance to issue requests at cycle ``now``."""
        completed: list[MemoryRequest] = []
        for controller in self._controllers_tuple:
            if controller._wakeup_cycle:
                completed.extend(controller.wake(now))
        return completed

    def next_wakeup(self) -> int | None:
        """Earliest wake-up cycle needed by any channel, or None.

        Each channel answers from its lazily-invalidated wake-up heap, so
        this is O(channels) rather than O(pending banks).  The per-channel
        heap peek is inlined: this runs after every controller-facing
        event, and a method call per channel is measurable.
        """
        earliest = None
        for controller in self._controllers_tuple:
            heap = controller._wakeup_heap
            live = controller._wakeup_cycle
            while heap:
                head = heap[0]
                if live.get(head[1]) == head[0]:
                    cycle = head[0]
                    if earliest is None or cycle < earliest:
                        earliest = cycle
                    break
                heappop(heap)
        return earliest

    def has_pending_work(self) -> bool:
        """True while any channel still has queued requests."""
        return any(controller.has_pending_work()
                   for controller in self.channel_controllers)

    def drain_all(self, now: int) -> int:
        """Flush all queues; returns the cycle the last request finished."""
        last = now
        for controller in self.channel_controllers:
            finished, _ = controller.drain_all(now)
            last = max(last, finished)
        return last

    # ------------------------------------------------------------------
    # Aggregate statistics.
    # ------------------------------------------------------------------
    @property
    def completed_reads(self) -> int:
        """Reads completed across all channels."""
        return sum(controller.completed_reads
                   for controller in self.channel_controllers)

    @property
    def completed_writes(self) -> int:
        """Writes completed across all channels."""
        return sum(controller.completed_writes
                   for controller in self.channel_controllers)

    def average_read_latency(self) -> float:
        """Mean read latency in cycles across all channels."""
        total_latency = sum(controller.total_read_latency
                            for controller in self.channel_controllers)
        total_reads = self.completed_reads
        if total_reads == 0:
            return 0.0
        return total_latency / total_reads

    def read_latency_histogram(self):
        """Read-latency distribution merged across all channels."""
        from repro.sim.telemetry import LatencyHistogram
        merged = LatencyHistogram()
        for controller in self.channel_controllers:
            merged.merge(controller.read_latency_histogram())
        return merged

    def write_latency_histogram(self):
        """Write-latency distribution merged across all channels."""
        from repro.sim.telemetry import LatencyHistogram
        merged = LatencyHistogram()
        for controller in self.channel_controllers:
            merged.merge(controller.write_latency_histogram())
        return merged

    def queue_depths(self) -> list[int]:
        """Instantaneous read+write queue occupancy per channel."""
        return [controller.read_queue_occupancy
                + controller.write_queue_occupancy
                for controller in self.channel_controllers]
