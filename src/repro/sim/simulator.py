"""Global event-driven simulation loop.

The :class:`Simulator` co-simulates the trace-driven cores and the memory
system.  Three event kinds drive it:

* ``CORE_RUN`` — a core can make progress (at the start of the simulation,
  or after a memory completion unblocked it);
* ``REQUEST_ARRIVAL`` — a memory request issued by a core reaches the memory
  controller at its issue cycle;
* ``CONTROLLER_WAKE`` — a bank that had pending work becomes free and the
  controller should try to schedule again.

Events are processed in global time order, so the memory controller always
sees request arrivals from different cores correctly interleaved.

The main loop is written for throughput: handler dispatch and the safety
limits are hoisted out of the per-event path (bound methods and limit
values live in locals), events are only pushed when they can do work
(superseded ``CONTROLLER_WAKE`` events left in the heap are dropped with an
O(1) peek at the controller's wake-up heap instead of a full wake pass),
and the current cycle is assigned directly — the event heap pops in
non-decreasing cycle order because no handler ever schedules into the past.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import sys
from contextlib import contextmanager
from dataclasses import dataclass

from repro.controller.controller import MemoryController
from repro.controller.request import MemoryRequest
from repro.cpu.core import TraceCore

_CORE_RUN = 0
_REQUEST_ARRIVAL = 1
_CONTROLLER_WAKE = 2

#: Nesting depth of active simulation runs in this process, with the
#: interpreter state saved when the first run entered.  The guard keeps
#: overlapping runs (nested or on other threads) from restoring the
#: cyclic-GC / switch-interval state mid-way through an outer run.
_active_runs = 0
_saved_gc_enabled = False
_saved_switch_interval = 0.0


@contextmanager
def interpreter_run_guard():
    """Suspend cyclic GC and raise the GIL switch interval for one run.

    The simulation event loop allocates heavily (requests, events,
    results) but creates no reference cycles — plain reference counting
    reclaims everything.  Cyclic-GC passes triggered by the allocation
    rate would only scan the heap for nothing, so they are suspended for
    the duration of the run.  The GIL switch interval is raised for the
    same reason: the loop is single-threaded and pure Python, so
    frequent bytecode-level preemption checks buy nothing (1 s keeps any
    co-resident threads schedulable, unlike a multi-second value, while
    capturing essentially all of the benefit).  Re-entrant, restoring the
    saved interpreter state only when the outermost run exits.
    """
    global _active_runs, _saved_gc_enabled, _saved_switch_interval
    if _active_runs == 0:
        _saved_gc_enabled = gc.isenabled()
        _saved_switch_interval = sys.getswitchinterval()
        gc.disable()
        sys.setswitchinterval(1.0)
    _active_runs += 1
    try:
        yield
    finally:
        _active_runs -= 1
        if _active_runs == 0:
            sys.setswitchinterval(_saved_switch_interval)
            if _saved_gc_enabled:
                gc.enable()


@dataclass
class SimulatorLimits:
    """Safety limits for one simulation run."""

    #: Hard cap on simulated cycles (guards against livelock in development).
    max_cycles: int = 5_000_000_000
    #: Hard cap on processed events.
    max_events: int = 200_000_000


class Simulator:
    """Event-driven co-simulation of cores and the memory system."""

    __slots__ = ('_cores', '_controller', '_limits', '_events', '_sequence',
                 '_now', '_scheduled_wake', '_telemetry', 'processed_events')

    def __init__(self, cores: list[TraceCore], controller: MemoryController,
                 limits: SimulatorLimits | None = None,
                 telemetry=None):
        if not cores:
            raise ValueError("at least one core is required")
        self._cores = cores
        self._controller = controller
        self._limits = limits or SimulatorLimits()
        #: Optional epoch sampler (:class:`repro.sim.telemetry.Telemetry`).
        #: The loop compares the clock against its next epoch boundary and
        #: lets it observe the system at each crossing; with telemetry off
        #: the boundary is an unreachable sentinel, so the only residual
        #: cost is one integer comparison per event.
        self._telemetry = telemetry
        self._events: list[tuple[int, int, int, object]] = []
        self._sequence = itertools.count()
        self._now = 0
        #: Cycle of the earliest CONTROLLER_WAKE event currently queued, used
        #: to avoid flooding the event heap with duplicate wake-ups.
        self._scheduled_wake: int | None = None
        self.processed_events = 0

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    # ------------------------------------------------------------------
    # Event helpers.
    # ------------------------------------------------------------------
    def _push(self, cycle: int, kind: int, payload: object) -> None:
        heapq.heappush(self._events,
                       (cycle, next(self._sequence), kind, payload))

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Run until every core finishes its trace; returns the final cycle."""
        with interpreter_run_guard():
            return self._run()

    def _run(self) -> int:
        for core in self._cores:
            self._push(0, _CORE_RUN, core)

        events = self._events
        heappop = heapq.heappop
        heappush = heapq.heappush
        sequence = self._sequence
        controller = self._controller
        cores = self._cores
        max_cycles = self._limits.max_cycles
        max_events = self._limits.max_events
        #: The per-channel (wake-up heap, live wake cycle) pairs, hoisted so
        #: the loop peeks the lazily-invalidated heaps directly instead of
        #: calling MemoryController.next_wakeup after every event (the
        #: invalidation rule matches ChannelController.next_wakeup: a head
        #: whose cycle disagrees with the live dict is stale).  The
        #: snapshot stays live by the wakeup_view accessor contract (no
        #: rebinding after construction), verified after the loop.
        wakeup_views = [cc.wakeup_view()
                        for cc in controller.channel_controllers]
        #: With one channel (every single-core job) wake delivery can skip
        #: the MemoryController fan-out entirely.
        single_controller = controller.channel_controllers[0] \
            if len(controller.channel_controllers) == 1 else None
        #: The shared route memo of this device's geometry, probed inline;
        #: a miss goes through AddressMapper.route, its only writer.  The
        #: memo is cleared in place when full, never rebound, so this
        #: reference stays live for the whole run.
        routes = controller.device.mapper.routes
        route_miss = controller.device.mapper.route
        channel_controllers = controller.channel_controllers
        processed = self.processed_events
        telemetry = self._telemetry
        #: Next telemetry epoch boundary; with telemetry off the sentinel
        #: sits past max_cycles (the limit check fires first), so the
        #: per-event cost of the disabled path is this one comparison.
        epoch_end = telemetry.next_epoch if telemetry is not None \
            else max_cycles + 1
        cycle = 0
        while events:
            cycle, _, kind, payload = heappop(events)
            # Events pop in non-decreasing cycle order (nothing schedules
            # into the past), so the clock advances monotonically; _now is
            # written back after the loop (nothing reads it mid-loop).
            # Limits are checked against the state *before* this event is
            # counted, so the error reports the true processed-event count.
            if cycle > max_cycles or processed >= max_events:
                self._now = cycle
                self.processed_events = processed
                self._raise_limit(cycle)
            if cycle >= epoch_end:
                # Sample every boundary crossed before this event's effects
                # apply; pure observation, so timing is unperturbed.
                epoch_end = telemetry.advance(cycle)
            processed += 1

            if kind == _REQUEST_ARRIVAL:
                # Inline MemoryController.enqueue (route probe + delegate).
                entry = routes.get(payload.address)
                if entry is None:
                    entry = route_miss(payload.address)
                payload.decoded, payload.flat_bank, channel = entry
                completed = channel_controllers[channel].enqueue(payload,
                                                                 cycle)
                # Deliver read completions; a core they unblock gets a
                # CORE_RUN at the completion cycle.
                for request in completed:
                    if request.is_write:
                        continue
                    core = cores[request.core_id]
                    completion_cycle = request.completion_cycle
                    if core.notify_completion(request.address,
                                              completion_cycle):
                        heappush(events, (completion_cycle, next(sequence),
                                          _CORE_RUN, core))
            elif kind == _CORE_RUN:
                # Turn the core's issued requests into REQUEST_ARRIVAL
                # events.
                issued_requests = payload.run_requests(cycle)
                if issued_requests:
                    core_id = payload.core_id
                    for issue_cycle, address, is_write in issued_requests:
                        heappush(events,
                                 (issue_cycle, next(sequence),
                                  _REQUEST_ARRIVAL,
                                  MemoryRequest(core_id, address, is_write,
                                                issue_cycle)))
                continue
            else:
                # CONTROLLER_WAKE, inlined because wake events dominate
                # some workloads.
                if self._scheduled_wake is not None \
                        and self._scheduled_wake <= cycle:
                    self._scheduled_wake = None
                # A wake event is stale when an earlier wake already
                # serviced the banks it was scheduled for (pushing an
                # earlier CONTROLLER_WAKE cannot remove the superseded one
                # from the heap).  Peeking at the wake-up heaps is O(1); a
                # full wake pass would walk every channel's pending banks
                # just to find nothing due.
                next_due = None
                for heap, live in wakeup_views:
                    while heap:
                        head = heap[0]
                        if live.get(head[1]) == head[0]:
                            if next_due is None or head[0] < next_due:
                                next_due = head[0]
                            break
                        heappop(heap)
                if next_due is None:
                    continue
                if next_due <= cycle:
                    if single_controller is not None:
                        woken = single_controller.wake(cycle)
                    else:
                        woken = controller.wake(cycle)
                    for request in woken:
                        if request.is_write:
                            continue
                        core = cores[request.core_id]
                        completion_cycle = request.completion_cycle
                        if core.notify_completion(request.address,
                                                  completion_cycle):
                            heappush(events,
                                     (completion_cycle, next(sequence),
                                      _CORE_RUN, core))
            # Push a CONTROLLER_WAKE for the earliest pending bank unless
            # one is already queued at or before that cycle.
            wake = None
            for heap, live in wakeup_views:
                while heap:
                    head = heap[0]
                    if live.get(head[1]) == head[0]:
                        if wake is None or head[0] < wake:
                            wake = head[0]
                        break
                    heappop(heap)
            if wake is not None:
                if wake < cycle:
                    wake = cycle
                scheduled = self._scheduled_wake
                if scheduled is None or scheduled > wake:
                    self._scheduled_wake = wake
                    heappush(events,
                             (wake, next(sequence), _CONTROLLER_WAKE, None))
        self._now = max(self._now, cycle)
        self.processed_events = processed
        if __debug__:
            for (heap, live), cc in zip(wakeup_views,
                                        controller.channel_controllers):
                current_heap, current_live = cc.wakeup_view()
                assert heap is current_heap and live is current_live, (
                    "ChannelController rebound its wake-up structures "
                    "mid-run; the hoisted wakeup_views snapshot went "
                    "stale (see ChannelController.wakeup_view)")

        # Flush any writes still sitting in the controller queues so that
        # command counts and energy reflect the whole workload.
        finish_cycle = max((core.stats.finish_cycle for core in self._cores),
                          default=self._now)
        drain_cycle = self._controller.drain_all(self._now)
        self._now = max(self._now, drain_cycle, finish_cycle)
        if telemetry is not None:
            # Close the trailing partial epoch (includes the write drain).
            telemetry.finalize(self._now)
        return finish_cycle

    def _raise_limit(self, cycle: int) -> None:
        """Report which safety limit the next event would exceed."""
        if cycle > self._limits.max_cycles:
            raise RuntimeError(
                f"simulation exceeded {self._limits.max_cycles} cycles")
        raise RuntimeError(
            f"simulation exceeded {self._limits.max_events} events "
            f"({self.processed_events} processed)")
