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
values live in locals), events are only pushed when they can do work,
and the current cycle is assigned directly — the event heap pops in
non-decreasing cycle order because no handler ever schedules into the past.

Bank wake-ups go through one min-heap of ``(cycle, channel, bank)``
entries for the whole run, which every controller pushes to (see
``ChannelController.join_wake_queue``); an entry is stale once its
channel's wake-cycle dict no longer maps the bank to that cycle.  A
``CONTROLLER_WAKE`` event pops the entries due by its cycle and wakes the
one due bank by name, or, when several are due, every channel with one,
in channel order, so the wake cost does not grow with the channel count.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import sys
from contextlib import contextmanager
from dataclasses import dataclass

from repro.controller.channel_controller import ChannelController
from repro.controller.request import MemoryRequest
from repro.cpu.core import TraceCore
from repro.dram.address import AddressMapper

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

    __slots__ = ('_cores', '_channel_controllers', '_mapper', '_limits',
                 '_events', '_sequence', '_now', '_scheduled_wake',
                 '_telemetry', 'processed_events')

    def __init__(self, cores: list[TraceCore],
                 channel_controllers: list[ChannelController],
                 mapper: AddressMapper,
                 limits: SimulatorLimits | None = None,
                 telemetry=None):
        if not cores:
            raise ValueError("at least one core is required")
        self._cores = cores
        #: One controller per channel, in channel order; ``mapper`` routes
        #: each arriving request to its channel's controller.
        self._channel_controllers = channel_controllers
        self._mapper = mapper
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
        channel_controllers = tuple(self._channel_controllers)
        cores = self._cores
        max_cycles = self._limits.max_cycles
        max_events = self._limits.max_events
        #: The run's one wake-up queue, and each channel's bank ->
        #: wake-cycle dict.  Controllers push to the queue and mutate the
        #: dicts in place, never rebinding either (checked after the loop).
        wake_queue: list[tuple[int, int, int]] = []
        wakeups = tuple(cc.join_wake_queue(wake_queue, channel)
                        for channel, cc in enumerate(channel_controllers))
        #: Cycle of the earliest CONTROLLER_WAKE event queued, so that
        #: wake-ups do not flood the event heap with duplicates.
        scheduled_wake = self._scheduled_wake
        #: The shared route memo of this device's geometry, probed inline;
        #: a miss goes through AddressMapper.route, its only writer.  The
        #: memo is cleared in place when full, never rebound, so this
        #: reference stays live for the whole run.
        routes = self._mapper.routes
        route_miss = self._mapper.route
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
                # Route to the request's channel (memo probe inline).
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
                if scheduled_wake is not None and scheduled_wake <= cycle:
                    scheduled_wake = None
                # Pop the entries due by now; the live ones are exactly the
                # banks a full wake pass would find due.  A superseded event
                # (pushing an earlier CONTROLLER_WAKE cannot remove it from
                # the event heap) finds none.  due_channels is set once a
                # second live entry is due.
                due = None
                due_channels = None
                while wake_queue and wake_queue[0][0] <= cycle:
                    head = heappop(wake_queue)
                    if wakeups[head[1]].get(head[2]) != head[0]:
                        continue
                    if due is None:
                        due = head
                    elif due_channels is None:
                        due_channels = {due[1], head[1]}
                    else:
                        due_channels.add(head[1])
                if due is not None:
                    if due_channels is None:
                        woken = channel_controllers[due[1]].wake(cycle,
                                                                 due[2])
                    else:
                        woken = []
                        for channel in sorted(due_channels):
                            woken.extend(
                                channel_controllers[channel].wake(cycle))
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
            # Push a CONTROLLER_WAKE for the earliest live wake-up unless
            # one is already queued at or before that cycle.
            while wake_queue:
                wake, channel, bank = wake_queue[0]
                if wakeups[channel].get(bank) == wake:
                    if wake < cycle:
                        wake = cycle
                    if scheduled_wake is None or scheduled_wake > wake:
                        scheduled_wake = wake
                        heappush(events, (wake, next(sequence),
                                          _CONTROLLER_WAKE, None))
                    break
                heappop(wake_queue)
        self._now = max(self._now, cycle)
        self.processed_events = processed
        self._scheduled_wake = scheduled_wake
        if __debug__:
            for cc, live in zip(channel_controllers, wakeups):
                assert cc._wakeup_heap is wake_queue \
                    and cc._wakeup_cycle is live, (
                        "ChannelController rebound its wake-up structures "
                        "mid-run; the loop's hoisted queue and dicts went "
                        "stale (see ChannelController.join_wake_queue)")

        # Flush any writes still sitting in the controller queues so that
        # command counts and energy reflect the whole workload.
        finish_cycle = max((core.stats.finish_cycle for core in self._cores),
                          default=self._now)
        drained = [cc.drain_all(self._now)[0] for cc in channel_controllers]
        self._now = max(self._now, finish_cycle, *drained)
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
