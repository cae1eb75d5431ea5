"""Per-channel memory controller: queues, scheduling, and service.

The :class:`ChannelController` owns one channel's read and write queues and
decides, whenever a bank is (or becomes) free, which queued request to issue
next using FR-FCFS.  The actual service — including any in-DRAM cache lookup
and relocation — is delegated to the configured caching mechanism.

Queues are indexed per bank: ``dict[flat_bank, deque]`` for reads and for
writes, maintained on enqueue and dequeue, so every scheduling attempt
consults only the candidates of the bank being scheduled instead of
re-filtering the whole channel's queues (the pre-PR-2 behaviour, which made
each pick O(queued requests) per bank).  Each per-bank deque is kept in
ascending ``request_id`` order — the FCFS order the scheduler's tie-breaks
are defined over — so "oldest request" is the front of the deque.  Requests
almost always arrive in id order; the rare out-of-order arrival (a core
that ran far ahead issues a request whose arrival cycle lands after a
younger core's) is insertion-sorted from the back.

Bank wake-ups are tracked two ways: an insertion-ordered ``dict`` mapping
each pending bank to its wake cycle (the order banks are re-examined in —
it determines shared-bus interleaving and must stay stable), and a
lazily-invalidated min-heap over ``(cycle, bank)`` entries that answers
:meth:`next_wakeup` in O(1) amortised instead of a ``min()`` scan per
event.  Heap entries whose cycle no longer matches the dict are stale and
skipped on pop.

The controller is event-driven.  Two entry points matter to the simulator:

* :meth:`enqueue` — a new request arrives; returns any newly completed
  requests (scheduling is attempted immediately).
* :meth:`wake` — a previously busy bank may have become free; returns newly
  completed requests.

Both return completed requests rather than scheduling callbacks so that the
surrounding simulator (``repro.sim``) can turn them into core wake-up events.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from repro.controller.request import MemoryRequest
from repro.controller.scheduler import FRFCFSScheduler, SchedulerConfig
from repro.core.mechanism import CachingMechanism
from repro.dram.channel import Channel

#: Shared empty candidate list for banks with no pending work of a class.
_NO_REQUESTS: tuple = ()


class ChannelController:
    """Request queues and scheduling for one memory channel."""

    __slots__ = ('_channel', '_mechanism', '_scheduler', '_reads_by_bank',
                 '_writes_by_bank', '_read_count', '_write_count',
                 '_drain_mode', '_wakeup_cycle', '_wakeup_heap',
                 '_drain_high', '_drain_low', '_row_of', '_direct_access',
                 'completed_reads', 'completed_writes',
                 'read_latencies', 'write_latencies', 'tracer')

    def __init__(self, channel: Channel, mechanism: CachingMechanism,
                 scheduler_config: SchedulerConfig | None = None):
        self._channel = channel
        self._mechanism = mechanism
        self._scheduler = FRFCFSScheduler(scheduler_config)
        #: Per-bank pending requests in FCFS (request_id) order.
        self._reads_by_bank: dict[int, deque[MemoryRequest]] = {}
        self._writes_by_bank: dict[int, deque[MemoryRequest]] = {}
        #: Channel-wide queue occupancies (the per-bank dicts only hold
        #: non-empty deques, so totals are tracked separately).
        self._read_count = 0
        self._write_count = 0
        self._drain_mode = False
        #: Banks with work pending but currently busy, mapped to the cycle
        #: at which they should be re-examined.  Insertion order is the
        #: order due banks are scheduled in.
        self._wakeup_cycle: dict[int, int] = {}
        #: Min-heap over (cycle, bank); entries not matching
        #: ``_wakeup_cycle`` are stale and skipped lazily.
        self._wakeup_heap: list[tuple[int, int]] = []
        #: Hot-path configuration and dispatch, hoisted once.
        config = self._scheduler.config
        self._drain_high = config.write_drain_high_watermark
        self._drain_low = config.write_drain_low_watermark
        #: Row-remap hook handed to the scheduler: None when the mechanism
        #: never redirects requests, so FR-FCFS reads the address row
        #: directly (see ``CachingMechanism.remaps_rows``).
        self._row_of = self._effective_row if mechanism.remaps_rows else None
        #: Direct-access mechanisms (no in-DRAM cache) are served straight
        #: through Channel.access (see CachingMechanism.direct_access).
        self._direct_access = mechanism.direct_access
        #: Completed request statistics.  Latencies (completion minus
        #: arrival) are counted exactly per distinct value — the storage
        #: behind both the mean-latency metric and the telemetry layer's
        #: percentile queries (see :mod:`repro.sim.telemetry`).
        self.completed_reads = 0
        self.completed_writes = 0
        self.read_latencies: dict[int, int] = {}
        self.write_latencies: dict[int, int] = {}
        #: Optional event tracer (see :mod:`repro.sim.tracing`).  ``None``
        #: when tracing is off; the service paths pay one ``is not None``
        #: check per serviced request.
        self.tracer = None

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def channel(self) -> Channel:
        """The DRAM channel driven by this controller."""
        return self._channel

    @property
    def mechanism(self) -> CachingMechanism:
        """The in-DRAM caching mechanism in use."""
        return self._mechanism

    @property
    def read_queue_occupancy(self) -> int:
        """Number of reads currently queued."""
        return self._read_count

    @property
    def write_queue_occupancy(self) -> int:
        """Number of writes currently queued."""
        return self._write_count

    def has_pending_work(self) -> bool:
        """True while any request is still queued."""
        return bool(self._read_count or self._write_count)

    def wakeup_view(self) -> tuple[list, dict]:
        """The live ``(wake-up heap, wake-cycle dict)`` pair of this channel.

        Accessor contract: the controller never rebinds ``_wakeup_heap``
        or ``_wakeup_cycle`` after construction — both are mutated in
        place — so a snapshot taken once per simulation run stays live for
        the whole run.  The simulator's event loop peeks these structures
        directly instead of calling :meth:`next_wakeup` per event and
        verify the contract with a debug assertion at the end of the run
        (a subclass that rebinds either attribute would silently desync
        the snapshot otherwise).
        """
        return self._wakeup_heap, self._wakeup_cycle

    def next_wakeup(self) -> int | None:
        """Earliest cycle at which a busy bank with pending work frees up.

        Answered from the lazily-invalidated min-heap: stale heads (entries
        superseded by an earlier wake-up or already woken) are popped until
        the head matches the live per-bank wake cycle.  KEEP the stale-head
        rule IN SYNC with the inlined peeks in ``Simulator._run``.
        """
        heap = self._wakeup_heap
        live = self._wakeup_cycle
        while heap:
            cycle, bank = heap[0]
            if live.get(bank) == cycle:
                return cycle
            heappop(heap)
        return None

    # ------------------------------------------------------------------
    # Event entry points.
    # ------------------------------------------------------------------
    def enqueue(self, request: MemoryRequest, now: int) -> list[MemoryRequest]:
        """Accept a new request and try to schedule its bank immediately."""
        if request.decoded is None or request.flat_bank < 0:
            raise ValueError("request must be decoded before enqueueing")
        flat_bank = request.flat_bank
        if request.is_write:
            index = self._writes_by_bank
            self._write_count += 1
            if not self._drain_mode \
                    and self._write_count >= self._drain_high:
                self._drain_mode = True
        else:
            index = self._reads_by_bank
            # Fast path: a read arriving for a bank with no other pending
            # requests and no bank busy time left is picked unconditionally
            # by FR-FCFS (a sole read candidate wins under every mode), so
            # the queue insertion, pick, and dequeue can all be skipped.
            # No wake-up bookkeeping is needed: the bank had no pending
            # work, so no wake-up entry can exist for it.
            if flat_bank not in index \
                    and flat_bank not in self._writes_by_bank \
                    and self._channel.bank(flat_bank).ready_for_next <= now:
                self._service(request, now)
                return [request]
            self._read_count += 1
        queue = index.get(flat_bank)
        if queue is None:
            index[flat_bank] = deque((request,))
        elif queue[-1].request_id < request.request_id:
            queue.append(request)
        else:
            # Rare out-of-order arrival: restore FCFS (request_id) order.
            position = len(queue) - 1
            request_id = request.request_id
            while position > 0 and queue[position - 1].request_id > request_id:
                position -= 1
            queue.insert(position, request)
        # Busy bank: record the wake-up and return without entering the
        # scheduling loop (arrivals burst while a bank serves, so this is
        # the common slow-path outcome).
        ready_at = self._channel.bank(flat_bank).ready_for_next
        if ready_at > now:
            self._note_wakeup(flat_bank, ready_at)
            return []
        return self._try_schedule_bank(flat_bank, now)

    def wake(self, now: int) -> list[MemoryRequest]:
        """Re-attempt scheduling on banks whose wake-up time has arrived."""
        wakeups = self._wakeup_cycle
        if not wakeups:
            return []
        if len(wakeups) == 1:
            # Common case: exactly one busy bank is pending.
            bank, cycle = next(iter(wakeups.items()))
            if cycle > now:
                return []
            del wakeups[bank]
            return self._try_schedule_bank(bank, now)
        due = [bank for bank, cycle in wakeups.items() if cycle <= now]
        if not due:
            return []
        for bank in due:
            del wakeups[bank]
        completed: list[MemoryRequest] = []
        for bank in due:
            completed.extend(self._try_schedule_bank(bank, now))
        return completed

    def drain_all(self, now: int) -> tuple[int, list[MemoryRequest]]:
        """Service every queued request, ignoring future arrivals.

        Used at the end of a simulation to flush outstanding writes.  Returns
        the cycle at which the last request finished and the completed
        requests.
        """
        completed: list[MemoryRequest] = []
        current = now
        while self._read_count or self._write_count:
            progressed = False
            banks = sorted(self._reads_by_bank.keys()
                           | self._writes_by_bank.keys())
            for bank in banks:
                served = self._try_schedule_bank(bank, current,
                                                 force_writes=True)
                if served:
                    progressed = True
                    completed.extend(served)
            if not progressed:
                wake = self.next_wakeup()
                current = wake if wake is not None else current + 1
                self._wakeup_cycle.clear()
                self._wakeup_heap.clear()
        last = max((req.completion_cycle for req in completed), default=now)
        return last, completed

    # ------------------------------------------------------------------
    # Scheduling internals.
    # ------------------------------------------------------------------
    def _try_schedule_bank(self, flat_bank: int, now: int,
                           force_writes: bool = False) -> list[MemoryRequest]:
        """Issue as many requests as the bank allows starting at ``now``."""
        completed: list[MemoryRequest] = []
        bank = self._channel.bank(flat_bank)
        reads_by_bank = self._reads_by_bank
        writes_by_bank = self._writes_by_bank
        pick = self._scheduler.pick
        row_of = self._row_of
        # Every mechanism reports the bank's post-service readiness in
        # ``ServiceResult.bank_busy_until``, so only the first iteration
        # reads the bank's ``ready_for_next``.
        ready_at = bank.ready_for_next
        while True:
            if ready_at > now:
                self._note_wakeup(flat_bank, ready_at)
                break
            bank_reads = reads_by_bank.get(flat_bank)
            bank_writes = writes_by_bank.get(flat_bank)
            if bank_writes is None:
                if bank_reads is None:
                    break
                if len(bank_reads) == 1:
                    # A sole read candidate wins under every scheduling
                    # mode; skip the pick.
                    request = bank_reads[0]
                else:
                    request = pick(bank, bank_reads, _NO_REQUESTS,
                                   self._write_count,
                                   self._drain_mode or force_writes, row_of)
            else:
                drain = self._drain_mode or force_writes
                if bank_reads is None and not drain \
                        and self._write_count < self._drain_low:
                    # Writes only, but neither draining nor enough write
                    # backlog: the scheduler would hold them back.
                    break
                request = pick(bank,
                               bank_reads if bank_reads is not None
                               else _NO_REQUESTS,
                               bank_writes,
                               self._write_count, drain, row_of)
            if request is None:
                break
            self._dequeue(request)
            ready_at = self._service(request, now)
            completed.append(request)
        return completed

    def _effective_row(self, request: MemoryRequest) -> int:
        return self._mechanism.effective_row(self._channel, request.decoded,
                                             request.flat_bank)

    def _service(self, request: MemoryRequest, now: int) -> int:
        """Service one picked request; returns the bank's next ready cycle.

        The one service path: the scheduling loop and the enqueue fast path
        both call it.  For direct-access mechanisms (no in-DRAM cache) the
        service is exactly one column access, so the mechanism dispatch and
        the ServiceResult wrapper are skipped.
        """
        if self._direct_access:
            access = self._channel.access(now, request.flat_bank,
                                          request.decoded.row,
                                          request.is_write)
            completion_cycle = access.completion_cycle
            request.issue_cycle = now
            request.completion_cycle = completion_cycle
            request.in_dram_cache_hit = None
            request.row_buffer_outcome = access.outcome
            request.served_fast = access.served_fast
            ready_at = access.bank_ready_cycle
        else:
            result = self._mechanism.service(self._channel, now,
                                             request.decoded,
                                             request.flat_bank,
                                             request.is_write)
            completion_cycle = result.completion_cycle
            request.issue_cycle = now
            request.completion_cycle = completion_cycle
            request.in_dram_cache_hit = result.in_dram_cache_hit
            request.row_buffer_outcome = result.row_buffer_outcome
            request.served_fast = result.served_fast
            ready_at = result.bank_busy_until
        latency = completion_cycle - request.arrival_cycle
        if request.is_write:
            self.completed_writes += 1
            self.write_latencies[latency] = \
                self.write_latencies.get(latency, 0) + 1
        else:
            self.completed_reads += 1
            self.read_latencies[latency] = \
                self.read_latencies.get(latency, 0) + 1
        if self.tracer is not None:
            self.tracer.request_serviced(request)
        return ready_at

    def _dequeue(self, request: MemoryRequest) -> None:
        flat_bank = request.flat_bank
        if request.is_write:
            index = self._writes_by_bank
            self._write_count -= 1
            if self._drain_mode and self._write_count <= self._drain_low:
                self._drain_mode = False
        else:
            index = self._reads_by_bank
            self._read_count -= 1
        queue = index[flat_bank]
        if queue[0] is request:
            queue.popleft()
        else:
            queue.remove(request)
        if not queue:
            del index[flat_bank]

    def _note_wakeup(self, flat_bank: int, cycle: int) -> None:
        """Remember that ``flat_bank`` has pending work and frees at ``cycle``."""
        if flat_bank not in self._reads_by_bank \
                and flat_bank not in self._writes_by_bank:
            self._wakeup_cycle.pop(flat_bank, None)
            return
        existing = self._wakeup_cycle.get(flat_bank)
        if existing is None or cycle < existing:
            self._wakeup_cycle[flat_bank] = cycle
            heappush(self._wakeup_heap, (cycle, flat_bank))
