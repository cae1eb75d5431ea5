"""Memory request representation."""

from __future__ import annotations

import itertools

from repro.dram.address import DecodedAddress

_request_ids = itertools.count()


class MemoryRequest:
    """One cache-block request issued by a core (an LLC miss or writeback).

    Timestamps are in simulator (CPU) cycles.  ``completion_cycle`` is filled
    in by the memory controller when the request has been serviced.

    A hand-written slotted class rather than a dataclass: millions of
    instances are created per simulation, so ``__init__`` stores only the
    fields every request needs up front.  The service-outcome fields
    (``in_dram_cache_hit``, ``row_buffer_outcome``, ``served_fast``) are
    assigned by the controller when the request is serviced and must not be
    read before then.  Requests compare by identity: two distinct request
    objects are never the same request, and identity comparison keeps queue
    membership tests O(1) per element on the scheduling hot path.
    """

    __slots__ = (
        # Core that issued the request (writebacks keep the evicting
        # core's id).
        'core_id',
        #: Physical byte address of the cache block.
        'address',
        #: True for writes (LLC writebacks), False for reads (demand misses).
        'is_write',
        #: Cycle at which the request entered the memory controller.
        'arrival_cycle',
        #: Decoded DRAM coordinates (filled by the memory controller).
        'decoded',
        #: Flat bank index within the channel (filled by the controller).
        'flat_bank',
        #: Cycle at which the request was picked by the scheduler.
        'issue_cycle',
        #: Cycle at which the data transfer finished.
        'completion_cycle',
        #: Whether the request hit in the in-DRAM cache (None when the
        #: configured mechanism has no cache, e.g. the Base system).
        'in_dram_cache_hit',
        #: Row-buffer outcome recorded when the request was serviced.
        'row_buffer_outcome',
        #: True when served from a fast (short-bitline) region.
        'served_fast',
        #: Unique, monotonically increasing id (used for FCFS tie-breaking).
        'request_id',
    )

    def __init__(self, core_id: int, address: int, is_write: bool,
                 arrival_cycle: int):
        self.core_id = core_id
        self.address = address
        self.is_write = is_write
        self.arrival_cycle = arrival_cycle
        self.decoded: DecodedAddress | None = None
        self.flat_bank = -1
        self.issue_cycle = -1
        self.completion_cycle = -1
        self.request_id = next(_request_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "write" if self.is_write else "read"
        return (f"MemoryRequest(id={self.request_id}, core={self.core_id}, "
                f"{kind} @ {self.address:#x}, arrival={self.arrival_cycle})")

    @property
    def latency(self) -> int:
        """Memory latency observed by the requester, in cycles."""
        if self.completion_cycle < 0:
            raise ValueError("request has not completed yet")
        return self.completion_cycle - self.arrival_cycle

    @property
    def queueing_delay(self) -> int:
        """Cycles spent waiting in the controller queues before issue."""
        if self.issue_cycle < 0:
            raise ValueError("request has not been issued yet")
        return self.issue_cycle - self.arrival_cycle
