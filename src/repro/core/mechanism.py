"""Interface between the memory controller and in-DRAM caching mechanisms.

Every evaluated configuration (Base, LISA-VILLA, FIGCache-Slow/-Fast/-Ideal,
LL-DRAM) is expressed as a :class:`CachingMechanism`: the memory controller
asks the mechanism to service each scheduled request, and the mechanism
decides where the request is actually served (original row or an in-DRAM
cache row), performs any relocations into or out of the cache, and records
its own hit/miss statistics.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field

from repro.dram.address import DecodedAddress
from repro.dram.channel import Channel


@dataclass(slots=True)
class ServiceResult:
    """Outcome of servicing one request through a caching mechanism.

    A plain slotted record (not frozen): one is created per serviced
    request, on the scheduling hot path.  Treat as read-only.
    """

    #: Cycle at which the requested data transfer finished.
    completion_cycle: int
    #: Cycle at which the bank can take further work (includes relocations
    #: triggered by this request, which occupy the bank after the demand
    #: access completes).
    bank_busy_until: int
    #: Row-buffer outcome of the demand access: ``hit``, ``miss``, ``conflict``.
    row_buffer_outcome: str
    #: Whether the demand access hit in the in-DRAM cache (None when the
    #: mechanism has no cache).
    in_dram_cache_hit: bool | None
    #: True when the demand access was served from a fast region.
    served_fast: bool
    #: Cycles spent on relocation work triggered by this request.
    relocation_cycles: int = 0


@dataclass
class MechanismStats:
    """Aggregate statistics kept by every caching mechanism."""

    #: Demand accesses that were looked up in the in-DRAM cache.
    cache_lookups: int = 0
    #: Demand accesses served from the in-DRAM cache.
    cache_hits: int = 0
    #: Row-segment (or row) insertions into the cache.
    insertions: int = 0
    #: Evictions from the cache.
    evictions: int = 0
    #: Evictions that required a dirty write-back relocation.
    dirty_writebacks: int = 0
    #: Total cycles spent relocating data into or out of the cache.
    relocation_cycles: int = 0
    #: Total RELOC (or bulk-transfer) operations performed.
    relocation_operations: int = 0
    #: Extra bookkeeping counters specific to a mechanism.
    extra: dict = field(default_factory=dict)

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of lookups that hit in the in-DRAM cache."""
        if self.cache_lookups == 0:
            return 0.0
        return self.cache_hits / self.cache_lookups


class CachingMechanism(abc.ABC):
    """Base class for in-DRAM caching mechanisms (and the no-cache Base)."""

    name = "abstract"

    #: Whether :meth:`effective_row` can ever differ from the address row.
    #: Mechanisms that never remap (the no-cache Base/LL-DRAM) set this to
    #: False, letting the FR-FCFS scheduler read ``request.decoded.row``
    #: directly instead of calling the hook once per queued candidate on
    #: every scheduling attempt.  Mechanisms with an in-DRAM cache keep the
    #: default: their per-bank view (the FIGCache tag store, LISA-VILLA's
    #: row cache) decides where each request is actually served.
    remaps_rows = True

    #: Whether :meth:`service` is exactly one column access to the address
    #: row with no cache bookkeeping and no relocations.  Mechanisms that
    #: set this to True (Base/LL-DRAM) let the channel controller serve
    #: requests straight through ``Channel.access``, skipping the
    #: :meth:`service` call and the :class:`ServiceResult` wrapper on the
    #: per-request hot path.  Must only be True when :meth:`service` has no
    #: observable effect beyond the access itself.
    direct_access = False

    def __init__(self) -> None:
        self.stats = MechanismStats()
        #: Optional event tracer (see :mod:`repro.sim.tracing`).  ``None``
        #: when tracing is off; mechanisms check it only on their cold
        #: insert/evict paths, never per demand access.
        self.tracer = None

    @abc.abstractmethod
    def effective_row(self, channel: Channel, decoded: DecodedAddress,
                      flat_bank: int) -> int:
        """Row the request would actually be served from right now.

        Used by the FR-FCFS scheduler to recognise requests that would hit an
        open in-DRAM cache row.  Must not mutate any state.
        """

    @abc.abstractmethod
    def service(self, channel: Channel, now: int, decoded: DecodedAddress,
                flat_bank: int, is_write: bool) -> ServiceResult:
        """Service one scheduled request at cycle ``now``.

        Implementations perform the demand access on ``channel`` (redirected
        to a cache row on a cache hit) and any relocation work the request
        triggers, and update their statistics.
        """

    def reset_stats(self) -> None:
        """Clear accumulated statistics (cache contents are kept)."""
        self.stats = MechanismStats()
