"""Tests for the memory controller substrate and the processor-side models."""

import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BaseMechanism
from repro.controller import (FRFCFSScheduler, MemoryController,
                              MemoryRequest)
from repro.core import FIGCache
from repro.cpu import (CacheConfig, CacheHierarchy, CoreConfig,
                       HierarchyConfig, MSHRFile, SetAssociativeCache,
                       TraceCore)
from repro.dram import DRAMConfig, DRAMDevice
from repro.workloads.trace import TraceRecord


def make_controller(mechanism_name="base", channels=1):
    config = DRAMConfig(channels=channels, fast_subarrays_per_bank=2)
    device = DRAMDevice(config, refresh_enabled=False)
    if mechanism_name == "base":
        mechanisms = [BaseMechanism() for _ in range(channels)]
    else:
        mechanisms = [FIGCache(config) for _ in range(channels)]
    controller = MemoryController(device, mechanisms)
    return device, controller


def make_request(device, address, is_write=False, core_id=0, arrival=0):
    request = MemoryRequest(core_id=core_id, address=address,
                            is_write=is_write, arrival_cycle=arrival)
    decoded = device.decode(address)
    request.decoded = decoded
    request.flat_bank = device.flat_bank(decoded)
    return request


# ----------------------------------------------------------------------
# Requests and scheduler.
# ----------------------------------------------------------------------
class TestRequests:
    def test_latency_requires_completion(self):
        request = MemoryRequest(core_id=0, address=64, is_write=False,
                                arrival_cycle=10)
        with pytest.raises(ValueError):
            _ = request.latency
        request.issue_cycle = 20
        request.completion_cycle = 110
        assert request.latency == 100
        assert request.queueing_delay == 10

    def test_request_ids_are_unique_and_increasing(self):
        first = MemoryRequest(0, 0, False, 0)
        second = MemoryRequest(0, 64, False, 0)
        assert second.request_id > first.request_id


class TestFRFCFS:
    def test_prefers_row_hit_over_older_request(self):
        device, controller = make_controller()
        channel = device.channel(0)
        cc = controller.channel_controllers[0]
        # Open row A in bank 0.
        open_req = make_request(device, 0x0)
        cc.enqueue(open_req, 0)
        # ``other_row`` is older (created first), FCFS order in the queue.
        other_row = make_request(device, 0x0 + 8192 * 16 * 4)
        row_a_block1 = make_request(device, 0x0 + 64)
        assert other_row.flat_bank == row_a_block1.flat_bank
        scheduler = FRFCFSScheduler()
        bank = channel.bank(row_a_block1.flat_bank)
        picked = scheduler.pick(bank, [other_row, row_a_block1], (),
                                write_backlog=0, drain_mode=False)
        assert picked is row_a_block1

    def test_falls_back_to_oldest_without_hits(self):
        device, controller = make_controller()
        channel = device.channel(0)
        scheduler = FRFCFSScheduler()
        first = make_request(device, 0x100000)
        second = make_request(device, 0x200000)
        bank = channel.bank(first.flat_bank)
        picked = scheduler.pick(bank, [first, second], (),
                                write_backlog=0, drain_mode=False)
        assert picked is first

    def test_writes_only_issued_with_enough_backlog(self):
        device, _ = make_controller()
        channel = device.channel(0)
        scheduler = FRFCFSScheduler()
        write = make_request(device, 0x3000, is_write=True)
        bank = channel.bank(write.flat_bank)
        picked = scheduler.pick(bank, (), [write],
                                write_backlog=1, drain_mode=False)
        assert picked is None
        backlog = scheduler.config.write_drain_low_watermark
        picked_backlog = scheduler.pick(bank, (), [write],
                                        write_backlog=backlog,
                                        drain_mode=False)
        assert picked_backlog is write
        picked_drain = scheduler.pick(bank, (), [write],
                                      write_backlog=1, drain_mode=True)
        assert picked_drain is write


# ----------------------------------------------------------------------
# Channel controller / memory controller.
# ----------------------------------------------------------------------
class TestChannelController:
    def test_enqueue_requires_decoded_request(self):
        device, controller = make_controller()
        cc = controller.channel_controllers[0]
        raw = MemoryRequest(0, 64, False, 0)
        with pytest.raises(ValueError):
            cc.enqueue(raw, 0)

    def test_read_completes_with_outcome_metadata(self):
        device, controller = make_controller()
        request = make_request(device, 0x5000)
        completed = controller.enqueue(request, 0)
        assert completed == [request]
        assert request.completion_cycle > 0
        assert request.row_buffer_outcome == "miss"
        assert controller.completed_reads == 1

    def test_row_hits_have_lower_latency_than_misses(self):
        device, controller = make_controller()
        miss = make_request(device, 0x5000)
        controller.enqueue(miss, 0)
        hit = make_request(device, 0x5040, arrival=miss.completion_cycle)
        controller.enqueue(hit, miss.completion_cycle)
        assert hit.latency < miss.latency
        assert hit.row_buffer_outcome == "hit"

    def test_busy_bank_defers_service_until_wake(self):
        device, controller = make_controller()
        first = make_request(device, 0x5000)
        controller.enqueue(first, 0)
        # Arrives while the bank is still busy with ``first``.
        second = make_request(device, 0x5000 + 4 * 8192 * 16, arrival=1)
        completed = controller.enqueue(second, 1)
        assert completed == []
        wake = controller.next_wakeup()
        assert wake is not None
        completed = controller.wake(wake)
        assert second in completed

    def test_average_read_latency_tracks_reads_only(self):
        device, controller = make_controller()
        read = make_request(device, 0x9000)
        controller.enqueue(read, 0)
        cc = controller.channel_controllers[0]
        for _ in range(20):
            cc.enqueue(make_request(device, 0x9040, is_write=True), 0)
        assert controller.average_read_latency() == read.latency

    def test_drain_all_flushes_queued_writes(self):
        device, controller = make_controller()
        cc = controller.channel_controllers[0]
        for index in range(8):
            cc.enqueue(make_request(device, 0x10000 + index * 64,
                                    is_write=True), 0)
        assert cc.write_queue_occupancy > 0
        controller.drain_all(0)
        assert cc.write_queue_occupancy == 0

    def test_mechanism_statistics_reachable_through_controller(self):
        device, controller = make_controller("figcache")
        request = make_request(device, 0x20000)
        controller.enqueue(request, 0)
        mechanism = controller.channel_controllers[0].mechanism
        assert mechanism.stats.cache_lookups == 1
        assert request.in_dram_cache_hit is False

    def test_channel_count_mismatch_rejected(self):
        config = DRAMConfig(channels=2)
        device = DRAMDevice(config)
        with pytest.raises(ValueError):
            MemoryController(device, [BaseMechanism()])

    def test_routing_uses_channel_bits(self):
        device, controller = make_controller(channels=2)
        request = MemoryRequest(0, 0x2000, False, 0)
        chosen = controller.route(request)
        assert chosen is controller.channel_controllers[request.decoded.channel]


# ----------------------------------------------------------------------
# Caches.
# ----------------------------------------------------------------------
class TestSetAssociativeCache:
    def test_hit_after_fill(self):
        cache = SetAssociativeCache(CacheConfig(size_bytes=4096,
                                                associativity=4))
        assert not cache.access(0x100, False).hit
        assert cache.access(0x100, False).hit
        assert cache.hit_rate == pytest.approx(0.5)

    def test_lru_eviction_order(self):
        cache = SetAssociativeCache(CacheConfig(size_bytes=2 * 64,
                                                associativity=2,
                                                block_size_bytes=64))
        cache.access(0 * 128, False)
        cache.access(1 * 128, False)
        cache.access(0 * 128, False)        # touch block 0 -> block 1 is LRU
        cache.access(2 * 128, False)        # evicts block 1
        assert cache.contains(0 * 128)
        assert not cache.contains(1 * 128)

    def test_dirty_eviction_reports_writeback(self):
        cache = SetAssociativeCache(CacheConfig(size_bytes=2 * 64,
                                                associativity=2,
                                                block_size_bytes=64))
        cache.access(0 * 128, True)
        cache.access(1 * 128, False)
        result = cache.access(2 * 128, False)
        assert result.writeback_address == 0
        assert cache.writebacks == 1

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(CacheConfig(size_bytes=1000, associativity=3))

    @given(st.lists(st.integers(0, 255), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, blocks):
        cache = SetAssociativeCache(CacheConfig(size_bytes=16 * 64,
                                                associativity=4,
                                                block_size_bytes=64))
        for block in blocks:
            cache.access(block * 64, block % 3 == 0)
        assert cache.occupancy() <= cache.config.num_blocks


class TestMSHR:
    def test_allocation_and_merge(self):
        mshrs = MSHRFile(2)
        assert mshrs.allocate(0x100)
        assert not mshrs.allocate(0x100 + 32)  # same block -> merge
        assert mshrs.occupancy == 1
        assert mshrs.release(0x100) == 2

    def test_full_allocation_raises(self):
        mshrs = MSHRFile(1)
        mshrs.allocate(0x0)
        assert mshrs.is_full()
        with pytest.raises(RuntimeError):
            mshrs.allocate(0x1000)

    def test_release_unknown_block_raises(self):
        mshrs = MSHRFile(1)
        with pytest.raises(KeyError):
            mshrs.release(0x40)


class TestHierarchy:
    def test_miss_propagates_to_memory(self):
        hierarchy = CacheHierarchy()
        access = hierarchy.access(0x123456 * 64, False)
        assert access.level == "memory"
        assert access.needs_memory

    def test_second_access_hits_l1(self):
        hierarchy = CacheHierarchy()
        hierarchy.access(0x80, False)
        access = hierarchy.access(0x80, False)
        assert access.level == "L1"
        assert not access.needs_memory

    def test_llc_writeback_emitted_for_dirty_victims(self):
        config = HierarchyConfig(
            l1=CacheConfig(size_bytes=128, associativity=2),
            l2=CacheConfig(size_bytes=256, associativity=2),
            llc=CacheConfig(size_bytes=512, associativity=2))
        hierarchy = CacheHierarchy(config)
        writebacks = []
        for index in range(64):
            result = hierarchy.access(index * 4096, True)
            writebacks.extend(result.writebacks)
        assert writebacks, "dirty LLC victims must generate writebacks"

    def test_paper_table1_hierarchy_sizes(self):
        config = HierarchyConfig.paper_table1()
        assert config.l1.size_bytes == 64 * 1024
        assert config.llc.size_bytes == 2 * 1024 * 1024


# ----------------------------------------------------------------------
# Trace core.
# ----------------------------------------------------------------------
def simple_trace(n, stride=4096, bubbles=10, write_every=0):
    records = []
    for index in range(n):
        is_write = write_every > 0 and index % write_every == 0
        records.append(TraceRecord(bubbles=bubbles, address=index * stride,
                                   is_write=is_write))
    return records


def drive_core_to_completion(core, latency=200):
    """Run ``core`` to completion against a fixed-latency memory.

    Reads complete in issue order, ``latency`` cycles after issue; every
    completion that unblocks the core runs it again.  Returns every request
    the core issued, in order, and checks the MSHR bound after each run.
    """
    stream = []
    pending = deque()

    def run(now):
        issued = core.run(now).requests
        assert core.mshrs.occupancy <= core.config.mshr_entries
        stream.extend(issued)
        pending.extend(request for request in issued if not request.is_write)

    run(0)
    while pending:
        request = pending.popleft()
        finish = request.issue_cycle + latency
        if core.notify_completion(request.address, finish):
            run(finish)
    assert core.finished
    return stream


class TestTraceCore:
    def test_core_finishes_and_counts_instructions(self):
        trace = simple_trace(50)
        core = TraceCore(0, trace)
        drive_core_to_completion(core)
        assert core.finished
        assert core.stats.instructions == sum(r.instructions for r in trace)
        assert core.stats.ipc() > 0

    def test_higher_latency_lowers_ipc(self):
        trace = simple_trace(80)
        fast = TraceCore(0, trace)
        slow = TraceCore(0, list(trace))
        drive_core_to_completion(fast, latency=100)
        drive_core_to_completion(slow, latency=800)
        assert fast.stats.ipc() > slow.stats.ipc()

    def test_mshr_limit_caps_outstanding_requests(self):
        config = CoreConfig(mshr_entries=4)
        trace = simple_trace(100, bubbles=0)
        core = TraceCore(0, trace, config)
        result = core.run(0)
        reads = [r for r in result.requests if not r.is_write]
        assert len(reads) <= 4
        assert result.stalled

    def test_cache_hits_do_not_reach_memory(self):
        trace = [TraceRecord(bubbles=5, address=0x40, is_write=False)
                 for _ in range(20)]
        core = TraceCore(0, trace)
        result = core.run(0)
        assert len(result.requests) == 1  # only the first access misses
        core.notify_completion(0x40, core.core_cycle + 100)
        assert core.finished

    def test_notify_for_unknown_address_is_ignored(self):
        core = TraceCore(0, simple_trace(5))
        core.run(0)
        assert core.notify_completion(0xDEADBEEF000, 100) is False

    def test_writes_do_not_block_the_window(self):
        config = CoreConfig(mshr_entries=8, window_size=64)
        trace = simple_trace(30, bubbles=0, write_every=1)
        core = TraceCore(0, trace, config)
        core.run(0)
        # All stores: the core only pauses when MSHRs run out, not because
        # the window is blocked by a load.
        assert core.stats.llc_miss_stores > 0


# ----------------------------------------------------------------------
# Trace-core properties over random traces and core configurations.
# ----------------------------------------------------------------------
#: Tiny hierarchies, so a pool of a few dozen blocks produces hits at every
#: level, dirty LLC evictions, and blocks evicted from all three levels
#: while their miss is still outstanding (the only way an MSHR merges).
#: The second one gives L2 three sets, which takes the modulo set index.
SMALL_HIERARCHIES = (
    HierarchyConfig(
        l1=CacheConfig(size_bytes=128, associativity=2),
        l2=CacheConfig(size_bytes=256, associativity=2, hit_latency_cycles=3),
        llc=CacheConfig(size_bytes=512, associativity=2,
                        hit_latency_cycles=8)),
    HierarchyConfig(
        l1=CacheConfig(size_bytes=128, associativity=2),
        l2=CacheConfig(size_bytes=384, associativity=2, hit_latency_cycles=3),
        llc=CacheConfig(size_bytes=512, associativity=2,
                        hit_latency_cycles=8)),
)

#: Distinct cache blocks the random traces draw their addresses from.
ADDRESS_POOL_BLOCKS = 24

trace_records = st.builds(
    TraceRecord,
    bubbles=st.integers(0, 6),
    address=st.builds(lambda block, offset: block * 64 + offset,
                      st.integers(0, ADDRESS_POOL_BLOCKS - 1),
                      st.integers(0, 63)),
    is_write=st.booleans())

core_configs = st.builds(
    CoreConfig,
    issue_width=st.integers(1, 4),
    window_size=st.integers(8, 256),
    mshr_entries=st.integers(1, 8),
    hierarchy=st.sampled_from(SMALL_HIERARCHIES))


class TestTraceCoreProperties:
    @given(trace=st.lists(trace_records, min_size=1, max_size=120),
           config=core_configs,
           latency=st.sampled_from((1, 60, 400)))
    @settings(max_examples=80, deadline=None)
    def test_request_stream_balances_against_core_counters(self, trace,
                                                           config, latency):
        core = TraceCore(0, trace, config)
        stream = drive_core_to_completion(core, latency)
        stats, mshrs = core.stats, core.mshrs
        reads = [request for request in stream if not request.is_write]
        writes = [request for request in stream if request.is_write]

        assert stats.instructions == sum(record.bubbles + 1
                                         for record in trace)
        assert stats.memory_instructions == len(trace)
        assert len(reads) == mshrs.allocations
        assert stats.llc_miss_loads + stats.llc_miss_stores \
            == core.hierarchy.llc_misses \
            == mshrs.allocations + mshrs.merges
        assert len(writes) == stats.writebacks
        assert mshrs.occupancy == 0

        twin = TraceCore(0, trace, config)
        assert drive_core_to_completion(twin, latency) == stream
        assert twin.stats == stats
        assert (twin.mshrs.allocations, twin.mshrs.merges) \
            == (mshrs.allocations, mshrs.merges)

    def test_address_pool_reaches_every_path(self):
        """The strategies above can produce every case the properties
        cover: hits at each level, dirty evictions, and MSHR merges."""
        rng = random.Random(7)
        trace = [TraceRecord(bubbles=rng.randint(0, 6),
                             address=rng.randrange(ADDRESS_POOL_BLOCKS) * 64,
                             is_write=rng.random() < 0.4)
                 for _ in range(400)]
        core = TraceCore(0, trace, CoreConfig(hierarchy=SMALL_HIERARCHIES[1]))
        drive_core_to_completion(core, latency=400)
        hierarchy = core.hierarchy
        assert hierarchy.l1.hits and hierarchy.l2.hits and hierarchy.llc.hits
        assert core.stats.writebacks > 0
        assert core.mshrs.merges > 0
