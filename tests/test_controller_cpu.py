"""Tests for the memory controller substrate and the processor-side models."""

import hashlib
import random
import sys
import threading
from collections import deque
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BaseMechanism
from repro.controller import (ChannelController, FRFCFSScheduler,
                              MemoryRequest)
from repro.core import FIGCache
from repro.cpu import (CacheConfig, CacheHierarchy, CoreConfig,
                       HierarchyConfig, MSHRFile, SetAssociativeCache,
                       TraceCore)
from repro.cpu.core import COMPILED_TRACE_CAPACITY, compile_trace
from repro.dram import AddressMapper, DRAMConfig, DRAMDevice
from repro.dram import address as address_module
from repro.dram.standards import STANDARD_NAMES
from repro.sim.config import CONFIGURATION_NAMES, make_system_config
from repro.sim.simulator import Simulator, SimulatorLimits
from repro.sim.system import System
from repro.sim.telemetry import LatencyHistogram
from repro.workloads.catalog import BENCHMARKS
from repro.workloads.trace import TraceRecord


def make_controller(mechanism_name="base"):
    """A one-channel device and the controller of its only channel."""
    config = DRAMConfig(fast_subarrays_per_bank=2)
    device = DRAMDevice(config, refresh_enabled=False)
    mechanism = BaseMechanism() if mechanism_name == "base" \
        else FIGCache(config)
    return device, ChannelController(device.channel(0), mechanism)


def make_request(device, address, is_write=False, core_id=0, arrival=0):
    request = MemoryRequest(core_id=core_id, address=address,
                            is_write=is_write, arrival_cycle=arrival)
    request.decoded, request.flat_bank, _ = device.mapper.route(address)
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
        device, cc = make_controller()
        channel = device.channel(0)
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
        device, _ = make_controller()
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
# Channel controller.
# ----------------------------------------------------------------------
class TestChannelController:
    def test_enqueue_requires_decoded_request(self):
        device, cc = make_controller()
        raw = MemoryRequest(0, 64, False, 0)
        with pytest.raises(ValueError):
            cc.enqueue(raw, 0)

    def test_read_completes_with_outcome_metadata(self):
        device, cc = make_controller()
        request = make_request(device, 0x5000)
        completed = cc.enqueue(request, 0)
        assert completed == [request]
        assert request.completion_cycle > 0
        assert request.row_buffer_outcome == "miss"
        assert cc.completed_reads == 1

    def test_row_hits_have_lower_latency_than_misses(self):
        device, cc = make_controller()
        miss = make_request(device, 0x5000)
        cc.enqueue(miss, 0)
        hit = make_request(device, 0x5040, arrival=miss.completion_cycle)
        cc.enqueue(hit, miss.completion_cycle)
        assert hit.latency < miss.latency
        assert hit.row_buffer_outcome == "hit"

    def test_busy_bank_defers_service_until_wake(self):
        device, cc = make_controller()
        first = make_request(device, 0x5000)
        cc.enqueue(first, 0)
        # Arrives while the bank is still busy with ``first``.
        second = make_request(device, 0x5000 + 4 * 8192 * 16, arrival=1)
        completed = cc.enqueue(second, 1)
        assert completed == []
        wake = cc.next_wakeup()
        assert wake is not None
        completed = cc.wake(wake)
        assert second in completed

    def test_average_read_latency_tracks_reads_only(self):
        device, cc = make_controller()
        read = make_request(device, 0x9000)
        cc.enqueue(read, 0)
        for _ in range(20):
            cc.enqueue(make_request(device, 0x9040, is_write=True), 0)
        assert LatencyHistogram(cc.read_latencies).mean == read.latency

    def test_drain_all_flushes_queued_writes(self):
        device, cc = make_controller()
        for index in range(8):
            cc.enqueue(make_request(device, 0x10000 + index * 64,
                                    is_write=True), 0)
        assert cc.write_queue_occupancy > 0
        cc.drain_all(0)
        assert cc.write_queue_occupancy == 0

    def test_mechanism_statistics_reachable_through_controller(self):
        device, cc = make_controller("figcache")
        request = make_request(device, 0x20000)
        cc.enqueue(request, 0)
        assert cc.mechanism.stats.cache_lookups == 1
        assert request.in_dram_cache_hit is False

    def test_channel_count_mismatch_rejected(self, monkeypatch):
        """System pairs channels and mechanisms strictly, one to one."""
        monkeypatch.setattr("repro.sim.system.make_mechanism",
                            lambda config: [BaseMechanism()])
        config = make_system_config("Base", channels=2)
        with pytest.raises(ValueError):
            System(config, [[TraceRecord(bubbles=0, address=0,
                                         is_write=False)]])

    def test_routing_uses_channel_bits(self):
        device = DRAMDevice(DRAMConfig(channels=2), refresh_enabled=False)
        channels = {device.mapper.route(address)[2]
                    for address in range(0, 1 << 16, 64)}
        assert channels == {0, 1}
        decoded, _, channel = device.mapper.route(0x2000)
        assert channel == decoded.channel


# ----------------------------------------------------------------------
# One controller per channel: System assembly, the simulator's channel
# fan-out and final drain, and the per-channel sums in System.run.
# ----------------------------------------------------------------------
def run_four_channel_system(**overrides):
    """Two write-heavy cores on four channels; returns (system, result).

    The run takes about 15,000 events.  A wake-up lost in the channel
    fan-out would re-arm forever, so the event cap turns it into a prompt
    failure instead of a hang.
    """
    config = make_system_config("FIGCache-Fast", channels=4, **overrides)
    traces = [BENCHMARKS["lbm"].make_trace(3000) for _ in range(2)]
    system = System(config, traces,
                    limits=SimulatorLimits(max_events=1_000_000))
    return system, system.run("lbm-x2")


class TestSystemChannels:
    def test_one_controller_per_channel_with_its_mechanism(self):
        config = make_system_config("FIGCache-Fast", channels=4)
        system = System(config, [BENCHMARKS["mcf"].make_trace(64)])
        controllers = system.channel_controllers
        assert [cc.channel for cc in controllers] == system.device.channels
        assert all(cc.channel is channel for cc, channel
                   in zip(controllers, system.device.channels))
        assert all(cc.mechanism is mechanism for cc, mechanism
                   in zip(controllers, system.mechanisms, strict=True))
        assert len({id(mechanism) for mechanism in system.mechanisms}) == 4

    def test_run_sums_counters_across_channels(self):
        system, result = run_four_channel_system()
        controllers = system.channel_controllers
        reads = [cc.completed_reads for cc in controllers]
        writes = [cc.completed_writes for cc in controllers]
        assert all(count > 0 for count in reads)
        assert sum(count > 0 for count in writes) >= 2
        assert result.memory_reads == sum(reads)
        assert result.memory_writes == sum(writes)
        # Every read and writeback a core sent came back through its
        # channel's controller: none was lost in the wake fan-out.
        assert result.memory_reads == sum(
            core.stats.llc_miss_loads + core.stats.llc_miss_stores
            for core in system.cores)
        assert result.memory_writes == sum(core.stats.writebacks
                                           for core in system.cores)
        assert result.dram_counters.activates == sum(
            cc.channel.counters.activates for cc in controllers)

    def test_run_merges_channel_latency_histograms(self):
        system, result = run_four_channel_system(telemetry=True)
        controllers = system.channel_controllers
        for direction in ("read", "write"):
            merged = {}
            for cc in controllers:
                for latency, count in getattr(
                        cc, f"{direction}_latencies").items():
                    merged[latency] = merged.get(latency, 0) + count
            histogram = getattr(result.telemetry, f"{direction}_latency")
            assert histogram.counts == merged
        total = sum(latency * count
                    for cc in controllers
                    for latency, count in cc.read_latencies.items())
        assert result.average_read_latency_cycles \
            == total / result.memory_reads
        # The merge copies: the controllers' own dicts are not shared.
        assert all(result.telemetry.read_latency.counts
                   is not cc.read_latencies for cc in controllers)

    def test_final_drain_flushes_every_channel(self):
        device = DRAMDevice(DRAMConfig(channels=2), refresh_enabled=False)
        controllers = [ChannelController(channel, BaseMechanism())
                       for channel in device.channels]
        by_channel = {0: [], 1: []}
        for address in range(0x10000, 0x20000, 64):
            by_channel[device.mapper.route(address)[2]].append(address)
        # Fewer writes than the drain watermark: they stay queued until
        # the end-of-run drain.
        writes = []
        for channel, addresses in by_channel.items():
            for address in addresses[:4]:
                request = make_request(device, address, is_write=True)
                controllers[channel].enqueue(request, 0)
                writes.append(request)
        assert [cc.write_queue_occupancy for cc in controllers] == [4, 4]
        core = TraceCore(0, [TraceRecord(bubbles=0, address=0x40000,
                                         is_write=False)])
        assert Simulator([core], controllers, device.mapper).run() > 0
        assert [cc.has_pending_work() for cc in controllers] \
            == [False, False]
        assert [cc.completed_writes for cc in controllers] == [4, 4]
        assert all(request.completion_cycle > 0 for request in writes)

    def test_wakes_noted_before_the_run_are_seeded(self, monkeypatch):
        """Reads queued behind busy banks before run() complete in the
        event loop, not in the final drain: the run's one wake-up queue
        starts with every wake-up the controllers had already noted.  Both
        channels' banks fall due in the same cycle, so the loop also takes
        its several-banks form and must wake both channels."""
        device = DRAMDevice(DRAMConfig(channels=2), refresh_enabled=False)
        controllers = [ChannelController(channel, BaseMechanism())
                       for channel in device.channels]
        # Per channel, two rows of its flat bank 0: the first read opens
        # the bank, the second queues behind it.  The core reads bank 1.
        rows = {}
        for address in range(0, 1 << 22, 64):
            decoded, flat_bank, channel = device.mapper.route(address)
            if flat_bank == 0:
                rows.setdefault(channel, {}).setdefault(decoded.row, address)
            elif flat_bank == 1:
                core_address = address
        queued = []
        for channel, cc in enumerate(controllers):
            first, second = list(rows[channel].values())[:2]
            assert cc.enqueue(make_request(device, first), 0)
            request = make_request(device, second)
            assert cc.enqueue(request, 0) == []
            queued.append(request)
        assert controllers[0].next_wakeup() is not None
        assert controllers[0].next_wakeup() == controllers[1].next_wakeup()
        drained = []
        drain_all = ChannelController.drain_all

        def recording_drain_all(controller, now):
            last, completed = drain_all(controller, now)
            drained.extend(completed)
            return last, completed

        monkeypatch.setattr(ChannelController, "drain_all",
                            recording_drain_all)
        core = TraceCore(0, [TraceRecord(bubbles=0, address=core_address,
                                         is_write=False)])
        assert Simulator([core], controllers, device.mapper).run() > 0
        assert drained == []
        assert all(request.completion_cycle > 0 for request in queued)
        assert sum(cc.completed_reads for cc in controllers) == 5


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

    def test_levels_must_share_one_block_size(self):
        with pytest.raises(ValueError, match="one block size"):
            HierarchyConfig(l2=CacheConfig(size_bytes=64 * 1024,
                                           associativity=8,
                                           block_size_bytes=128))


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
    the core issued, in order, as ``(issue_cycle, address, is_write)``, and
    checks the MSHR bound after each run.
    """
    stream = []
    pending = deque()

    def run(now):
        issued = core.run_requests(now)
        assert core.mshrs.occupancy <= core.config.mshr_entries
        stream.extend(issued)
        pending.extend((issue_cycle, address)
                       for issue_cycle, address, is_write in issued
                       if not is_write)

    run(0)
    while pending:
        issue_cycle, address = pending.popleft()
        finish = issue_cycle + latency
        if core.notify_completion(address, finish):
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
        requests = core.run_requests(0)
        reads = [address for _, address, is_write in requests
                 if not is_write]
        assert len(reads) <= 4
        assert not core.finished  # stalled

    def test_cache_hits_do_not_reach_memory(self):
        trace = [TraceRecord(bubbles=5, address=0x40, is_write=False)
                 for _ in range(20)]
        core = TraceCore(0, trace)
        requests = core.run_requests(0)
        assert len(requests) == 1  # only the first access misses
        core.notify_completion(0x40, core.core_cycle + 100)
        assert core.finished

    def test_notify_for_unknown_address_is_ignored(self):
        core = TraceCore(0, simple_trace(5))
        core.run_requests(0)
        assert core.notify_completion(0xDEADBEEF000, 100) is False

    def test_writes_do_not_block_the_window(self):
        config = CoreConfig(mshr_entries=8, window_size=64)
        trace = simple_trace(30, bubbles=0, write_every=1)
        core = TraceCore(0, trace, config)
        core.run_requests(0)
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
#: The third uses 128-byte blocks, so two 64-byte pool blocks share one
#: cache block (and one MSHR).
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
    HierarchyConfig(
        l1=CacheConfig(size_bytes=256, associativity=2, block_size_bytes=128),
        l2=CacheConfig(size_bytes=512, associativity=2, block_size_bytes=128,
                       hit_latency_cycles=3),
        llc=CacheConfig(size_bytes=1024, associativity=2,
                        block_size_bytes=128, hit_latency_cycles=8)),
)

#: Distinct cache blocks the random traces draw their addresses from.
ADDRESS_POOL_BLOCKS = 24


def seeded_stream(seed=7, length=5000):
    """(address, is_write) pairs over the address pool, 40% writes."""
    rng = random.Random(seed)
    return [(rng.randrange(ADDRESS_POOL_BLOCKS) * 64, rng.random() < 0.4)
            for _ in range(length)]


def hierarchy_record(hierarchy, stream):
    """Every access's outcome, then the per-level and total counters."""
    accesses = [hierarchy.access(address, is_write)
                for address, is_write in stream]
    return ([(access.level, access.exposed_latency, access.needs_memory,
              access.writebacks) for access in accesses],
            [(cache.hits, cache.misses, cache.writebacks)
             for cache in (hierarchy.l1, hierarchy.l2, hierarchy.llc)],
            hierarchy.accesses, hierarchy.llc_misses)


#: sha256 of ``repr(hierarchy_record(...))`` for :func:`seeded_stream` on
#: each of :data:`SMALL_HIERARCHIES`, recorded with the fused single-function
#: L1/L2/LLC lookup that the per-level ``CacheHierarchy.access`` replaced.
PINNED_HIERARCHY_DIGESTS = (
    "351cf7d304b8519ea39048d7039eec0cc8dd71249811388fa590fe2abdfe2844",
    "4a008e352c36e69f57371613faa5eebb74d312fc0eadca911d50f8562b32496a",
    "70169730b387dada7078a80a50074fa80b08b7c348c93c21595e9bb449734d1c",
)


class TestHierarchyPinned:
    @pytest.mark.parametrize("index", range(len(SMALL_HIERARCHIES)))
    def test_access_by_access_outcomes_match_pinned_digest(self, index):
        record = hierarchy_record(CacheHierarchy(SMALL_HIERARCHIES[index]),
                                  seeded_stream())
        assert hashlib.sha256(repr(record).encode()).hexdigest() \
            == PINNED_HIERARCHY_DIGESTS[index]

    def test_stream_drops_dirty_llc_victims_on_l2_hits(self):
        """The pinned stream covers the L2-hit absorption rule: a dirty LLC
        victim evicted by an L1-victim fill is dropped when the demand
        access then hits in L2, so the LLC counts more dirty evictions than
        the accesses surface."""
        hierarchy = CacheHierarchy(SMALL_HIERARCHIES[0])
        outcomes, _, _, _ = hierarchy_record(hierarchy, seeded_stream())
        surfaced = sum(len(writebacks) for *_, writebacks in outcomes)
        assert hierarchy.llc.writebacks - surfaced == 8

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
        reads = [address for _, address, is_write in stream if not is_write]
        writes = [address for _, address, is_write in stream if is_write]

        assert stats.instructions == sum(record.bubbles + 1
                                         for record in trace)
        assert stats.memory_instructions == len(trace)
        assert len(reads) == mshrs.allocations
        assert stats.llc_miss_loads + stats.llc_miss_stores \
            == core.hierarchy.llc_misses \
            == mshrs.allocations + mshrs.merges
        assert len(writes) == stats.writebacks
        assert mshrs.occupancy == 0

        # The twin replays the first core's compiled trace.
        reuses = compile_trace.cache_info().hits
        twin = TraceCore(0, trace, config)
        assert drive_core_to_completion(twin, latency) == stream
        assert compile_trace.cache_info().hits == reuses + 1
        assert twin.stats == stats
        assert (twin.mshrs.allocations, twin.mshrs.merges) \
            == (mshrs.allocations, mshrs.merges)
        for core_levels in zip((core.hierarchy.l1, core.hierarchy.l2,
                                core.hierarchy.llc),
                               (twin.hierarchy.l1, twin.hierarchy.l2,
                                twin.hierarchy.llc)):
            first, second = ((cache.hits, cache.misses, cache.writebacks,
                              cache.occupancy()) for cache in core_levels)
            assert second == first
            assert first[3] == 0
        assert (twin.hierarchy.accesses, twin.hierarchy.llc_misses) \
            == (core.hierarchy.accesses, core.hierarchy.llc_misses)

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

    def test_mshrs_track_misses_at_the_cache_block_size(self):
        """With 128-byte cache blocks, misses to both 64-byte halves of a
        block share one MSHR, so a completion frees exactly the entry whose
        outstanding misses it clears."""
        config = CoreConfig(mshr_entries=4, hierarchy=SMALL_HIERARCHIES[2])
        for seed in range(40):
            rng = random.Random(seed)
            trace = [TraceRecord(bubbles=rng.randint(0, 6),
                                 address=rng.randrange(ADDRESS_POOL_BLOCKS)
                                 * 64,
                                 is_write=rng.random() < 0.4)
                     for _ in range(200)]
            core = TraceCore(0, trace, config)
            drive_core_to_completion(core, latency=400)
            assert core.mshrs.occupancy == 0


# ----------------------------------------------------------------------
# Compiled traces: one hierarchy pass per trace and process.
# ----------------------------------------------------------------------
class CountingAccess:
    """Counts ``CacheHierarchy.access`` calls while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = CacheHierarchy.access

        def access(hierarchy, address, is_write):
            self.calls += 1
            return original(hierarchy, address, is_write)

        monkeypatch.setattr(CacheHierarchy, "access", access)


@pytest.fixture(scope="module")
def catalog_trace():
    """An intensive catalog trace long enough for dirty LLC evictions."""
    return BENCHMARKS["mcf"].make_trace(3000, seed_offset=1)


class TestCompiledTraces:
    @pytest.mark.parametrize("name", CONFIGURATION_NAMES)
    def test_warm_run_matches_cold_and_skips_the_hierarchy(
            self, name, catalog_trace, monkeypatch):
        counter = CountingAccess(monkeypatch)
        config = make_system_config(name)
        compile_trace.cache_clear()
        cold = System(config, [catalog_trace]).run("mcf").to_dict()
        assert counter.calls == len(catalog_trace)
        counter.calls = 0
        warm = System(config, [catalog_trace]).run("mcf").to_dict()
        assert counter.calls == 0
        assert warm == cold
        assert cold["memory_writes"] > 0

    def test_records_are_keyed_by_contents(self, monkeypatch):
        """Equal records in another list reuse a compilation; the same list
        mutated in place compiles afresh."""
        counter = CountingAccess(monkeypatch)
        compile_trace.cache_clear()
        trace = simple_trace(40, write_every=3)
        drive_core_to_completion(TraceCore(0, trace))
        copy = [TraceRecord(record.bubbles, record.address, record.is_write)
                for record in trace]
        drive_core_to_completion(TraceCore(0, copy))
        assert counter.calls == len(trace)
        trace[7] = TraceRecord(bubbles=10, address=0x7F000, is_write=False)
        drive_core_to_completion(TraceCore(0, trace))
        assert counter.calls == 2 * len(trace)

    def test_any_input_change_compiles_afresh(self):
        compile_trace.cache_clear()
        trace = simple_trace(40, write_every=3)
        base = CoreConfig()
        hierarchy = base.hierarchy
        moved = list(trace)
        moved[3] = replace(moved[3], address=moved[3].address + 64)
        variants = [
            (trace, base),
            (moved, base),
            (trace, replace(base, issue_width=base.issue_width + 1)),
            (trace, replace(base, hierarchy=replace(
                hierarchy, l2=replace(hierarchy.l2, hit_latency_cycles=
                                      hierarchy.l2.hit_latency_cycles
                                      + 1)))),
        ]
        for compiles, (records, config) in enumerate(variants, start=1):
            drive_core_to_completion(TraceCore(0, records, config))
            assert compile_trace.cache_info().misses == compiles
        # A window, MSHR count or core id never changes the hierarchy pass.
        drive_core_to_completion(TraceCore(
            3, trace, replace(base, window_size=32, mshr_entries=2)))
        assert compile_trace.cache_info().misses == len(variants)

    def test_memo_never_exceeds_its_bound(self):
        compile_trace.cache_clear()
        for index in range(COMPILED_TRACE_CAPACITY + 5):
            trace = simple_trace(5, stride=4096 + 64 * index)
            drive_core_to_completion(TraceCore(0, trace))
            assert compile_trace.cache_info().currsize \
                == min(index + 1, COMPILED_TRACE_CAPACITY)
        assert compile_trace.cache_info().maxsize == COMPILED_TRACE_CAPACITY


# ----------------------------------------------------------------------
# Shared routes: one decode per block address, geometry and process.
# ----------------------------------------------------------------------
#: Every catalog standard at 1, 2 and 4 channels, plus a two-rank geometry
#: (the catalog is all single-rank, so rank bits are otherwise untested).
ROUTE_GEOMETRIES = [
    make_system_config("Base", channels=channels, standard=standard).dram
    for standard in STANDARD_NAMES for channels in (1, 2, 4)
] + [make_system_config("Base", channels=2,
                        dram_overrides={"ranks_per_channel": 2}).dram]


def clear_routes():
    with address_module._ROUTES_LOCK:
        for memo in address_module._ROUTES.values():
            memo.clear()
        address_module._stored = 0


def stored_routes():
    with address_module._ROUTES_LOCK:
        return sum(map(len, address_module._ROUTES.values()))


def assert_routed_like_a_fresh_decode(mapper, address):
    decoded, flat_bank, channel = mapper.route(address)
    fresh = AddressMapper(mapper.config)
    expected = fresh.decode(address)
    assert decoded == expected
    assert flat_bank == fresh.flat_bank(expected)
    assert channel == expected.channel


class CountingDecode:
    """Counts ``AddressMapper.decode`` calls while installed."""

    def __init__(self, monkeypatch):
        self.calls = 0
        original = AddressMapper.decode

        def decode(mapper, address):
            self.calls += 1
            return original(mapper, address)

        monkeypatch.setattr(AddressMapper, "decode", decode)


class TestSharedRoutes:
    @given(geometries=st.tuples(st.sampled_from(ROUTE_GEOMETRIES),
                                st.sampled_from(ROUTE_GEOMETRIES)),
           addresses=st.lists(st.integers(min_value=0, max_value=1 << 40),
                              min_size=1, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_routes_match_a_fresh_decode(self, geometries, addresses):
        """Cold, warm, then two geometries interleaved on one address set."""
        first, second = (AddressMapper(dram) for dram in geometries)
        clear_routes()
        for _ in range(2):
            for address in addresses:
                assert_routed_like_a_fresh_decode(first, address)
        for _ in range(2):
            for address in addresses:
                assert_routed_like_a_fresh_decode(second, address)
                assert_routed_like_a_fresh_decode(first, address)

    @given(dram=st.sampled_from(ROUTE_GEOMETRIES),
           address=st.integers(max_value=-1))
    @settings(max_examples=30, deadline=None)
    def test_negative_address_raises_and_stores_nothing(self, dram,
                                                        address):
        mapper = AddressMapper(dram)
        clear_routes()
        with pytest.raises(ValueError):
            mapper.route(address)
        assert stored_routes() == 0

    @pytest.mark.parametrize("name", CONFIGURATION_NAMES)
    def test_warm_run_matches_cold_and_decodes_nothing(
            self, name, catalog_trace, monkeypatch):
        counter = CountingDecode(monkeypatch)
        config = make_system_config(name)
        clear_routes()
        cold = System(config, [catalog_trace]).run("mcf").to_dict()
        assert counter.calls > 0
        counter.calls = 0
        warm = System(config, [catalog_trace]).run("mcf").to_dict()
        assert counter.calls == 0
        assert warm == cold

    @pytest.mark.parametrize("name,channels",
                             (("Base", 1), ("FIGCache-Fast", 2)))
    def test_tiny_bound_keeps_results_and_is_never_exceeded(
            self, name, channels, catalog_trace, monkeypatch):
        config = make_system_config(name, channels=channels)
        clear_routes()
        expected = System(config, [catalog_trace]).run("mcf").to_dict()
        monkeypatch.setattr(address_module, "ROUTE_CAPACITY", 64)
        clear_routes()
        original = AddressMapper.route
        most = 0

        def route(mapper, address):
            nonlocal most
            entry = original(mapper, address)
            most = max(most, stored_routes())
            return entry

        monkeypatch.setattr(AddressMapper, "route", route)
        assert System(config, [catalog_trace]).run("mcf").to_dict() \
            == expected
        assert 0 < most <= 64

    @pytest.mark.parametrize("name", CONFIGURATION_NAMES)
    def test_every_paper_configuration_routes_through_one_memo(
            self, name, monkeypatch):
        """Fast subarrays and timings never key the memo: a route Base
        stored is the route every configuration reads, with no decode."""
        base = AddressMapper(make_system_config("Base", channels=2).dram)
        other = AddressMapper(make_system_config(name, channels=2).dram)
        assert other.routes is base.routes
        clear_routes()
        entry = base.route(0x1234_5640)
        counter = CountingDecode(monkeypatch)
        assert other.route(0x1234_5640) is entry
        assert counter.calls == 0

    def test_ddr4_speed_grades_share_one_memo(self):
        for channels in (1, 2, 4):
            memos = {id(AddressMapper(make_system_config(
                "Base", channels=channels, standard=standard).dram).routes)
                for standard in ("DDR4-1600", "DDR4-2400", "DDR4-3200")}
            assert len(memos) == 1

    def test_geometries_share_a_memo_exactly_when_their_routes_agree(self):
        rng = random.Random(15)
        addresses = [rng.randrange(1 << 40) for _ in range(200)]
        mappers = [AddressMapper(dram) for dram in ROUTE_GEOMETRIES]
        routes = [[(decoded, mapper.flat_bank(decoded))
                   for decoded in map(mapper.decode, addresses)]
                  for mapper in mappers]
        for first, second in combinations(range(len(mappers)), 2):
            shared = mappers[first].routes is mappers[second].routes
            assert shared == (routes[first] == routes[second])

    def test_only_route_writes_the_memo(self):
        mapper = AddressMapper(make_system_config("Base").dram)
        clear_routes()
        for address in range(0, 64 * 100, 64):
            mapper.decode(address)
            mapper.flat_bank(mapper.decode(address))
        assert stored_routes() == 0
        mapper.route(0)
        assert stored_routes() == 1

    def test_full_memo_clears_every_geometry_in_place(self, monkeypatch):
        """The miss past the bound empties every memo without rebinding
        one, so a reference hoisted before it still sees later routes."""
        monkeypatch.setattr(address_module, "ROUTE_CAPACITY", 4)
        one, two = (AddressMapper(make_system_config("Base",
                                                     channels=channels).dram)
                    for channels in (1, 2))
        held = one.routes, two.routes
        clear_routes()
        for address in range(0, 4 * 64, 64):
            (one if address % 128 else two).route(address)
        assert stored_routes() == 4
        entry = one.route(1 << 20)
        assert one.routes is held[0] and two.routes is held[1]
        assert held[0] == {1 << 20: entry} and held[1] == {}
        assert address_module._stored == 1

    def test_enqueue_routes_through_the_shared_memo(self, monkeypatch):
        """Two systems of one geometry decode an address once between
        them, and each queues it on its own channel's controller."""
        dram = make_system_config("Base", channels=4).dram
        devices = [DRAMDevice(dram, refresh_enabled=False)
                   for _ in range(2)]
        address = 0x1234_5640
        expected = AddressMapper(dram).decode(address)
        clear_routes()
        counter = CountingDecode(monkeypatch)
        for device in devices:
            controllers = [ChannelController(channel, BaseMechanism())
                           for channel in device.channels]
            request = MemoryRequest(0, address, True, 0)
            request.decoded, request.flat_bank, channel = \
                device.mapper.route(address)
            assert controllers[channel].enqueue(request, 0) == []
            assert request.decoded == expected
            assert [controller.write_queue_occupancy
                    for controller in controllers] \
                == [int(index == expected.channel) for index in range(4)]
        assert counter.calls == 1

    def test_threads_share_a_bounded_memo(self, monkeypatch):
        """More threads than CPUs route two geometries' addresses through a
        64-route memo that keeps clearing: every route must equal a fresh
        decode, and no thread may see more than 64 routes stored."""
        monkeypatch.setattr(address_module, "ROUTE_CAPACITY", 64)
        clear_routes()
        drams = [make_system_config("Base", channels=4).dram,
                 make_system_config("Base", channels=4,
                                    standard="LPDDR4-3200").dram]
        failures = []

        def work(seed):
            rng = random.Random(seed)
            mappers = [AddressMapper(dram) for dram in drams]
            try:
                for _ in range(4000):
                    mapper = rng.choice(mappers)
                    address = rng.randrange(256) * 4096 + rng.randrange(64)
                    decoded = AddressMapper(mapper.config).decode(address)
                    expected = (decoded, mapper.flat_bank(decoded),
                                decoded.channel)
                    if mapper.route(address) != expected:
                        failures.append(f"route of {address:#x} differs")
                    if stored_routes() > 64:
                        failures.append("memo above its bound")
            except Exception as exc:  # reported by the assertion below
                failures.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(seed,))
                       for seed in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
        # A lost update of the shared count would leave it off the truth.
        assert address_module._stored == stored_routes()
