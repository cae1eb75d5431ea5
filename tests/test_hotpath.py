"""Tests pinning the hot-path overhaul (PR 2).

Covers the golden-equivalence guarantee (the per-bank indexed scheduler,
heap-based wake-ups, and slotted hot objects must not change any simulated
result), the FR-FCFS scheduling invariants on the new per-bank queues, the
simulator's safety-limit reporting, and the lazily-invalidated helper
structures (wake-up heap, tag-store free-slot heap).

The golden fixture ``tests/golden/scheduler_equivalence.json`` was captured
by running the listed workloads at smoke scale on the pre-PR-2 revision
(commit 3f68bea, before the scheduler refactor); regenerating it on the
current code must reproduce it bit for bit.
"""

import json
from pathlib import Path

import pytest

from repro.baselines import BaseMechanism
from repro.controller import (ChannelController, FRFCFSScheduler,
                              MemoryRequest, SchedulerConfig)
from repro.dram import DRAMConfig, DRAMDevice
from repro.core.tag_store import FigTagStore
from repro.cpu import TraceCore
from repro.experiments.engine import ExperimentScale
from repro.sim.config import make_system_config
from repro.sim.simulator import Simulator, SimulatorLimits
from repro.sim.system import run_workload
from repro.workloads.catalog import get_benchmark
from repro.workloads.multiprogram import make_workload_suite
from repro.workloads.trace import TraceRecord

GOLDEN_PATH = Path(__file__).parent / "golden" / "scheduler_equivalence.json"


def _run_golden_case(key: str) -> dict:
    """Re-run one golden case and return its ``to_dict`` result."""
    scale = ExperimentScale.smoke()
    kind, configuration, workload = key.split(":", 2)
    if kind == "single":
        config = make_system_config(configuration, channels=1)
        traces = [get_benchmark(workload)
                  .make_trace(scale.single_core_records)]
    else:
        suite = {w.name: w for w in make_workload_suite(
            num_cores=scale.num_cores,
            mixes_per_category=scale.mixes_per_category)}
        config = make_system_config(configuration,
                                    channels=scale.multicore_channels)
        traces = suite[workload].make_traces(scale.multicore_records)
    return run_workload(config, traces, workload).to_dict()


with GOLDEN_PATH.open(encoding="utf-8") as _handle:
    _GOLDEN = json.load(_handle)


class TestGoldenEquivalence:
    """The optimized simulator reproduces pre-refactor results bit for bit."""

    def test_fixture_covers_base_and_figaro_workloads(self):
        configurations = {key.split(":")[1] for key in _GOLDEN}
        workloads = {key.split(":", 2)[2] for key in _GOLDEN}
        assert {"Base", "FIGCache-Fast", "LISA-VILLA"} <= configurations
        assert len(workloads) >= 3

    @pytest.mark.parametrize("key", sorted(_GOLDEN))
    def test_bit_identical_result(self, key):
        assert _run_golden_case(key) == _GOLDEN[key], (
            f"{key} diverged from the pre-refactor golden result")


# ----------------------------------------------------------------------
# FR-FCFS invariants on the per-bank indexed queues.
# ----------------------------------------------------------------------
def _make_channel(scheduler_config=None):
    config = DRAMConfig(channels=1)
    device = DRAMDevice(config, refresh_enabled=False)
    return device, ChannelController(device.channel(0), BaseMechanism(),
                                     scheduler_config)


def _request(device, address, is_write=False, arrival=0):
    request = MemoryRequest(0, address, is_write, arrival)
    request.decoded, request.flat_bank, _ = device.mapper.route(address)
    return request


class TestDrainHysteresis:
    """Write drain engages at the high watermark and holds to the low one."""

    CONFIG = SchedulerConfig(read_queue_depth=64, write_queue_depth=64,
                             write_drain_high_watermark=6,
                             write_drain_low_watermark=2)

    def test_crossing_high_watermark_enters_drain(self):
        device, cc = _make_channel(self.CONFIG)
        # Occupy the bank so subsequent writes queue up instead of being
        # serviced immediately.
        cc.enqueue(_request(device, 0x0), 0)
        for index in range(self.CONFIG.write_drain_high_watermark):
            assert not cc._drain_mode
            cc.enqueue(_request(device, 0x40 * (index + 1), is_write=True), 0)
        assert cc._drain_mode

    def test_drain_holds_until_low_watermark(self):
        device, cc = _make_channel(self.CONFIG)
        cc.enqueue(_request(device, 0x0), 0)
        for index in range(self.CONFIG.write_drain_high_watermark):
            cc.enqueue(_request(device, 0x40 * (index + 1), is_write=True), 0)
        assert cc._drain_mode
        # Drain the queue by waking the controller until the occupancy
        # falls; hysteresis keeps drain mode on above the low watermark.
        now = 0
        seen_between_watermarks = False
        while cc.write_queue_occupancy > self.CONFIG.write_drain_low_watermark:
            wake = cc.next_wakeup()
            assert wake is not None
            now = max(now + 1, wake)
            cc.wake(now)
            if self.CONFIG.write_drain_low_watermark \
                    < cc.write_queue_occupancy \
                    < self.CONFIG.write_drain_high_watermark:
                assert cc._drain_mode
                seen_between_watermarks = True
        assert seen_between_watermarks
        assert cc.write_queue_occupancy \
            <= self.CONFIG.write_drain_low_watermark
        assert not cc._drain_mode


class TestOpenRowPreference:
    """First-ready selection honours the mechanism's effective-row view."""

    def test_row_of_override_redirects_first_ready(self):
        device, cc = _make_channel()
        channel = cc.channel
        # Open some row in bank 0.
        opener = _request(device, 0x0)
        cc.enqueue(opener, 0)
        bank = channel.bank(opener.flat_bank)
        open_row = bank.open_row
        assert open_row is not None

        # ``older`` misses the open row by address; ``younger`` also misses
        # by address, but a mechanism's row_of view redirects it to the
        # open row (as an in-DRAM cache hit would).
        older = _request(device, 0x0 + 8192 * 16 * 4)
        younger = _request(device, 0x0 + 8192 * 16 * 8)
        assert older.decoded.row != open_row
        assert younger.decoded.row != open_row
        scheduler = FRFCFSScheduler()

        def row_of(request):
            return open_row if request is younger else request.decoded.row

        picked = scheduler.pick(bank, [older, younger], (),
                                write_backlog=0, drain_mode=False,
                                row_of=row_of)
        assert picked is younger
        # Without the override, plain FCFS falls back to the oldest.
        picked_plain = scheduler.pick(bank, [older, younger], (),
                                      write_backlog=0, drain_mode=False)
        assert picked_plain is older


class TestFCFSOrdering:
    """Per-bank queues stay in request-id order even for odd arrivals."""

    #: Same bank as address 0x0, next rows (row stride for the default
    #: mapping: 8 kB row x 16 banks).
    ROW_STRIDE = 8192 * 16

    def test_out_of_order_arrival_is_insertion_sorted(self):
        device, cc = _make_channel()
        # Keep the bank busy so requests queue.
        cc.enqueue(_request(device, 0x0), 0)
        first = _request(device, 1 * self.ROW_STRIDE)
        second = _request(device, 2 * self.ROW_STRIDE)
        third = _request(device, 3 * self.ROW_STRIDE)
        assert first.flat_bank == second.flat_bank == third.flat_bank == 0
        # Deliver out of creation order: the controller must restore FCFS
        # (ascending request-id) order in the bank's queue.
        cc.enqueue(second, 0)
        cc.enqueue(third, 0)
        cc.enqueue(first, 0)
        queue = cc._reads_by_bank[first.flat_bank]
        assert [request.request_id for request in queue] \
            == sorted(request.request_id for request in queue)
        assert queue[0] is first

    def test_wraparound_ids_keep_deque_order_consistent(self):
        """Ids that wrapped to small values are ordered like fresh ids.

        The tie-break is "front of the per-bank deque"; the deque is kept
        in ascending request-id order, so a wrapped (small) id sorts first
        exactly as a freshly restarted id counter would.
        """
        device, cc = _make_channel()
        cc.enqueue(_request(device, 0x0), 0)
        late_but_wrapped = _request(device, 1 * self.ROW_STRIDE)
        early_large_id = _request(device, 2 * self.ROW_STRIDE)
        assert late_but_wrapped.flat_bank == early_large_id.flat_bank == 0
        late_but_wrapped.request_id = 3            # wrapped counter
        early_large_id.request_id = 2 ** 62        # pre-wrap id
        cc.enqueue(early_large_id, 0)
        cc.enqueue(late_but_wrapped, 0)
        queue = cc._reads_by_bank[late_but_wrapped.flat_bank]
        assert queue[0] is late_but_wrapped
        assert queue[-1] is early_large_id


# ----------------------------------------------------------------------
# Simulator safety limits.
# ----------------------------------------------------------------------
def _tiny_sim(limits):
    trace = [TraceRecord(bubbles=0, address=index * 4096, is_write=False)
             for index in range(50)]
    config = DRAMConfig(channels=1)
    device = DRAMDevice(config, refresh_enabled=False)
    controller = ChannelController(device.channel(0), BaseMechanism())
    core = TraceCore(0, trace)
    return Simulator([core], [controller], device.mapper, limits)


class TestSimulatorLimits:
    def test_event_limit_reports_true_processed_count(self):
        simulator = _tiny_sim(SimulatorLimits(max_events=5))
        with pytest.raises(RuntimeError) as excinfo:
            simulator.run()
        # The limit is checked before the next event is counted, so exactly
        # max_events events were processed and the message says so.
        assert simulator.processed_events == 5
        assert "5" in str(excinfo.value)

    def test_cycle_limit_raises(self):
        simulator = _tiny_sim(SimulatorLimits(max_cycles=1))
        with pytest.raises(RuntimeError, match="cycles"):
            simulator.run()

    def test_unconstrained_run_finishes(self):
        simulator = _tiny_sim(None)
        finish = simulator.run()
        assert finish > 0
        assert simulator.processed_events > 0


# ----------------------------------------------------------------------
# Lazily-invalidated helper structures.
# ----------------------------------------------------------------------
class TestWakeupHeap:
    def test_next_wakeup_tracks_earliest_pending_bank(self):
        device, cc = _make_channel()
        # Two banks with queued work behind a busy bank each.
        for address in (0x0, 0x40, 0x100000, 0x100040):
            cc.enqueue(_request(device, address), 0)
        wake = cc.next_wakeup()
        assert wake is not None
        # Waking at the due cycle services the due bank and re-arms later
        # wake-ups; the reported next wake-up never moves backwards.
        previous = wake
        for _ in range(16):
            if cc.next_wakeup() is None:
                break
            now = max(previous, cc.next_wakeup())
            cc.wake(now)
            nxt = cc.next_wakeup()
            if nxt is None:
                break
            assert nxt > now
            previous = nxt
        assert not cc.has_pending_work()


class TestTagStoreFreeHeap:
    def test_first_free_slot_matches_full_scan(self):
        tags = FigTagStore(num_cache_rows=2, segments_per_row=4)
        assert tags.first_free_slot() == tags.free_slots()[0] == 0
        for slot in range(8):
            tags.insert(slot, source_row=slot, source_segment=0)
        assert tags.first_free_slot() is None
        assert tags.free_slots() == []
        tags.evict(5)
        tags.evict(2)
        assert tags.first_free_slot() == tags.free_slots()[0] == 2
        tags.insert(2, source_row=100, source_segment=1)
        assert tags.first_free_slot() == tags.free_slots()[0] == 5
