"""Unit and property tests for the DRAM device substrate."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.dram import (AddressMapper, Bank, Channel, Command,
                        CommandCounters, DRAMConfig, DRAMDevice, DRAMTimings,
                        Rank, TimingSet, derive_fast_timings)
from repro.dram.address import DecodedAddress
from repro.dram.subarray import build_subarrays


# ----------------------------------------------------------------------
# Timings.
# ----------------------------------------------------------------------
class TestTimings:
    def test_default_timings_are_ddr4_1600(self):
        timings = DRAMTimings()
        assert timings.trcd_ns == pytest.approx(13.75)
        assert timings.tras_ns == pytest.approx(35.0)
        assert timings.treloc_ns == pytest.approx(1.0)

    def test_fast_timings_use_paper_reductions(self):
        fast = derive_fast_timings(DRAMTimings())
        assert fast.trcd_ns == pytest.approx(13.75 * (1 - 0.455))
        assert fast.trp_ns == pytest.approx(13.75 * (1 - 0.382))
        assert fast.tras_ns == pytest.approx(35.0 * (1 - 0.629))

    def test_cycle_conversion_rounds_up(self):
        ts = TimingSet.from_timings(DRAMTimings(), clock_ghz=3.2)
        assert ts.trcd == 44  # 13.75 ns * 3.2 GHz = 44 cycles exactly
        assert ts.tras == 112
        assert ts.treloc == 4  # 1 ns * 3.2 -> 3.2 -> rounds up to 4

    def test_cycle_conversion_is_monotone_in_clock(self):
        slow_clock = TimingSet.from_timings(DRAMTimings(), clock_ghz=1.0)
        fast_clock = TimingSet.from_timings(DRAMTimings(), clock_ghz=4.0)
        assert fast_clock.trcd >= slow_clock.trcd

    def test_latency_helpers_ordering(self):
        ts = TimingSet.from_timings(DRAMTimings())
        assert ts.row_hit_latency < ts.row_miss_latency
        assert ts.row_miss_latency < ts.row_conflict_latency

    def test_ns_round_trip(self):
        ts = TimingSet.from_timings(DRAMTimings())
        assert ts.ns(ts.cycles(10.0)) == pytest.approx(10.0, abs=0.5)

    @given(st.floats(min_value=0.01, max_value=1000.0))
    @settings(max_examples=50, deadline=None)
    def test_cycles_never_undershoot(self, ns):
        ts = TimingSet.from_timings(DRAMTimings())
        assert ts.cycles(ns) >= ns * ts.clock_ghz - 1e-6


# ----------------------------------------------------------------------
# Configuration.
# ----------------------------------------------------------------------
class TestDRAMConfig:
    def test_table1_capacity_is_4gb_per_channel(self):
        config = DRAMConfig()
        assert config.channel_capacity_bytes == 4 * 1024 ** 3
        assert config.banks_per_channel == 16
        assert config.blocks_per_row == 128

    def test_fast_region_rows_follow_regular_rows(self):
        config = DRAMConfig(fast_subarrays_per_bank=2)
        first_fast = config.fast_region_row(0)
        assert first_fast == config.regular_rows_per_bank
        assert config.is_fast_row(first_fast)
        assert not config.is_fast_row(first_fast - 1)

    def test_subarray_of_row_regular_and_fast(self):
        config = DRAMConfig(fast_subarrays_per_bank=2)
        assert config.subarray_of_row(0) == 0
        assert config.subarray_of_row(config.rows_per_subarray) == 1
        fast_row = config.fast_region_row(33)
        assert config.subarray_of_row(fast_row) == config.subarrays_per_bank + 1

    def test_all_subarrays_fast_flag(self):
        config = DRAMConfig(all_subarrays_fast=True)
        assert config.is_fast_row(0)

    def test_row_out_of_range_raises(self):
        config = DRAMConfig(fast_subarrays_per_bank=1)
        with pytest.raises(ValueError):
            config.subarray_of_row(config.rows_per_bank + 5)
        with pytest.raises(ValueError):
            config.fast_region_row(config.fast_rows_per_bank)

    def test_construction_rejects_bad_block_size(self):
        # Validation now runs in __post_init__, so the inconsistent
        # organization never comes into existence.
        with pytest.raises(ValueError, match="multiple of the cache block"):
            DRAMConfig(row_size_bytes=8192, block_size_bytes=96)

    def test_construction_rejects_zero_fast_rows(self):
        with pytest.raises(ValueError, match="rows_per_fast_subarray"):
            DRAMConfig(fast_subarrays_per_bank=2, rows_per_fast_subarray=0)

    def test_construction_rejects_negative_timing(self):
        with pytest.raises(ValueError, match="trcd_ns"):
            DRAMConfig(timings=DRAMTimings(trcd_ns=-1.0))

    def test_construction_rejects_unknown_refresh_mode(self):
        with pytest.raises(ValueError, match="refresh mode"):
            DRAMConfig(refresh_mode="sometimes")

    def test_construction_rejects_per_bank_refresh_without_trfc_pb(self):
        with pytest.raises(ValueError, match="trfc_pb_ns"):
            DRAMConfig(refresh_mode="per-bank")


# ----------------------------------------------------------------------
# Address mapping.
# ----------------------------------------------------------------------
class TestAddressMapper:
    def test_decode_fields_in_range(self):
        config = DRAMConfig(channels=4)
        mapper = AddressMapper(config)
        decoded = mapper.decode(123456789 * 64)
        assert 0 <= decoded.channel < 4
        assert 0 <= decoded.bank < config.banks_per_bankgroup
        assert 0 <= decoded.bankgroup < config.bankgroups_per_rank
        assert 0 <= decoded.row < config.regular_rows_per_bank
        assert 0 <= decoded.column_block < config.blocks_per_row

    def test_consecutive_blocks_share_a_row(self):
        mapper = AddressMapper(DRAMConfig(channels=1))
        a = mapper.decode(0x10000)
        b = mapper.decode(0x10000 + 64)
        assert a.row == b.row
        assert a.bank == b.bank
        assert b.column_block == a.column_block + 1

    def test_flat_bank_is_unique_per_bank(self):
        config = DRAMConfig(channels=1)
        mapper = AddressMapper(config)
        seen = set()
        for bankgroup in range(config.bankgroups_per_rank):
            for bank in range(config.banks_per_bankgroup):
                decoded = DecodedAddress(channel=0, rank=0,
                                         bankgroup=bankgroup, bank=bank,
                                         row=0, column_block=0)
                seen.add(mapper.flat_bank(decoded))
        assert len(seen) == config.banks_per_channel

    def test_segment_of(self):
        mapper = AddressMapper(DRAMConfig())
        decoded = DecodedAddress(channel=0, rank=0, bankgroup=0, bank=0,
                                 row=10, column_block=35)
        assert mapper.segment_of(decoded, 16) == 2

    def test_negative_address_rejected(self):
        mapper = AddressMapper(DRAMConfig())
        with pytest.raises(ValueError):
            mapper.decode(-1)

    @given(st.integers(min_value=0, max_value=2 ** 33))
    @settings(max_examples=200, deadline=None)
    def test_encode_decode_round_trip(self, block_index):
        config = DRAMConfig(channels=2)
        mapper = AddressMapper(config)
        address = block_index * config.block_size_bytes
        decoded = mapper.decode(address)
        assert mapper.decode(mapper.encode(decoded)) == decoded


# ----------------------------------------------------------------------
# Subarrays.
# ----------------------------------------------------------------------
class TestSubarrays:
    def test_build_subarrays_layout(self):
        subarrays = build_subarrays(num_slow=4, rows_per_slow=8,
                                    num_fast=2, rows_per_fast=2)
        assert len(subarrays) == 6
        assert subarrays[0].first_row == 0
        assert subarrays[3].last_row == 31
        assert subarrays[4].is_fast and subarrays[4].first_row == 32
        assert subarrays[5].last_row == 35

    def test_row_offset_and_contains(self):
        subarrays = build_subarrays(2, 8, 0, 0)
        assert subarrays[1].contains_row(9)
        assert subarrays[1].row_offset(9) == 1
        with pytest.raises(ValueError):
            subarrays[0].row_offset(9)


# ----------------------------------------------------------------------
# Bank timing behaviour.
# ----------------------------------------------------------------------
def make_bank(fast_subarrays=2, all_fast=False):
    config = DRAMConfig(fast_subarrays_per_bank=fast_subarrays,
                        all_subarrays_fast=all_fast)
    counters = CommandCounters()
    rank = Rank(config.slow_timing_set(), refresh_enabled=False)
    bank = Bank(config, rank, (0, 0, 0, 0), counters)
    return bank, counters, config


def figaro_relocate(bank, config, now, source_row, destination_row,
                    num_blocks, keep_source_open=False):
    """Bank.relocate with FIGARO's transfer term: one RELOC per block."""
    treloc = config.slow_timing_set().treloc
    return bank.relocate(now, source_row, destination_row,
                         num_blocks * treloc, num_blocks, keep_source_open)


class TestBank:
    def test_first_access_is_a_row_miss(self):
        bank, counters, _ = make_bank()
        result = bank.access(0, row=100, is_write=False, bus_free_at=0)
        assert result.outcome == "miss"
        assert counters.activates == 1
        assert result.completion_cycle > result.issue_cycle

    def test_second_access_to_same_row_is_a_hit_and_faster(self):
        bank, _, _ = make_bank()
        first = bank.access(0, 100, False, 0)
        second = bank.access(first.completion_cycle, 100, False,
                             first.completion_cycle)
        assert second.outcome == "hit"
        first_latency = first.completion_cycle - first.issue_cycle
        second_latency = second.completion_cycle - second.issue_cycle
        assert second_latency < first_latency

    def test_access_to_other_row_is_a_conflict(self):
        bank, counters, _ = make_bank()
        first = bank.access(0, 100, False, 0)
        conflict = bank.access(first.completion_cycle + 200, 200, False, 0)
        assert conflict.outcome == "conflict"
        assert counters.precharges == 1
        assert bank.open_row == 200

    def test_conflict_is_slower_than_miss(self):
        bank_a, _, _ = make_bank()
        miss = bank_a.access(0, 100, False, 0)
        bank_b, _, _ = make_bank()
        bank_b.access(0, 50, False, 0)
        conflict = bank_b.access(500, 100, False, 0)
        assert (conflict.completion_cycle - conflict.issue_cycle) > \
            (miss.completion_cycle - miss.issue_cycle)

    def test_fast_row_miss_is_faster_than_slow_row_miss(self):
        bank, _, config = make_bank()
        slow = bank.access(0, 100, False, 0)
        fast_bank, _, _ = make_bank()
        fast_row = config.fast_region_row(0)
        fast = fast_bank.access(0, fast_row, False, 0)
        assert fast.served_fast
        assert (fast.completion_cycle - fast.issue_cycle) < \
            (slow.completion_cycle - slow.issue_cycle)

    def test_write_blocks_precharge_longer_than_read(self):
        bank_r, _, _ = make_bank()
        bank_r.access(0, 1, False, 0)
        read_next = bank_r.earliest_start(10 ** 6, 2)
        bank_w, _, _ = make_bank()
        bank_w.access(0, 1, True, 0)
        write_next = bank_w.earliest_start(10 ** 6, 2)
        assert write_next >= read_next

    def test_relocate_counts_one_reloc_per_block(self):
        bank, counters, config = make_bank()
        bank.access(0, 100, False, 0)
        result = figaro_relocate(bank, config, 200, 100,
                                 config.fast_region_row(0), 16)
        assert result.reloc_commands == 16
        assert counters.relocs == 16
        assert result.completion_cycle > result.start_cycle

    def test_relocate_skips_activate_when_source_open(self):
        bank_open, open_counters, config = make_bank()
        bank_open.access(0, 100, False, 0)
        activates_before = open_counters.activates
        open_result = figaro_relocate(bank_open, config, 500, 100,
                                      config.fast_region_row(0), 16)
        bank_closed, closed_counters, _ = make_bank()
        closed_result = figaro_relocate(bank_closed, config, 500, 100,
                                        config.fast_region_row(0), 16)
        assert open_counters.activates - activates_before == 1
        assert closed_counters.activates == 2
        assert (open_result.completion_cycle - open_result.start_cycle) < \
            (closed_result.completion_cycle - closed_result.start_cycle)

    def test_relocate_keep_source_open_preserves_row(self):
        bank, _, config = make_bank()
        bank.access(0, 100, False, 0)
        figaro_relocate(bank, config, 500, 100, config.fast_region_row(0),
                        16, keep_source_open=True)
        assert bank.open_row == 100

    def test_relocate_without_keep_source_open_precharges(self):
        bank, _, config = make_bank()
        bank.access(0, 100, False, 0)
        figaro_relocate(bank, config, 500, 100, config.fast_region_row(0),
                        16)
        assert bank.open_row is None

    def test_relocate_same_row_rejected(self):
        bank, _, config = make_bank()
        with pytest.raises(ValueError):
            figaro_relocate(bank, config, 0, 5, 5, 1)
        with pytest.raises(ValueError):
            bank.relocate(0, 5, 6, -1, 0)
        # Zero blocks is rejected where blocks become cycles.
        channel = Channel(config, 0, refresh_enabled=False)
        with pytest.raises(ValueError):
            channel.relocate(0, 0, 5, 6, 0)

    def test_bulk_relocate_scales_with_transfer_cycles(self):
        bank_a, _, config = make_bank()
        short = bank_a.relocate(0, 100, config.fast_region_row(0), 10, 0)
        bank_b, _, _ = make_bank()
        long = bank_b.relocate(0, 100, config.fast_region_row(0), 500, 0)
        assert (long.completion_cycle - long.start_cycle) - \
            (short.completion_cycle - short.start_cycle) == 490

    def test_relocation_occupies_bank(self):
        bank, _, config = make_bank()
        bank.access(0, 100, False, 0)
        result = figaro_relocate(bank, config, 200, 100,
                                 config.fast_region_row(0), 16)
        follow_up = bank.access(result.start_cycle + 1, 100, False, 0)
        assert follow_up.issue_cycle >= result.completion_cycle


# ----------------------------------------------------------------------
# The relocation sequence (paper Section 4.2), entered through FIGARO's
# Channel.relocate and LISA-VILLA's Channel.bulk_relocate.
# ----------------------------------------------------------------------
RELOC_CONFIG = DRAMConfig(fast_subarrays_per_bank=2)
RELOC_TRELOC = RELOC_CONFIG.slow_timing_set().treloc


def relocation_channel(open_row=None, opened_at=0, is_write=False):
    """A refresh-free channel whose bank 0 has ``open_row`` open."""
    channel = Channel(RELOC_CONFIG, 0, refresh_enabled=False,
                      track_row_activations=True)
    if open_row is not None:
        channel.access(opened_at, 0, open_row, is_write)
    return channel


def command_counts(channel):
    counters = channel.counters
    return counters.activates, counters.precharges, counters.relocs


class TestRelocationSequence:
    @pytest.mark.parametrize("start_state, open_row, activates, precharges",
                             [("source open", 100, 1, 1),
                              ("bank closed", None, 2, 1),
                              ("other row open", 7, 2, 2)])
    @pytest.mark.parametrize("mechanism", ["figaro", "bulk"])
    def test_command_counts_per_start_state(self, start_state, open_row,
                                            activates, precharges,
                                            mechanism):
        channel = relocation_channel(open_row)
        destination = RELOC_CONFIG.fast_region_row(0)
        before = command_counts(channel)
        if mechanism == "figaro":
            channel.relocate(500, 0, 100, destination, 16)
            relocs = 16
        else:
            channel.bulk_relocate(500, 0, 100, destination,
                                  16 * RELOC_TRELOC)
            relocs = 0
        after = command_counts(channel)
        delta = tuple(a - b for a, b in zip(after, before))
        assert delta == (activates, precharges, relocs), start_state

    def test_one_block_relocation_matches_paper_latency(self):
        # Section 4.2: ACT(source, tRAS) + RELOC + ACT(destination, tRCD)
        # + PRE between two slow rows of different subarrays.
        config = DRAMConfig()
        timing = config.slow_timing_set()
        source, destination = 0, config.rows_per_subarray
        assert config.subarray_of_row(source) \
            != config.subarray_of_row(destination)
        channel = Channel(config, 0, refresh_enabled=False)
        result = channel.relocate(0, 0, source, destination, 1)
        cycles = result.completion_cycle - result.start_cycle
        assert (timing.tras, timing.treloc, timing.trcd, timing.trp) \
            == (112, 4, 44, 44)
        assert cycles == 112 + 4 + 44 + 44 == 204
        # 63.75 ns at 3.2 GHz: the paper's 63.5 ns with tRELOC's 1 ns
        # rounded up from 3.2 to 4 cycles.
        assert cycles / config.cpu_clock_ghz == pytest.approx(63.75)
        timings = config.timings
        assert timings.tras_ns + timings.treloc_ns + timings.trcd_ns \
            + timings.trp_ns == pytest.approx(63.5)

    @given(start_state=st.sampled_from(["bank closed", "source open",
                                        "other row open"]),
           source_fast=st.booleans(), destination_fast=st.booleans(),
           source_index=st.integers(0, RELOC_CONFIG.fast_rows_per_bank - 1),
           destination_index=st.integers(
               0, RELOC_CONFIG.fast_rows_per_bank - 1),
           other_row=st.integers(0, RELOC_CONFIG.rows_per_bank - 1),
           keep_source_open=st.booleans(), num_blocks=st.integers(1, 128),
           opened_at=st.integers(0, 1000), now=st.integers(0, 2000),
           is_write=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_figaro_and_bulk_transfer_share_one_sequence(
            self, start_state, source_fast, destination_fast, source_index,
            destination_index, other_row, keep_source_open, num_blocks,
            opened_at, now, is_write):
        config = RELOC_CONFIG
        regular = config.regular_rows_per_bank
        source = regular + source_index if source_fast \
            else source_index * 500
        destination = regular + destination_index if destination_fast \
            else destination_index * 500 + 7
        assume(source != destination and other_row != source)
        open_row = {"bank closed": None, "source open": source,
                    "other row open": other_row}[start_state]
        figaro = relocation_channel(open_row, opened_at, is_write)
        bulk = relocation_channel(open_row, opened_at, is_write)

        by_reloc = figaro.relocate(now, 0, source, destination, num_blocks,
                                   keep_source_open)
        by_copy = bulk.bulk_relocate(now, 0, source, destination,
                                     num_blocks * RELOC_TRELOC,
                                     keep_source_open)

        assert (by_reloc.start_cycle, by_reloc.completion_cycle) \
            == (by_copy.start_cycle, by_copy.completion_cycle)
        assert (by_reloc.reloc_commands, by_copy.reloc_commands) \
            == (num_blocks, 0)
        assert figaro.bank(0).open_row == bulk.bank(0).open_row
        assert figaro.bank(0).ready_for_next == bulk.bank(0).ready_for_next
        reloc_counts = figaro.counters.to_dict()
        copy_counts = bulk.counters.to_dict()
        assert reloc_counts.pop("relocs") == num_blocks
        assert copy_counts.pop("relocs") == 0
        assert reloc_counts == copy_counts


# ----------------------------------------------------------------------
# Rank constraints and refresh.
# ----------------------------------------------------------------------
def activate_banks_of_one_rank(count):
    """Row-miss every one of ``count`` banks of one rank at cycle 0.

    Returns each bank's ACTIVATE cycle, in issue order, and the rank's
    timings.  Refresh is off, so only the rank pacing in
    ``Bank._activate`` spaces the ACTIVATEs.
    """
    config = DRAMConfig()
    rank = Rank(config.slow_timing_set(), refresh_enabled=False)
    counters = CommandCounters()
    banks = [Bank(config, rank,
                  (0, 0, *divmod(index, config.banks_per_bankgroup)),
                  counters)
             for index in range(count)]
    for bank in banks:
        bank.access(0, 7, False, 0)
    return [bank._last_act for bank in banks], rank.timing


class TestRank:
    def test_trrd_spacing(self):
        acts, timing = activate_banks_of_one_rank(2)
        assert acts[1] - acts[0] >= timing.trrd

    def test_tfaw_limits_fifth_activate(self):
        acts, timing = activate_banks_of_one_rank(5)
        # tRRD alone would allow the fifth ACTIVATE at 4 * tRRD.
        assert timing.tfaw > 4 * timing.trrd
        assert acts[4] - acts[0] >= timing.tfaw

    def test_refresh_due_and_perform(self):
        timing = TimingSet.from_timings(DRAMTimings())
        rank = Rank(timing)
        assert not rank.refresh_due(0)
        assert rank.refresh_due(timing.trefi + 1)
        done = rank.perform_refresh(timing.trefi + 1)
        assert done == timing.trefi + 1 + timing.trfc
        assert rank.refresh_count == 1

    def test_refresh_disabled(self):
        timing = TimingSet.from_timings(DRAMTimings())
        rank = Rank(timing, refresh_enabled=False)
        assert not rank.refresh_due(10 ** 9)
        assert rank.pending_refreshes(10 ** 9) == 0


# ----------------------------------------------------------------------
# Channel and device.
# ----------------------------------------------------------------------
class TestChannelAndDevice:
    def test_channel_refresh_closes_rows(self):
        config = DRAMConfig()
        channel = Channel(config, 0, refresh_enabled=True)
        timing = config.slow_timing_set()
        channel.access(0, 0, 100, False)
        assert channel.bank(0).open_row == 100
        # Jump past several refresh intervals; the next access must wait for
        # the refresh and find the bank closed (so it re-activates).
        result = channel.access(3 * timing.trefi, 0, 100, False)
        assert result.outcome == "miss"
        assert channel.counters.refreshes >= 1

    def test_bus_serialises_back_to_back_accesses(self):
        config = DRAMConfig()
        channel = Channel(config, 0, refresh_enabled=False)
        first = channel.access(0, 0, 10, False)
        second = channel.access(0, 1, 10, False)
        assert second.completion_cycle >= first.completion_cycle \
            + config.slow_timing_set().tbl

    def test_device_counters_merge(self):
        device = DRAMDevice(DRAMConfig(channels=2), refresh_enabled=False)
        decoded, flat_bank, _ = device.mapper.route(0)
        device.channel(0).access(0, flat_bank, decoded.row, False)
        total = device.total_counters()
        assert total.reads == 1
        assert total.activates == 1

    def test_command_counters_row_tracking_disabled_by_default(self):
        counters = CommandCounters()
        counters.record_row_activation(("b",), 5)
        assert counters.row_activation_counts == {}

    def test_command_counters_record_each_command(self):
        counters = CommandCounters()
        for command in Command:
            counters.record_command(command)
        assert counters.activates == 1
        assert counters.relocs == 1
        assert counters.refreshes == 1
        assert counters.column_accesses == 2
