"""Tests for the FIGCache tag store, policies, and mechanisms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BaseMechanism, LISAVillaConfig, LISAVillaMechanism
from repro.core import (FIGCache, FIGCacheConfig, FigTagStore,
                        InsertAnyMissPolicy, MissCountThresholdPolicy,
                        make_replacement_policy)
from repro.core.replacement import (LRUReplacement, RandomReplacement,
                                    RowBenefitReplacement,
                                    SegmentBenefitReplacement,
                                    available_replacement_policies)
from repro.dram import Channel, DRAMConfig


def make_channel(fast_subarrays=2, channels=1):
    config = DRAMConfig(channels=channels,
                        fast_subarrays_per_bank=fast_subarrays)
    return config, Channel(config, 0, refresh_enabled=False)


# ----------------------------------------------------------------------
# Tag store.
# ----------------------------------------------------------------------
class TestTagStore:
    def test_geometry(self):
        tags = FigTagStore(num_cache_rows=64, segments_per_row=8)
        assert tags.num_slots == 512
        assert tags.cache_row_of_slot(17) == 2
        assert tags.slot_offset_in_row(17) == 1
        assert tags.slots_of_cache_row(1) == list(range(8, 16))

    def test_insert_lookup_evict_cycle(self):
        tags = FigTagStore(4, 8)
        entry = tags.insert(3, source_row=100, source_segment=2)
        assert tags.lookup(100, 2) is entry
        assert entry.benefit == 1
        snapshot = tags.evict(3)
        assert snapshot.source_row == 100
        assert tags.lookup(100, 2) is None

    def test_double_insert_same_slot_rejected(self):
        tags = FigTagStore(2, 8)
        tags.insert(0, 1, 1)
        with pytest.raises(ValueError):
            tags.insert(0, 2, 2)

    def test_duplicate_segment_rejected(self):
        tags = FigTagStore(2, 8)
        tags.insert(0, 1, 1)
        with pytest.raises(ValueError):
            tags.insert(1, 1, 1)

    def test_touch_saturates_benefit(self):
        tags = FigTagStore(2, 8, benefit_bits=5)
        entry = tags.insert(0, 1, 1)
        for _ in range(100):
            tags.touch(entry, is_write=False)
        assert entry.benefit == 31

    def test_touch_write_sets_dirty(self):
        tags = FigTagStore(2, 8)
        entry = tags.insert(0, 1, 1)
        tags.touch(entry, is_write=True)
        assert entry.dirty

    def test_row_benefit_sums_valid_entries(self):
        tags = FigTagStore(2, 4)
        tags.insert(0, 1, 0)
        entry = tags.insert(1, 2, 0)
        tags.touch(entry, False)
        assert tags.row_benefit(0) == 3
        assert tags.row_benefit(1) == 0

    def test_storage_bits_match_paper(self):
        tags = FigTagStore(64, 8, benefit_bits=5)
        # 32K rows x 8 segments -> 256K segments -> 19-bit tag per the paper,
        # 26 bits per entry in total (tag + benefit + valid + dirty).
        assert tags.storage_bits_per_entry(32768, 8) in (25, 26)

    @given(st.lists(st.tuples(st.integers(0, 499), st.integers(0, 7)),
                    min_size=1, max_size=64, unique=True))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_matches_valid_entries(self, segments):
        tags = FigTagStore(16, 8)
        free = tags.free_slots()
        for slot, (row, segment) in zip(free, segments):
            tags.insert(slot, row, segment)
        inserted = min(len(free), len(segments))
        assert tags.occupancy() == pytest.approx(inserted / tags.num_slots)
        assert len(tags.valid_entries()) == inserted


# ----------------------------------------------------------------------
# Replacement policies.
# ----------------------------------------------------------------------
def filled_tag_store(rows=4, segments=4):
    tags = FigTagStore(rows, segments)
    for slot in range(tags.num_slots):
        tags.insert(slot, source_row=1000 + slot, source_segment=0)
    return tags


class TestReplacementPolicies:
    def test_available_policies(self):
        assert set(available_replacement_policies()) == {
            "LRU", "Random", "RowBenefit", "SegmentBenefit"}

    def test_factory_rejects_unknown(self):
        with pytest.raises(ValueError):
            make_replacement_policy("MRU", FigTagStore(2, 2))

    def test_segment_benefit_evicts_lowest(self):
        tags = filled_tag_store()
        hot = tags.lookup(1000 + 5, 0)
        for _ in range(10):
            tags.touch(hot, False)
        policy = SegmentBenefitReplacement(tags)
        assert policy.choose_victim() != 5

    def test_lru_evicts_least_recently_used(self):
        tags = filled_tag_store()
        for slot in range(1, tags.num_slots):
            tags.touch(tags.entry(slot), False)
        policy = LRUReplacement(tags)
        assert policy.choose_victim() == 0

    def test_random_is_deterministic_given_seed(self):
        tags = filled_tag_store()
        a = RandomReplacement(tags, seed=7).choose_victim()
        b = RandomReplacement(filled_tag_store(), seed=7).choose_victim()
        assert a == b

    def test_row_benefit_drains_one_row_before_moving_on(self):
        tags = filled_tag_store(rows=4, segments=4)
        # Make cache row 2 the coldest row.
        for slot in range(tags.num_slots):
            if tags.cache_row_of_slot(slot) != 2:
                tags.touch(tags.entry(slot), False)
        policy = RowBenefitReplacement(tags)
        victims = []
        for _ in range(4):
            victim = policy.choose_victim()
            victims.append(victim)
            tags.evict(victim)
            policy.notify_eviction(victim)
            # Refill the slot with a new segment, as FIGCache would.
            tags.insert(victim, 5000 + victim, 1)
        assert all(tags.cache_row_of_slot(v) == 2 for v in victims)
        assert policy.eviction_row is None

    def test_row_benefit_requires_valid_entries(self):
        tags = FigTagStore(2, 2)
        policy = RowBenefitReplacement(tags)
        with pytest.raises(ValueError):
            policy.choose_victim()


# ----------------------------------------------------------------------
# Insertion policies.
# ----------------------------------------------------------------------
class TestInsertionPolicies:
    def test_insert_any_miss_always_inserts(self):
        policy = InsertAnyMissPolicy()
        assert policy.should_insert(1, 1)
        assert policy.should_insert(2, 3)

    def test_threshold_policy_counts_misses(self):
        policy = MissCountThresholdPolicy(threshold=3)
        assert not policy.should_insert(1, 0)
        assert not policy.should_insert(1, 0)
        assert policy.should_insert(1, 0)
        # Counter resets once the segment is inserted.
        assert not policy.should_insert(1, 0)

    def test_threshold_one_behaves_like_insert_any_miss(self):
        policy = MissCountThresholdPolicy(threshold=1)
        assert policy.should_insert(9, 9)

    def test_threshold_policy_bounds_tracking(self):
        policy = MissCountThresholdPolicy(threshold=4, max_tracked=10)
        for row in range(50):
            policy.should_insert(row, 0)
        assert policy.tracked_segments <= 10

    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            MissCountThresholdPolicy(threshold=0)


# ----------------------------------------------------------------------
# FIGCache mechanism.
# ----------------------------------------------------------------------
class TestFIGCacheMechanism:
    def test_config_validation(self):
        dram = DRAMConfig(fast_subarrays_per_bank=2)
        FIGCacheConfig().validate(dram)
        with pytest.raises(ValueError):
            FIGCacheConfig(placement="bogus").validate(dram)
        with pytest.raises(ValueError):
            FIGCacheConfig(segment_blocks=10).validate(dram)
        with pytest.raises(ValueError):
            FIGCacheConfig(cache_rows_per_bank=65).validate(dram)

    def test_miss_then_hit_sequence(self):
        config, channel = make_channel()
        cache = FIGCache(config, FIGCacheConfig())
        decoded = channel.config and None
        device_decoded = __import__("repro.dram.address",
                                    fromlist=["AddressMapper"])
        mapper = device_decoded.AddressMapper(config)
        decoded = mapper.decode(0x40000)
        first = cache.service(channel, 0, decoded, 0, False)
        assert first.in_dram_cache_hit is False
        assert cache.stats.insertions == 1
        second = cache.service(channel, first.bank_busy_until + 1000,
                               decoded, 0, False)
        assert second.in_dram_cache_hit is True
        assert cache.stats.cache_hit_rate == pytest.approx(0.5)

    def test_effective_row_redirects_after_insertion(self):
        config, channel = make_channel()
        cache = FIGCache(config, FIGCacheConfig())
        from repro.dram.address import AddressMapper

        decoded = AddressMapper(config).decode(0x80000)
        cache.service(channel, 0, decoded, 0, False)
        # Close the bank so the open-row preference does not apply.
        channel.bank(0).precharge(10 ** 6)
        effective = cache.effective_row(channel, decoded, 0)
        assert effective >= config.regular_rows_per_bank

    def test_ideal_placement_has_zero_relocation_cycles(self):
        config, channel = make_channel()
        cache = FIGCache(config, FIGCacheConfig(placement="ideal"))
        from repro.dram.address import AddressMapper

        decoded = AddressMapper(config).decode(0x90000)
        result = cache.service(channel, 0, decoded, 0, False)
        assert result.relocation_cycles == 0
        assert cache.stats.insertions == 1

    def test_slow_placement_excludes_reserved_subarray(self):
        config = DRAMConfig()
        channel = Channel(config, 0, refresh_enabled=False)
        cache = FIGCache(config, FIGCacheConfig(placement="slow"))
        from repro.dram.address import DecodedAddress

        reserved_row = config.regular_rows_per_bank - 1
        decoded = DecodedAddress(channel=0, rank=0, bankgroup=0, bank=0,
                                 row=reserved_row, column_block=0)
        cache.service(channel, 0, decoded, 0, False)
        assert cache.stats.insertions == 0

    def test_eviction_after_filling_cache(self):
        config, channel = make_channel()
        cache_config = FIGCacheConfig(cache_rows_per_bank=1,
                                      segment_blocks=16)
        cache = FIGCache(config, cache_config)
        from repro.dram.address import DecodedAddress

        now = 0
        segments_per_row = config.blocks_per_row // 16
        for index in range(segments_per_row + 2):
            decoded = DecodedAddress(channel=0, rank=0, bankgroup=0, bank=0,
                                     row=index * 7 + 1, column_block=0)
            result = cache.service(channel, now, decoded, 0, False)
            now = result.bank_busy_until + 100
        assert cache.stats.evictions == 2

    def test_dirty_eviction_triggers_writeback(self):
        config, channel = make_channel()
        cache_config = FIGCacheConfig(cache_rows_per_bank=1,
                                      segment_blocks=64)
        cache = FIGCache(config, cache_config)
        from repro.dram.address import DecodedAddress

        now = 0
        for index in range(3):
            decoded = DecodedAddress(channel=0, rank=0, bankgroup=0, bank=0,
                                     row=index * 11 + 1, column_block=0)
            result = cache.service(channel, now, decoded, 0, True)
            now = result.bank_busy_until + 100
        assert cache.stats.dirty_writebacks >= 1


# ----------------------------------------------------------------------
# FIGARO's constraints hold for every relocation FIGCache issues.
# ----------------------------------------------------------------------
INVARIANT_CONFIG = DRAMConfig(fast_subarrays_per_bank=2)
#: First row of the last regular subarray, where slow placement reserves
#: its cache rows.
LAST_SUBARRAY_ROW = (INVARIANT_CONFIG.regular_rows_per_bank
                     - INVARIANT_CONFIG.rows_per_subarray)


def recording_channel(config):
    """A channel that records every FIGARO relocation it performs."""
    calls = []

    class RecordingChannel(Channel):
        __slots__ = ()

        def relocate(self, now, flat_bank, source_row, destination_row,
                     num_blocks, keep_source_open=False):
            calls.append((source_row, destination_row, num_blocks))
            return super().relocate(now, flat_bank, source_row,
                                    destination_row, num_blocks,
                                    keep_source_open)

    return RecordingChannel(config, 0, refresh_enabled=False), calls


class TestFIGCacheRelocationInvariant:
    @given(placement=st.sampled_from(["fast", "slow"]),
           segment_blocks=st.sampled_from([8, 16, 32]),
           rows=st.lists(st.one_of(
               st.integers(0, INVARIANT_CONFIG.regular_rows_per_bank - 1),
               st.integers(LAST_SUBARRAY_ROW,
                           INVARIANT_CONFIG.regular_rows_per_bank - 1)),
               min_size=4, max_size=16, unique=True),
           num_accesses=st.integers(100, 600),
           rng=st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_relocations_move_one_segment_across_subarrays(
            self, placement, segment_blocks, rows, num_accesses, rng):
        # Two cache rows per bank and a small pool of source rows, so
        # random traffic both re-touches cached segments (writes dirty
        # them) and evicts them (dirty victims are written back).
        from repro.dram.address import DecodedAddress

        config = INVARIANT_CONFIG
        channel, calls = recording_channel(config)
        cache = FIGCache(config, FIGCacheConfig(
            placement=placement, segment_blocks=segment_blocks,
            cache_rows_per_bank=2))
        now = 0
        for _ in range(num_accesses):
            decoded = DecodedAddress(
                channel=0, rank=0, bankgroup=0, bank=0, row=rng.choice(rows),
                column_block=rng.randrange(config.blocks_per_row))
            now = cache.service(channel, now, decoded, 0,
                                rng.random() < 0.3).bank_busy_until
        stats = cache.stats
        assert len(calls) == stats.insertions + stats.dirty_writebacks
        assert stats.relocation_operations == len(calls) * segment_blocks
        for source_row, destination_row, num_blocks in calls:
            assert num_blocks == segment_blocks
            assert config.subarray_of_row(source_row) \
                != config.subarray_of_row(destination_row)


# ----------------------------------------------------------------------
# Baselines.
# ----------------------------------------------------------------------
class TestBaselines:
    def test_base_mechanism_never_reports_cache_hits(self):
        config, channel = make_channel(fast_subarrays=0)
        base = BaseMechanism()
        from repro.dram.address import AddressMapper

        decoded = AddressMapper(config).decode(0x1234 * 64)
        result = base.service(channel, 0, decoded, 0, False)
        assert result.in_dram_cache_hit is None
        assert base.effective_row(channel, decoded, 0) == decoded.row

    def test_lisa_villa_requires_fast_rows(self):
        with pytest.raises(ValueError):
            LISAVillaMechanism(DRAMConfig(fast_subarrays_per_bank=0))

    def test_lisa_villa_hop_distance_bounded_by_period(self):
        config = DRAMConfig(fast_subarrays_per_bank=16)
        lisa = LISAVillaMechanism(config, LISAVillaConfig())
        period = config.subarrays_per_bank // 16
        for row in range(0, config.regular_rows_per_bank,
                         config.rows_per_subarray):
            assert 1 <= lisa.hop_distance(row) <= period

    def test_lisa_villa_miss_then_hit(self):
        config = DRAMConfig(fast_subarrays_per_bank=16)
        channel = Channel(config, 0, refresh_enabled=False)
        lisa = LISAVillaMechanism(config)
        from repro.dram.address import AddressMapper

        decoded = AddressMapper(config).decode(0x200000)
        first = lisa.service(channel, 0, decoded, 0, False)
        assert first.in_dram_cache_hit is False
        channel.bank(0).precharge(first.bank_busy_until + 10)
        second = lisa.service(channel, first.bank_busy_until + 1000, decoded,
                              0, False)
        assert second.in_dram_cache_hit is True
        assert second.served_fast

    def test_lisa_villa_caches_whole_rows(self):
        config = DRAMConfig(fast_subarrays_per_bank=16)
        channel = Channel(config, 0, refresh_enabled=False)
        lisa = LISAVillaMechanism(config)
        from repro.dram.address import DecodedAddress

        a = DecodedAddress(0, 0, 0, 0, row=77, column_block=0)
        b = DecodedAddress(0, 0, 0, 0, row=77, column_block=100)
        first = lisa.service(channel, 0, a, 0, False)
        channel.bank(0).precharge(first.bank_busy_until + 10)
        second = lisa.service(channel, first.bank_busy_until + 500, b, 0,
                              False)
        assert second.in_dram_cache_hit is True
