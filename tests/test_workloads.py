"""Tests for the trace format, synthetic generators, and workload catalog."""

import hashlib
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.workloads import (BENCHMARKS, SyntheticTraceGenerator, TraceRecord,
                             benchmark_names, get_benchmark,
                             intensive_benchmarks, make_workload_suite,
                             make_multiprogrammed_workload,
                             non_intensive_benchmarks, trace_statistics)
from repro.workloads.catalog import MULTITHREADED_BENCHMARKS
from repro.workloads.multiprogram import (CORE_ADDRESS_STRIDE,
                                          make_multithreaded_workload)
from repro.workloads.synthetic import SyntheticTraceConfig

import synthetic_reference

#: sha256 of the records of every catalog profile at seed offsets 0, 1 and
#: 17 (3,000 records; offset 17 moved to base address 2**32), and of one
#: suite mix per category (1,500 records per core).  Taken from the
#: generator as it was before its one-loop rewrite, which is
#: ``tests/synthetic_reference.py``; equal on CPython 3.11, 3.12 and 3.13.
PINNED_TRACE_SHA256 = {
    "catalog": "a20e2947c3bc1449a788eba2b1a07a962c0c3fcf26337fdb7ed4f3c25c56ccda",
    "mixes": "d2e986e63461ec9f03e2763a616e3df05ac6ddba39c8bd89d4b63d7c9ce6a8c4",
}


def records_sha256(traces) -> str:
    """sha256 over each trace's ``(bubbles, address, is_write)`` tuples."""
    digest = hashlib.sha256()
    for trace in traces:
        digest.update(repr([(record.bubbles, record.address, record.is_write)
                            for record in trace]).encode())
    return digest.hexdigest()


probabilities = st.one_of(st.sampled_from((0.0, 1.0)), st.floats(0.0, 1.0))


@st.composite
def trace_configs(draw) -> SyntheticTraceConfig:
    """Random configurations, edge values included.

    Fractions and probabilities at 0 and 1, ``mean_bubbles`` 0, bursts as
    long as a segment or longer (so the burst offset is a draw among one
    value), stream runs of a few blocks, working sets down to 0 bytes and
    negative base addresses (``validate`` rejects less than a block and a
    negative base).
    """
    block = draw(st.sampled_from((32, 64, 128)))
    hot_segments = draw(st.integers(1, 300))
    hot, stream = draw(st.one_of(
        st.sampled_from(((1.0, 0.0), (0.0, 1.0), (0.0, 0.0), (0.5, 0.5))),
        st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).map(
            lambda pair: (pair[0], (1.0 - pair[0]) * pair[1]))))
    return SyntheticTraceConfig(
        mean_bubbles=draw(st.one_of(st.just(0.0), st.floats(0.0, 400.0),
                                    st.integers(1, 400).map(float))),
        hot_segments=hot_segments,
        hot_segment_bytes=block * draw(st.sampled_from((1, 2, 5, 8, 16, 24))),
        hot_rows=draw(st.integers(1, 300)),
        hot_window_segments=draw(st.integers(1, hot_segments)),
        hot_window_drift=draw(probabilities),
        hot_jump_probability=draw(probabilities),
        hot_burst_blocks=draw(st.integers(1, 32)),
        hot_fraction=hot,
        stream_fraction=stream,
        random_fraction=1.0 - hot - stream,
        concurrent_streams=draw(st.integers(1, 8)),
        stream_length_blocks=draw(st.one_of(st.integers(1, 4),
                                            st.integers(1, 1024))),
        working_set_bytes=draw(st.integers(0, 1 << 30)),
        write_fraction=draw(probabilities),
        block_size_bytes=block,
        row_size_bytes=block * draw(st.integers(1, 256)),
        base_address=draw(st.one_of(st.just(0),
                                    st.integers(-(1 << 12), 1 << 40))),
        seed=draw(st.integers(0, 1 << 32)))


@st.composite
def split_lengths(draw) -> list[int]:
    """Up to 2,000 records, asked for in one to three calls."""
    total = draw(st.integers(0, 2000))
    cuts = sorted(draw(st.lists(st.integers(0, total), max_size=2)))
    return [end - start for start, end in zip([0] + cuts, cuts + [total])]


class TestTraceRecord:
    def test_instruction_count(self):
        record = TraceRecord(bubbles=9, address=64, is_write=False)
        assert record.instructions == 10

    def test_rejects_negative_fields(self):
        with pytest.raises(ValueError):
            TraceRecord(bubbles=-1, address=0, is_write=False)
        with pytest.raises(ValueError):
            TraceRecord(bubbles=0, address=-64, is_write=False)

    def test_statistics(self):
        trace = [TraceRecord(9, 0, False), TraceRecord(9, 64, True),
                 TraceRecord(9, 0, False)]
        stats = trace_statistics(trace)
        assert stats["instructions"] == 30
        assert stats["memory_accesses"] == 3
        assert stats["write_fraction"] == pytest.approx(1 / 3)
        assert stats["unique_blocks"] == 2
        assert stats["accesses_per_kilo_instruction"] == pytest.approx(100.0)


class TestSyntheticGenerator:
    def test_determinism_given_seed(self):
        config = SyntheticTraceConfig(seed=5)
        a = SyntheticTraceGenerator(config).generate(500)
        b = SyntheticTraceGenerator(config).generate(500)
        assert a == b

    def test_different_seeds_differ(self):
        a = SyntheticTraceGenerator(SyntheticTraceConfig(seed=1)).generate(200)
        b = SyntheticTraceGenerator(SyntheticTraceConfig(seed=2)).generate(200)
        assert a != b

    def test_addresses_are_block_aligned_and_in_range(self):
        config = SyntheticTraceConfig(seed=3, base_address=1 << 32)
        trace = SyntheticTraceGenerator(config).generate(1000)
        for record in trace:
            assert record.address % config.block_size_bytes == 0
            assert record.address >= config.base_address

    def test_write_fraction_close_to_target(self):
        config = SyntheticTraceConfig(seed=4, write_fraction=0.3)
        trace = SyntheticTraceGenerator(config).generate(4000)
        stats = trace_statistics(trace)
        assert abs(stats["write_fraction"] - 0.3) < 0.05

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            SyntheticTraceConfig(hot_fraction=0.5, stream_fraction=0.2,
                                 random_fraction=0.2).validate()
        with pytest.raises(ValueError):
            SyntheticTraceConfig(hot_window_segments=0).validate()
        with pytest.raises(ValueError):
            SyntheticTraceConfig(hot_window_segments=100,
                                 hot_segments=50).validate()

    @pytest.mark.parametrize("fields", [
        {"hot_fraction": math.nan},
        {"hot_fraction": 1.2, "stream_fraction": -0.1,
         "random_fraction": -0.1},
        {"mean_bubbles": math.inf},
        {"mean_bubbles": math.nan},
        {"working_set_bytes": 32},
        {"base_address": -4096},
        {"block_size_bytes": 0},
        {"row_size_bytes": 0},
        {"block_size_bytes": -64},
        {"hot_segment_bytes": 1000},
        {"row_size_bytes": 8100},
    ], ids=["nan-fraction", "fraction-out-of-range", "inf-bubbles",
            "nan-bubbles", "sub-block-working-set", "negative-base",
            "zero-block", "zero-row", "negative-block",
            "segment-not-block-multiple", "row-not-block-multiple"])
    def test_validate_rejects_what_the_generator_cannot_run(self, fields):
        with pytest.raises(ValueError):
            SyntheticTraceConfig(**fields).validate()

    def test_hot_only_trace_touches_window_sized_footprint(self):
        config = SyntheticTraceConfig(seed=7, hot_fraction=1.0,
                                      stream_fraction=0.0,
                                      random_fraction=0.0,
                                      hot_window_segments=64,
                                      hot_window_drift=0.0,
                                      hot_jump_probability=0.0)
        trace = SyntheticTraceGenerator(config).generate(4000)
        stats = trace_statistics(trace, row_size_bytes=config.row_size_bytes)
        # The footprint should be close to the window size (64 segments of
        # 1 kB), certainly well below the full pool.
        assert stats["footprint_bytes"] <= 80 * 1024

    def test_mean_bubbles_controls_intensity(self):
        sparse = SyntheticTraceConfig(seed=8, mean_bubbles=300.0)
        dense = SyntheticTraceConfig(seed=8, mean_bubbles=20.0)
        sparse_stats = trace_statistics(
            SyntheticTraceGenerator(sparse).generate(2000))
        dense_stats = trace_statistics(
            SyntheticTraceGenerator(dense).generate(2000))
        assert dense_stats["accesses_per_kilo_instruction"] > \
            3 * sparse_stats["accesses_per_kilo_instruction"]

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=20, deadline=None)
    def test_generate_length(self, n):
        trace = SyntheticTraceGenerator(SyntheticTraceConfig(seed=1)).generate(n)
        assert len(trace) == n


class TestPinnedOutput:
    """The generator's records, pinned against its pre-rewrite form."""

    def test_catalog_and_mix_traces_match_pinned_digests(self):
        specs = list(BENCHMARKS.values()) \
            + list(MULTITHREADED_BENCHMARKS.values())
        catalog = [spec.make_trace(3000, seed_offset=offset,
                                   base_address=base)
                   for spec in specs
                   for offset, base in ((0, None), (1, None), (17, 1 << 32))]
        mixes = [trace for mix in make_workload_suite(mixes_per_category=1)
                 for trace in mix.make_traces(1500)]
        assert {"catalog": records_sha256(catalog),
                "mixes": records_sha256(mixes)} == PINNED_TRACE_SHA256

    @given(trace_configs(), split_lengths())
    # Configurations ``validate`` rejects: a working set smaller than one
    # block, and an infinite or NaN mean.
    @example(SyntheticTraceConfig(working_set_bytes=32), [10])
    @example(SyntheticTraceConfig(mean_bubbles=math.inf), [0, 10])
    @example(SyntheticTraceConfig(mean_bubbles=math.nan), [0, 10])
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_generator(self, config, lengths):
        # Each side's outcome: the records of every call, up to the first
        # exception, and that exception's type.
        outcomes = []
        for generator_class in (synthetic_reference.SyntheticTraceGenerator,
                                SyntheticTraceGenerator):
            outcome = []
            try:
                generator = generator_class(config)
                for length in lengths:
                    outcome.append(generator.generate(length))
            except Exception as exc:
                outcome.append(type(exc))
            outcomes.append(outcome)
        assert outcomes[0] == outcomes[1]


class TestCatalog:
    def test_twenty_single_thread_benchmarks(self):
        assert len(BENCHMARKS) == 20
        assert len(intensive_benchmarks()) == 10
        assert len(non_intensive_benchmarks()) == 10

    def test_three_multithreaded_benchmarks(self):
        assert set(MULTITHREADED_BENCHMARKS) == {"canneal", "fluidanimate",
                                                 "radix"}

    def test_benchmark_names_filtering(self):
        assert set(benchmark_names(True)) == {
            spec.name for spec in intensive_benchmarks()}

    def test_get_benchmark_unknown(self):
        with pytest.raises(KeyError):
            get_benchmark("does-not-exist")

    def test_intensive_profiles_generate_more_traffic(self):
        intensive = get_benchmark("lbm").make_trace(2000)
        non_intensive = get_benchmark("gromacs").make_trace(2000)
        dense = trace_statistics(intensive)
        sparse = trace_statistics(non_intensive)
        assert dense["accesses_per_kilo_instruction"] > \
            sparse["accesses_per_kilo_instruction"]

    def test_every_profile_validates(self):
        for spec in list(BENCHMARKS.values()) \
                + list(MULTITHREADED_BENCHMARKS.values()):
            spec.trace_config.validate()

    def test_make_trace_relocation_and_seed_offset(self):
        spec = get_benchmark("mcf")
        base = spec.make_trace(100)
        moved = spec.make_trace(100, seed_offset=3, base_address=1 << 33)
        assert all(record.address >= 1 << 33 for record in moved)
        assert [r.address for r in moved] != [r.address for r in base]


class TestMultiprogrammed:
    def test_suite_has_four_categories(self):
        suite = make_workload_suite(mixes_per_category=2)
        assert len(suite) == 8
        fractions = sorted({workload.intensive_fraction for workload in suite})
        assert fractions == [0.25, 0.50, 0.75, 1.00]

    def test_mix_respects_intensive_fraction(self):
        workload = make_multiprogrammed_workload(0.75, 0, num_cores=8)
        intensive = sum(1 for spec in workload.benchmarks
                        if spec.memory_intensive)
        assert intensive == 6

    def test_mix_is_deterministic(self):
        a = make_multiprogrammed_workload(0.5, 1)
        b = make_multiprogrammed_workload(0.5, 1)
        assert [s.name for s in a.benchmarks] == [s.name for s in b.benchmarks]

    def test_traces_use_disjoint_address_slices(self):
        workload = make_multiprogrammed_workload(1.0, 0, num_cores=4)
        traces = workload.make_traces(200)
        for core_id, trace in enumerate(traces):
            low = core_id * CORE_ADDRESS_STRIDE
            high = (core_id + 1) * CORE_ADDRESS_STRIDE
            assert all(low <= record.address < high for record in trace)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            make_multiprogrammed_workload(1.5, 0)

    def test_multithreaded_workload_shares_address_space(self):
        workload = make_multithreaded_workload("canneal", num_cores=4)
        traces = workload.make_traces(200)
        assert workload.shared_address_space
        for trace in traces:
            assert all(record.address < CORE_ADDRESS_STRIDE
                       for record in trace)

    def test_unknown_multithreaded_name(self):
        with pytest.raises(KeyError):
            make_multithreaded_workload("nonexistent")
