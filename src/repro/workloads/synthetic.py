"""Synthetic memory-trace generation.

The generator produces address streams with the locality structure the
paper's analysis is built on: applications touch only small *row segments*
(about 1 kB) of each DRAM row they visit, those segments are scattered over
many rows and banks, and the working set of actively reused segments is
larger than the on-chip caches but far smaller than an in-DRAM cache.  Under
those conditions row-granularity in-DRAM caches waste most of their space,
while segment-granularity caching (FIGCache) both saves fast-region space
and turns scattered accesses into row-buffer hits by packing segments that
are accessed close together in time into the same cache row.

Three pattern components can be mixed:

* ``hot`` — repeated, slightly irregular iteration over a *window* of hot
  segments (the current phase of the application).  Each visit to a segment
  issues a short sequential burst of blocks.  Because the window exceeds the
  last-level cache, the reuse reaches DRAM; because the segments are
  scattered across many rows, consecutive same-bank accesses conflict in a
  conventional system.  The iteration order repeats from pass to pass (with
  a configurable probability of jumping to a random position), which is what
  gives temporally-adjacent segments their repeatable adjacency.
* ``stream`` — several concurrent sequential streams (e.g. the multiple
  arrays of a stencil code), interleaved access by access.  Streams have
  high spatial locality but no reuse.
* ``random`` — pointer-chase style uniform accesses over the full working
  set (no locality).

The mix fractions, window size, memory intensity (bubbles between memory
instructions), and write fraction are the knobs the workload catalog
(Table 2 equivalents) uses to define named benchmarks.

A trace is a function of its configuration, seed included.  Each record
takes its draws from one ``random.Random`` in a fixed order: the bubble
count, the component and that component's follow-up draws, then whether it
is a store.  A uniform choice among ``n`` values is written out as the draw
``randrange(n)`` makes on CPython 3.11-3.13: ``getrandbits(n.bit_length())``,
drawn again while the result is ``n`` or more.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.workloads.trace import TraceRecord


@dataclass(frozen=True)
class SyntheticTraceConfig:
    """Parameters controlling a synthetic address stream."""

    #: Mean non-memory instructions between memory instructions.  Together
    #: with the cache hit rate this sets the LLC MPKI (memory intensity).
    mean_bubbles: float = 30.0
    #: Total number of hot row segments in the workload (the pool the active
    #: window drifts over).
    hot_segments: int = 8192
    #: Size of one hot segment in bytes (1 kB = one FIGCache row segment).
    hot_segment_bytes: int = 1024
    #: Number of distinct DRAM rows the hot segments are scattered across.
    #: When smaller than ``hot_segments``, several segments share a row;
    #: when equal, every hot segment lives in its own row (worst case for
    #: row-granularity caching).
    hot_rows: int = 8192
    #: Number of segments in the actively reused window (the current phase).
    #: Its byte size (``hot_window_segments * hot_segment_bytes``) should
    #: exceed the LLC so the reuse reaches DRAM.
    hot_window_segments: int = 768
    #: Probability, per hot segment visit, that the window slides forward by
    #: one segment (slow phase drift).
    hot_window_drift: float = 0.01
    #: Probability that the next segment visit jumps to a random window
    #: position instead of following the iteration order.  0 gives a fully
    #: repeatable scan (stencil/array codes); larger values approximate
    #: pointer chasing.
    hot_jump_probability: float = 0.1
    #: Blocks accessed per segment visit (the sequential burst length).
    hot_burst_blocks: int = 6
    #: Fraction of accesses going to hot segments.
    hot_fraction: float = 0.70
    #: Fraction of accesses belonging to the concurrent sequential streams.
    stream_fraction: float = 0.20
    #: Number of concurrent streams (arrays walked in lockstep).
    concurrent_streams: int = 4
    #: Length of one stream run in blocks before it restarts elsewhere.
    stream_length_blocks: int = 512
    #: Fraction of accesses that are uniformly random over the working set.
    random_fraction: float = 0.10
    #: Total working-set span in bytes for streaming/random components.
    working_set_bytes: int = 256 * 1024 * 1024
    #: Fraction of memory instructions that are stores.
    write_fraction: float = 0.25
    #: Cache block size (addresses are generated at block granularity).
    block_size_bytes: int = 64
    #: DRAM row size (used to scatter hot segments across rows).
    row_size_bytes: int = 8192
    #: Base byte address of the workload's allocation.
    base_address: int = 0
    #: Random seed (the generator is fully deterministic given the seed).
    seed: int = 1

    def validate(self) -> None:
        """Raise ``ValueError`` for inconsistent parameters."""
        for name in ("hot_fraction", "stream_fraction", "random_fraction",
                     "write_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        total = self.hot_fraction + self.stream_fraction + self.random_fraction
        if abs(total - 1.0) > 1e-6:
            raise ValueError(
                f"pattern fractions must sum to 1.0, got {total}")
        if self.hot_segments <= 0 or self.hot_rows <= 0:
            raise ValueError("hot_segments and hot_rows must be positive")
        if self.hot_window_segments <= 0 \
                or self.hot_window_segments > self.hot_segments:
            raise ValueError(
                "hot_window_segments must be positive and no larger than "
                "hot_segments")
        if not 0.0 <= self.hot_window_drift <= 1.0:
            raise ValueError("hot_window_drift must be in [0, 1]")
        if not 0.0 <= self.hot_jump_probability <= 1.0:
            raise ValueError("hot_jump_probability must be in [0, 1]")
        if self.block_size_bytes <= 0:
            raise ValueError("block_size_bytes must be positive")
        for name in ("hot_segment_bytes", "row_size_bytes"):
            size = getattr(self, name)
            if size <= 0 or size % self.block_size_bytes:
                raise ValueError(
                    f"{name} must be a positive multiple of block_size_bytes")
        if self.hot_burst_blocks <= 0:
            raise ValueError("hot_burst_blocks must be positive")
        if self.concurrent_streams <= 0 or self.stream_length_blocks <= 0:
            raise ValueError(
                "concurrent_streams and stream_length_blocks must be positive")
        if not (math.isfinite(self.mean_bubbles) and self.mean_bubbles >= 0):
            raise ValueError("mean_bubbles must be finite and non-negative")
        if self.working_set_bytes < self.block_size_bytes:
            raise ValueError("the working set must hold at least one block")
        if self.base_address < 0:
            raise ValueError("base_address must be non-negative")


class SyntheticTraceGenerator:
    """Deterministic generator of synthetic memory traces.

    The records are a function of the configuration alone, and a later
    :meth:`generate` call continues the same stream: ``generate(a)`` then
    ``generate(b)`` returns the records of one ``generate(a + b)``.
    """

    def __init__(self, config: SyntheticTraceConfig):
        config.validate()
        self._config = config
        self._rng = random.Random(config.seed)
        self._hot_segment_bases = self._build_hot_segment_bases()
        blocks = config.working_set_bytes // config.block_size_bytes
        #: Hot component: the window's position in the segment pool, the
        #: scan position within the window, and the current segment visit
        #: (its segment, next block, and blocks left).
        self._hot_state = (0, 0, 0, 0, 0)
        #: Concurrent streams: each one's start block and the blocks it has
        #: used since, and the stream the next stream access takes.
        self._stream_starts = []
        self._stream_used = [0] * config.concurrent_streams
        self._next_stream = 0
        getrandbits = self._rng.getrandbits
        bits = blocks.bit_length()
        for _ in range(config.concurrent_streams):
            start = getrandbits(bits)
            while start >= blocks:
                start = getrandbits(bits)
            self._stream_starts.append(start)

    @property
    def config(self) -> SyntheticTraceConfig:
        """The generator configuration."""
        return self._config

    def _build_hot_segment_bases(self) -> list[int]:
        """Place each hot segment at a (row, in-row offset) location.

        Segments are distributed round-robin over ``hot_rows`` rows spread
        across the working set, and each lands at a random segment-aligned
        offset within its row.  Spreading the rows widely makes the segments
        map to many different banks and rows, which is what creates the
        row-buffer interference FIGCache relieves.
        """
        config = self._config
        rows_span = max(1, config.working_set_bytes // config.row_size_bytes)
        row_stride = max(1, rows_span // config.hot_rows)
        segments_per_row = max(1, config.row_size_bytes
                               // config.hot_segment_bytes)
        getrandbits = self._rng.getrandbits
        bits = segments_per_row.bit_length()
        hot_rows = config.hot_rows
        row_step = row_stride * config.row_size_bytes
        segment_bytes = config.hot_segment_bytes
        base_address = config.base_address
        bases = []
        for index in range(config.hot_segments):
            offset_slot = getrandbits(bits)
            while offset_slot >= segments_per_row:
                offset_slot = getrandbits(bits)
            bases.append(base_address + index % hot_rows * row_step
                         + offset_slot * segment_bytes)
        return bases

    def generate(self, num_records: int) -> list[TraceRecord]:
        """Generate ``num_records`` trace records.

        One loop over the draws the module docstring lists; the state is
        kept in locals and stored back, so a later call continues it.
        """
        if num_records < 0:
            raise ValueError("num_records must be non-negative")
        config = self._config
        rng = self._rng
        random_draw = rng.random
        expovariate = rng.expovariate
        getrandbits = rng.getrandbits
        mean = config.mean_bubbles
        no_bubbles = mean <= 0
        if not no_bubbles:
            # An exponential draw keeps the bubble counts integral and
            # non-negative while matching the requested mean; the cap
            # avoids pathological multi-million-instruction gaps.
            rate = 1.0 / mean
            cap = int(mean * 10)
        hot_fraction = config.hot_fraction
        stream_cut = config.hot_fraction + config.stream_fraction
        write_fraction = config.write_fraction
        base_address = config.base_address
        block_bytes = config.block_size_bytes
        blocks = config.working_set_bytes // block_bytes
        block_bits = blocks.bit_length()
        # Hot component: a visit advances the scan (or jumps), may slide
        # the window, then bursts through a random run of the segment.
        bases = self._hot_segment_bases
        hot_segments = config.hot_segments
        window = config.hot_window_segments
        window_bits = window.bit_length()
        jump_probability = config.hot_jump_probability
        drift_probability = config.hot_window_drift
        blocks_per_segment = config.hot_segment_bytes // block_bytes
        burst = min(config.hot_burst_blocks, blocks_per_segment)
        burst_offsets = max(1, blocks_per_segment - burst + 1)
        offset_bits = burst_offsets.bit_length()
        window_start, scan, segment, block, remaining = self._hot_state
        # Streams, taken in turn; one restarts at a random block when its
        # run is used up.
        stream_starts = self._stream_starts
        stream_used = self._stream_used
        num_streams = len(stream_starts)
        run_length = config.stream_length_blocks
        stream = self._next_stream

        records = []
        append = records.append
        for _ in range(num_records):
            bubbles = 0 if no_bubbles else min(int(expovariate(rate)), cap)
            draw = random_draw()
            if draw < hot_fraction:
                if remaining <= 0:
                    if random_draw() < jump_probability:
                        scan = getrandbits(window_bits)
                        while scan >= window:
                            scan = getrandbits(window_bits)
                    else:
                        scan = (scan + 1) % window
                    if random_draw() < drift_probability:
                        window_start = (window_start + 1) % hot_segments
                    segment = (window_start + scan) % hot_segments
                    block = getrandbits(offset_bits)
                    while block >= burst_offsets:
                        block = getrandbits(offset_bits)
                    remaining = burst
                address = bases[segment] + block * block_bytes
                block += 1
                remaining -= 1
            elif draw < stream_cut:
                used = stream_used[stream]
                if used >= run_length:
                    start = getrandbits(block_bits)
                    while start >= blocks:
                        start = getrandbits(block_bits)
                    stream_starts[stream] = start
                    used = 0
                stream_used[stream] = used + 1
                address = base_address + (stream_starts[stream] + used) \
                    % blocks * block_bytes
                stream = (stream + 1) % num_streams
            else:
                index = getrandbits(block_bits)
                while index >= blocks:
                    index = getrandbits(block_bits)
                address = base_address + index * block_bytes
            append(TraceRecord(bubbles, address,
                               random_draw() < write_fraction))
        self._hot_state = (window_start, scan, segment, block, remaining)
        self._next_stream = stream
        return records
