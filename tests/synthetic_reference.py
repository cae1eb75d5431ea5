"""The synthetic trace generator as it was before its one-loop rewrite.

``tests/test_workloads.py`` runs this copy beside
``repro.workloads.synthetic.SyntheticTraceGenerator`` on random
configurations and requires identical records.  It is the class verbatim,
with its per-record helpers, so that the differential test has an oracle
written the plain way: one ``randrange`` or ``random`` call per draw.
Do not edit it to follow later changes of the generator; a deliberate
change to the generated traces replaces this copy in the same change.
"""

from __future__ import annotations

import random

from repro.workloads.synthetic import SyntheticTraceConfig
from repro.workloads.trace import TraceRecord


class SyntheticTraceGenerator:
    """Deterministic generator of synthetic memory traces."""

    def __init__(self, config: SyntheticTraceConfig):
        config.validate()
        self._config = config
        self._rng = random.Random(config.seed)
        self._hot_segment_bases = self._build_hot_segment_bases()
        #: Position of the window within the segment pool.
        self._window_start = 0
        #: Position of the iteration cursor within the window.
        self._scan_position = 0
        #: Remaining blocks of the current segment visit, and its state.
        self._burst_remaining = 0
        self._burst_segment = 0
        self._burst_block = 0
        #: Concurrent stream state: (base block index, blocks consumed).
        self._streams = [self._new_stream() for _ in
                         range(config.concurrent_streams)]
        self._next_stream = 0

    @property
    def config(self) -> SyntheticTraceConfig:
        """The generator configuration."""
        return self._config

    # ------------------------------------------------------------------
    # Construction helpers.
    # ------------------------------------------------------------------
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
        bases = []
        for index in range(config.hot_segments):
            row_index = (index % config.hot_rows) * row_stride
            offset_slot = self._rng.randrange(segments_per_row)
            base = (config.base_address
                    + row_index * config.row_size_bytes
                    + offset_slot * config.hot_segment_bytes)
            bases.append(base)
        return bases

    def _new_stream(self) -> list[int]:
        """Start a stream at a random block-aligned location."""
        config = self._config
        blocks = config.working_set_bytes // config.block_size_bytes
        return [self._rng.randrange(blocks), 0]

    # ------------------------------------------------------------------
    # Hot (reused, scattered) component.
    # ------------------------------------------------------------------
    def _begin_segment_visit(self) -> None:
        """Advance the scan to the next segment and start its burst."""
        config = self._config
        if self._rng.random() < config.hot_jump_probability:
            self._scan_position = self._rng.randrange(
                config.hot_window_segments)
        else:
            self._scan_position = (self._scan_position + 1) \
                % config.hot_window_segments
        if self._rng.random() < config.hot_window_drift:
            self._window_start = (self._window_start + 1) % config.hot_segments

        segment = (self._window_start + self._scan_position) \
            % config.hot_segments
        blocks_per_segment = config.hot_segment_bytes // config.block_size_bytes
        burst = min(config.hot_burst_blocks, blocks_per_segment)
        self._burst_segment = segment
        self._burst_block = self._rng.randrange(
            max(1, blocks_per_segment - burst + 1))
        self._burst_remaining = burst

    def _next_hot_address(self) -> int:
        config = self._config
        if self._burst_remaining <= 0:
            self._begin_segment_visit()
        address = (self._hot_segment_bases[self._burst_segment]
                   + self._burst_block * config.block_size_bytes)
        self._burst_block += 1
        self._burst_remaining -= 1
        return address

    # ------------------------------------------------------------------
    # Streaming component.
    # ------------------------------------------------------------------
    def _next_stream_address(self) -> int:
        config = self._config
        stream = self._streams[self._next_stream]
        self._next_stream = (self._next_stream + 1) % len(self._streams)
        if stream[1] >= config.stream_length_blocks:
            stream[0] = self._new_stream()[0]
            stream[1] = 0
        blocks = config.working_set_bytes // config.block_size_bytes
        block = (stream[0] + stream[1]) % blocks
        stream[1] += 1
        return config.base_address + block * config.block_size_bytes

    # ------------------------------------------------------------------
    # Random component.
    # ------------------------------------------------------------------
    def _next_random_address(self) -> int:
        config = self._config
        blocks = config.working_set_bytes // config.block_size_bytes
        return config.base_address \
            + self._rng.randrange(blocks) * config.block_size_bytes

    # ------------------------------------------------------------------
    # Trace generation.
    # ------------------------------------------------------------------
    def _next_address(self) -> int:
        draw = self._rng.random()
        config = self._config
        if draw < config.hot_fraction:
            return self._next_hot_address()
        if draw < config.hot_fraction + config.stream_fraction:
            return self._next_stream_address()
        return self._next_random_address()

    def _next_bubbles(self) -> int:
        mean = self._config.mean_bubbles
        if mean <= 0:
            return 0
        # An exponential draw keeps the bubble counts integral and
        # non-negative while matching the requested mean; the cap avoids
        # pathological multi-million-instruction gaps.
        return min(int(self._rng.expovariate(1.0 / mean)), int(mean * 10))

    def generate(self, num_records: int) -> list[TraceRecord]:
        """Generate ``num_records`` trace records."""
        if num_records < 0:
            raise ValueError("num_records must be non-negative")
        records = []
        for _ in range(num_records):
            records.append(TraceRecord(
                bubbles=self._next_bubbles(),
                address=self._next_address(),
                is_write=self._rng.random() < self._config.write_fraction))
        return records
