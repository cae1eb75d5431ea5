"""Unified telemetry: latency distributions, epoch time series, probes.

The paper's evaluation reports end-of-run means (weighted speedup, average
memory latency, row-hit rate).  This module adds the *distributional* view
those means cannot express:

* :class:`LatencyHistogram` — per-request read/write latency distributions
  recorded at request completion.  Counts are kept exactly per distinct
  latency value (DRAM latencies quantise to a small set of timing sums, so
  the map stays tiny), which makes p50/p95/p99/max *exact* rather than
  bucket-resolution estimates; :meth:`LatencyHistogram.buckets` provides
  the power-of-two rollup for display and plotting.
* :class:`Telemetry` — a live epoch sampler driven from the simulator
  loop.  Every ``epoch_cycles`` simulated cycles it snapshots the
  cumulative counters of each stats producer (cores, channel controllers,
  DRAM command counters, caching mechanisms) and stores per-epoch deltas:
  IPC, row-buffer hit rate, in-DRAM cache hit rate, per-channel queue
  depth, and read/write traffic.  Custom probes can be registered with
  :meth:`Telemetry.add_probe`.
* :class:`TelemetryResult` — the versioned, JSON-serialisable section
  attached to :class:`~repro.sim.metrics.SimulationResult` when telemetry
  is enabled (``SystemConfig.telemetry``), and round-tripped by the
  experiment engine's persistent cache.

Observation never perturbs simulation: every sampler only *reads*
cumulative counters the simulation already maintains, so results are
bit-identical with telemetry on or off (guarded by the golden fixtures).
When telemetry is off, the simulator's only residual cost is one integer
comparison per event against an unreachable epoch sentinel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: Bump when the serialised telemetry section changes shape; readers treat
#: unknown versions as absent rather than misreading them.
TELEMETRY_SCHEMA_VERSION = 1

#: Default epoch length for time-series sampling, in CPU cycles.
DEFAULT_EPOCH_CYCLES = 50_000


@dataclass(frozen=True)
class TelemetryConfig:
    """Knobs for one simulation's telemetry collection.

    Attaching a (non-``None``) config to ``SystemConfig.telemetry`` turns
    telemetry on: the result gains a :class:`TelemetryResult` section and
    the simulator samples the epoch time series.  Latency histograms are
    maintained unconditionally by the channel controllers (they are the
    storage behind ``average_read_latency_cycles``), so enabling telemetry
    only changes what is *reported*, never what is simulated.
    """

    #: Epoch length for the time series, in CPU cycles.
    epoch_cycles: int = DEFAULT_EPOCH_CYCLES

    def __post_init__(self) -> None:
        if self.epoch_cycles <= 0:
            raise ValueError(
                f"epoch_cycles must be positive, got {self.epoch_cycles}")


class LatencyHistogram:
    """Exact latency distribution over completed requests.

    Backed by a plain ``{latency_cycles: count}`` dict so the recording
    hot path (the channel controller's completion bookkeeping) is a single
    dict upsert.  Totals are integers, so means derived here are
    bit-identical to the former running-sum plumbing they replaced.
    """

    __slots__ = ('counts',)

    def __init__(self, counts: dict[int, int] | None = None):
        #: Exact per-latency counts; shared (not copied) when given, so a
        #: controller's live dict can be wrapped without cost.
        self.counts = {} if counts is None else counts

    # ------------------------------------------------------------------
    # Recording / combining.
    # ------------------------------------------------------------------
    def record(self, latency: int, count: int = 1) -> None:
        """Record ``count`` completions observing ``latency`` cycles."""
        if latency < 0:
            raise ValueError(f"latency must be >= 0, got {latency}")
        counts = self.counts
        counts[latency] = counts.get(latency, 0) + count

    def merge(self, other: "LatencyHistogram") -> None:
        """Accumulate another histogram into this one."""
        counts = self.counts
        for latency, count in other.counts.items():
            counts[latency] = counts.get(latency, 0) + count

    # ------------------------------------------------------------------
    # Aggregates.
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Total completions recorded."""
        return sum(self.counts.values())

    @property
    def total(self) -> int:
        """Sum of all recorded latencies (exact integer)."""
        return sum(latency * count for latency, count in self.counts.items())

    @property
    def mean(self) -> float:
        """Mean latency in cycles (0.0 when empty)."""
        count = self.count
        if count == 0:
            return 0.0
        return self.total / count

    @property
    def min(self) -> int:
        """Smallest recorded latency (0 when empty)."""
        return min(self.counts) if self.counts else 0

    @property
    def max(self) -> int:
        """Largest recorded latency (0 when empty)."""
        return max(self.counts) if self.counts else 0

    def percentile(self, fraction: float) -> int:
        """Exact nearest-rank percentile, e.g. ``percentile(0.99)``.

        Returns the latency of the request at rank
        ``ceil(fraction * count)`` (1-indexed) in sorted order — the
        standard nearest-rank definition, exact because counts are exact.
        Returns 0 for an empty histogram.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        count = self.count
        if count == 0:
            return 0
        # Nearest rank = ceil(fraction * count); rounding first keeps float
        # noise (0.99 * 100 == 99.00000000000001) from inflating the rank.
        rank = math.ceil(round(fraction * count, 9))
        rank = max(1, min(rank, count))
        seen = 0
        for latency in sorted(self.counts):
            seen += self.counts[latency]
            if seen >= rank:
                return latency
        return self.max  # pragma: no cover - unreachable (seen ends == count)

    def summary(self) -> dict:
        """The headline statistics: count, mean, p50/p95/p99, max."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(0.50),
            "p95": self.percentile(0.95),
            "p99": self.percentile(0.99),
            "max": self.max,
        }

    def buckets(self) -> list[tuple[int, int]]:
        """Power-of-two rollup: ``(inclusive lower bound, count)`` pairs.

        Bucket *i* covers latencies in ``[2**(i-1), 2**i)`` (bucket 0 is
        exactly latency 0, bucket 1 exactly latency 1); empty buckets
        inside the occupied range are included so plots get a contiguous
        axis.
        """
        if not self.counts:
            return []
        by_bucket: dict[int, int] = {}
        for latency, count in self.counts.items():
            index = latency.bit_length()
            by_bucket[index] = by_bucket.get(index, 0) + count
        highest = max(by_bucket)
        return [(0 if index == 0 else 1 << (index - 1),
                 by_bucket.get(index, 0))
                for index in range(highest + 1)]

    # ------------------------------------------------------------------
    # Serialisation.
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON form: sorted ``[latency, count]`` pairs."""
        return {"counts": [[latency, self.counts[latency]]
                           for latency in sorted(self.counts)]}

    @classmethod
    def from_dict(cls, data: dict) -> "LatencyHistogram":
        """Rebuild from :meth:`to_dict` output (tolerates missing keys)."""
        return cls({int(latency): int(count)
                    for latency, count in data.get("counts", [])})

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"LatencyHistogram(count={self.count}, mean={self.mean:.1f}, "
                f"max={self.max})")


#: Column order of the epoch time series (one list per column; kept in one
#: place so serialisation, sampling, and the timeline view cannot drift).
EPOCH_COLUMNS = ("end_cycle", "instructions", "reads", "writes",
                 "row_hits", "row_misses", "row_conflicts",
                 "cache_lookups", "cache_hits")


@dataclass
class EpochSeries:
    """Columnar per-epoch deltas sampled by :class:`Telemetry`.

    Each list holds one value per epoch.  ``end_cycle`` is the epoch's end
    boundary (the final epoch may be partial: it ends at the simulation's
    last cycle).  ``queue_depths`` holds one ``[per-channel depth]`` list
    per epoch — an instantaneous read+write queue occupancy sampled at the
    epoch boundary, not a delta.  ``extra`` holds one list per registered
    probe name.
    """

    end_cycle: list[int] = field(default_factory=list)
    instructions: list[int] = field(default_factory=list)
    reads: list[int] = field(default_factory=list)
    writes: list[int] = field(default_factory=list)
    row_hits: list[int] = field(default_factory=list)
    row_misses: list[int] = field(default_factory=list)
    row_conflicts: list[int] = field(default_factory=list)
    cache_lookups: list[int] = field(default_factory=list)
    cache_hits: list[int] = field(default_factory=list)
    queue_depths: list[list[int]] = field(default_factory=list)
    extra: dict[str, list] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.end_cycle)

    def rows(self, cpu_clock_ghz: float = 0.0,
             block_bytes: int = 64) -> list[dict]:
        """Derived per-epoch metrics, one dict per epoch.

        Rates use each epoch's true span, derived from consecutive
        ``end_cycle`` boundaries (the final epoch may be partial).
        ``read_gbps``/``write_gbps`` are only present when a positive
        ``cpu_clock_ghz`` is supplied.
        """
        rows = []
        previous_end = 0
        for index in range(len(self.end_cycle)):
            end = self.end_cycle[index]
            span = max(end - previous_end, 1)
            previous_end = end
            outcomes = (self.row_hits[index] + self.row_misses[index]
                        + self.row_conflicts[index])
            lookups = self.cache_lookups[index]
            row = {
                "end_cycle": end,
                "ipc": self.instructions[index] / span,
                "row_buffer_hit_rate":
                    self.row_hits[index] / outcomes if outcomes else 0.0,
                "cache_hit_rate":
                    self.cache_hits[index] / lookups if lookups else 0.0,
                "reads": self.reads[index],
                "writes": self.writes[index],
                "queue_depth_max": max(self.queue_depths[index], default=0),
                "queue_depths": self.queue_depths[index],
            }
            if cpu_clock_ghz > 0.0:
                seconds = span / cpu_clock_ghz / 1e9
                row["read_gbps"] = self.reads[index] * block_bytes \
                    / seconds / 1e9
                row["write_gbps"] = self.writes[index] * block_bytes \
                    / seconds / 1e9
            for name, values in self.extra.items():
                row[name] = values[index]
            rows.append(row)
        return rows

    def to_dict(self) -> dict:
        """JSON-serialisable columnar form."""
        data = {column: getattr(self, column) for column in EPOCH_COLUMNS}
        data["queue_depths"] = self.queue_depths
        data["extra"] = self.extra
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "EpochSeries":
        """Rebuild from :meth:`to_dict` output (tolerates missing keys)."""
        series = cls(**{column: list(data.get(column, []))
                        for column in EPOCH_COLUMNS})
        series.queue_depths = [list(depths)
                               for depths in data.get("queue_depths", [])]
        series.extra = {name: list(values)
                        for name, values in (data.get("extra") or {}).items()}
        return series


class Telemetry:
    """Live epoch sampler wired to one simulated system's stats producers.

    Built by :class:`~repro.sim.system.System` when the configuration
    enables telemetry and handed to the simulator, whose event loop calls
    :meth:`advance` whenever the clock crosses the next epoch boundary and
    :meth:`finalize` once after the end-of-run write drain.  Sampling is
    pure observation — cumulative counters are read, never written — so
    enabling telemetry cannot change any simulated outcome.
    """

    __slots__ = ('epoch_cycles', 'next_epoch', 'series', '_cores',
                 '_channel_controllers', '_probes', '_last')

    def __init__(self, config: TelemetryConfig, cores,
                 channel_controllers) -> None:
        self.epoch_cycles = config.epoch_cycles
        #: End boundary of the epoch currently being accumulated.  The
        #: simulator compares the event clock against this every event.
        self.next_epoch = config.epoch_cycles
        self.series = EpochSeries()
        self._cores = list(cores)
        #: One controller per channel; each also leads to its channel's
        #: command counters and caching mechanism.
        self._channel_controllers = list(channel_controllers)
        #: Registered ``(name, callable)`` probes, sampled every epoch.
        self._probes: list[tuple[str, object]] = []
        #: Cumulative snapshot at the previous epoch boundary, in
        #: EPOCH_COLUMNS order minus end_cycle.
        self._last = (0,) * (len(EPOCH_COLUMNS) - 1)

    def add_probe(self, name: str, probe) -> None:
        """Register a custom per-epoch probe.

        ``probe(end_cycle)`` is called at every epoch boundary; its return
        value is appended to ``series.extra[name]``.  Probes must be pure
        observers (JSON-serialisable return values, no simulation-state
        mutation).  Registering after sampling has started would desync
        the column lengths, so it is rejected.
        """
        if any(existing == name for existing, _ in self._probes):
            raise ValueError(f"probe {name!r} already registered")
        if len(self.series):
            raise ValueError("cannot add probes once sampling has started")
        self._probes.append((name, probe))
        self.series.extra[name] = []

    # ------------------------------------------------------------------
    # Sampling (called from the simulator loop).
    # ------------------------------------------------------------------
    def advance(self, cycle: int) -> int:
        """Sample every epoch boundary at or before ``cycle``.

        Returns the new next-epoch boundary for the simulator's inline
        check.  When the clock jumps several epochs between events, one
        row is emitted per boundary: the first carries the whole delta,
        the rest are zero (nothing happened during them).
        """
        while self.next_epoch <= cycle:
            self._sample(self.next_epoch)
            self.next_epoch += self.epoch_cycles
        return self.next_epoch

    def finalize(self, cycle: int) -> None:
        """Sample the trailing partial epoch after the end-of-run drain."""
        series = self.series
        if not series.end_cycle or series.end_cycle[-1] < cycle:
            self._sample(cycle)

    def _sample(self, end_cycle: int) -> None:
        # Cumulative counters, in EPOCH_COLUMNS order minus end_cycle.
        controllers = self._channel_controllers
        dram = [controller.channel.counters for controller in controllers]
        mechanisms = [controller.mechanism.stats
                      for controller in controllers]
        current = (
            sum(core.stats.instructions for core in self._cores),
            sum(controller.completed_reads for controller in controllers),
            sum(controller.completed_writes for controller in controllers),
            sum(counters.row_hits for counters in dram),
            sum(counters.row_misses for counters in dram),
            sum(counters.row_conflicts for counters in dram),
            sum(stats.cache_lookups for stats in mechanisms),
            sum(stats.cache_hits for stats in mechanisms),
        )
        last = self._last
        self._last = current
        series = self.series
        series.end_cycle.append(end_cycle)
        series.instructions.append(current[0] - last[0])
        series.reads.append(current[1] - last[1])
        series.writes.append(current[2] - last[2])
        series.row_hits.append(current[3] - last[3])
        series.row_misses.append(current[4] - last[4])
        series.row_conflicts.append(current[5] - last[5])
        series.cache_lookups.append(current[6] - last[6])
        series.cache_hits.append(current[7] - last[7])
        series.queue_depths.append(
            [controller.read_queue_occupancy
             + controller.write_queue_occupancy
             for controller in controllers])
        for name, probe in self._probes:
            series.extra[name].append(probe(end_cycle))


@dataclass
class TelemetryResult:
    """The versioned telemetry section of a simulation result.

    Attached to :class:`~repro.sim.metrics.SimulationResult` when the
    system configuration enables telemetry; serialised into the
    experiment engine's persistent cache alongside the scalar metrics.
    """

    #: Epoch length the time series was sampled at, in CPU cycles.
    epoch_cycles: int
    #: CPU clock (GHz) — lets views convert cycle counts to time/bandwidth.
    cpu_clock_ghz: float
    #: Distribution of read latencies (arrival to data return), cycles.
    read_latency: LatencyHistogram
    #: Distribution of write latencies (arrival to service), cycles.
    write_latency: LatencyHistogram
    #: The epoch time series.
    epochs: EpochSeries
    #: Serialisation schema version.
    version: int = TELEMETRY_SCHEMA_VERSION

    def read_percentiles(self) -> dict:
        """Headline read-latency statistics (count/mean/p50/p95/p99/max)."""
        return self.read_latency.summary()

    def to_dict(self) -> dict:
        """JSON-serialisable form (used by the persistent result cache)."""
        return {
            "version": self.version,
            "epoch_cycles": self.epoch_cycles,
            "cpu_clock_ghz": self.cpu_clock_ghz,
            "read_latency": self.read_latency.to_dict(),
            "write_latency": self.write_latency.to_dict(),
            "epochs": self.epochs.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetryResult | None":
        """Rebuild from :meth:`to_dict` output.

        Returns ``None`` for payloads from a *newer* schema than this code
        understands: the caller then behaves as if telemetry was absent
        rather than misreading the section.
        """
        version = data.get("version", TELEMETRY_SCHEMA_VERSION)
        if version > TELEMETRY_SCHEMA_VERSION:
            return None
        return cls(
            epoch_cycles=data.get("epoch_cycles", DEFAULT_EPOCH_CYCLES),
            cpu_clock_ghz=data.get("cpu_clock_ghz", 0.0),
            read_latency=LatencyHistogram.from_dict(
                data.get("read_latency") or {}),
            write_latency=LatencyHistogram.from_dict(
                data.get("write_latency") or {}),
            epochs=EpochSeries.from_dict(data.get("epochs") or {}),
            version=version,
        )
