"""Declarative simulation-job specifications.

A :class:`SimJob` describes one point of the paper's evaluation matrix —
one (configuration, workload, scale) triple plus any sensitivity-knob
overrides — without running anything.  Jobs are frozen, hashable, and
picklable, so batches of them can be deduplicated, shipped to worker
processes, and cached.

Every job hashes to a stable content-addressed :meth:`SimJob.key`: the
digest covers the fully-built :class:`~repro.sim.config.SystemConfig`, the
workload's trace-generator parameters, and the trace length.  Two jobs that
would simulate byte-identical systems therefore share one cache entry, no
matter which figure or sweep created them.  The model code is not in the
key: the result cache salts each entry with a fingerprint of it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

from repro.sim.config import SystemConfig, config_digest, make_system_config
from repro.sim.metrics import SimulationResult
from repro.sim.system import run_workload
from repro.workloads.catalog import get_benchmark
from repro.workloads.multiprogram import MultiprogrammedWorkload
from repro.workloads.trace import TraceRecord


@dataclass(frozen=True)
class ExperimentScale:
    """How much simulation work each experiment performs.

    The paper simulates at least one billion instructions per core; this
    reproduction uses small deterministic traces so the full matrix of
    experiments runs in minutes.  Larger scales sharpen the steady-state
    behaviour (in-DRAM cache hit rates, row-buffer gains) at linear cost.
    """

    #: Trace records per core for single-core experiments.
    single_core_records: int = 10000
    #: Trace records per core for multi-core experiments.
    multicore_records: int = 4000
    #: Cores in the multiprogrammed mixes.
    num_cores: int = 8
    #: Memory channels for multi-core experiments (paper: 4).
    multicore_channels: int = 4
    #: Multiprogrammed mixes per intensity category (paper: 5).
    mixes_per_category: int = 1
    #: Single-core benchmarks evaluated per intensity class (paper: 10).
    benchmarks_per_class: int = 2

    @classmethod
    def smoke(cls) -> "ExperimentScale":
        """A minimal scale for unit tests."""
        return cls(single_core_records=1500, multicore_records=600,
                   num_cores=4, multicore_channels=2, mixes_per_category=1,
                   benchmarks_per_class=1)

    @classmethod
    def tiny(cls) -> "ExperimentScale":
        """An even smaller scale for CLI smoke runs and engine tests."""
        return cls(single_core_records=400, multicore_records=200,
                   num_cores=2, multicore_channels=1, mixes_per_category=1,
                   benchmarks_per_class=1)

    @classmethod
    def bench(cls) -> "ExperimentScale":
        """A short scale: perfbench's ``sweep-engine`` workload and the
        Figure 7 claim in ``tests/test_sim_experiments.py`` run at it."""
        return cls(single_core_records=6000, multicore_records=1500,
                   num_cores=8, multicore_channels=4, mixes_per_category=1,
                   benchmarks_per_class=2)


def _canonical_overrides(config_overrides: dict) -> tuple:
    """Turn a ``make_system_config`` kwargs dict into a hashable tuple."""
    items = []
    for name in sorted(config_overrides):
        value = config_overrides[name]
        if isinstance(value, dict):
            value = tuple(sorted(value.items()))
        items.append((name, value))
    return tuple(items)


def _overrides_dict(config_overrides: tuple) -> dict:
    """Inverse of :func:`_canonical_overrides`."""
    out = {}
    for name, value in config_overrides:
        if isinstance(value, tuple) and value \
                and all(isinstance(item, tuple) and len(item) == 2
                        for item in value):
            value = dict(value)
        out[name] = value
    return out


@dataclass(frozen=True)
class SimJob:
    """One declarative simulation point of the evaluation matrix."""

    #: ``"single-core"`` or ``"multicore"``.
    kind: str
    #: Configuration name (Base, FIGCache-Fast, ...).
    configuration: str
    #: The scale the job was created at (determines trace length/channels).
    scale: ExperimentScale
    #: Benchmark name (single-core jobs only).
    benchmark: str | None = None
    #: Multiprogrammed workload (multicore jobs only).
    workload: MultiprogrammedWorkload | None = None
    #: Extra ``make_system_config`` knobs, canonicalised to a sorted tuple.
    config_overrides: tuple = ()

    @classmethod
    def single_core(cls, configuration: str, benchmark: str,
                    scale: ExperimentScale, **config_overrides) -> "SimJob":
        """Describe one single-core (benchmark, configuration) point."""
        return cls(kind="single-core", configuration=configuration,
                   scale=scale, benchmark=benchmark,
                   config_overrides=_canonical_overrides(config_overrides))

    @classmethod
    def multicore(cls, configuration: str,
                  workload: MultiprogrammedWorkload,
                  scale: ExperimentScale, **config_overrides) -> "SimJob":
        """Describe one multiprogrammed (mix, configuration) point."""
        return cls(kind="multicore", configuration=configuration,
                   scale=scale, workload=workload,
                   config_overrides=_canonical_overrides(config_overrides))

    def __post_init__(self) -> None:
        if self.kind not in ("single-core", "multicore"):
            raise ValueError(f"unknown job kind {self.kind!r}")
        if self.kind == "single-core" and self.benchmark is None:
            raise ValueError("single-core jobs need a benchmark name")
        if self.kind == "multicore" and self.workload is None:
            raise ValueError("multicore jobs need a workload")

    # ------------------------------------------------------------------
    # Building the concrete simulation inputs.
    # ------------------------------------------------------------------
    @property
    def workload_name(self) -> str:
        """Name the resulting :class:`SimulationResult` is labelled with."""
        if self.kind == "single-core":
            return self.benchmark
        return self.workload.name

    @property
    def records_per_core(self) -> int:
        """Trace records generated per core."""
        if self.kind == "single-core":
            return self.scale.single_core_records
        return self.scale.multicore_records

    @property
    def channels(self) -> int:
        """Memory channels the simulated system uses."""
        return 1 if self.kind == "single-core" \
            else self.scale.multicore_channels

    def build_config(self) -> SystemConfig:
        """Build the concrete system configuration for this job."""
        return make_system_config(self.configuration, channels=self.channels,
                                  **_overrides_dict(self.config_overrides))

    def build_traces(self) -> list[list[TraceRecord]]:
        """Generate the per-core traces for this job."""
        if self.kind == "single-core":
            spec = get_benchmark(self.benchmark)
            return [spec.make_trace(self.records_per_core)]
        return self.workload.make_traces(self.records_per_core)

    # ------------------------------------------------------------------
    # Memoization identities (worker-local caches in the executor).
    # ------------------------------------------------------------------
    def trace_signature(self) -> tuple:
        """Hashable identity of :meth:`build_traces`' output.

        Two jobs with equal signatures generate byte-identical traces (the
        generators are seeded), so a warm worker process can build the
        traces once and reuse them across every configuration evaluated on
        the same workload.  Simulations never mutate their input traces
        (cores share one read-only :func:`~repro.cpu.core.compile_trace`
        form of each), which is what makes sharing safe.
        """
        if self.kind == "single-core":
            return ("single-core", self.benchmark, self.records_per_core)
        return ("multicore", self.workload, self.records_per_core)

    def config_signature(self) -> tuple:
        """Hashable identity of :meth:`build_config`'s output.

        ``SystemConfig`` is frozen, so equal signatures may share one
        built instance.
        """
        return (self.configuration, self.channels, self.config_overrides)

    # ------------------------------------------------------------------
    # Content-addressed identity.
    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """A canonical, JSON-serialisable description of the job.

        Only inputs that affect the simulation outcome are included: the
        fully-built system configuration, the workload's trace-generator
        parameters, and the trace length.  Scale fields that merely select
        *which* jobs a figure creates (mixes per category, benchmarks per
        class) are deliberately absent, so equivalent jobs created by
        different figures or scales share one cache entry.
        """
        if self.kind == "single-core":
            workload_desc = asdict(get_benchmark(self.benchmark))
        else:
            workload_desc = asdict(self.workload)
        return {
            "kind": self.kind,
            "configuration": self.configuration,
            "config": config_digest(self.build_config()),
            "workload": workload_desc,
            "records_per_core": self.records_per_core,
        }

    def key(self) -> str:
        """Stable content-addressed cache key (hex digest)."""
        payload = json.dumps(self.describe(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Build and run the simulation this job describes."""
        return run_workload(self.build_config(), self.build_traces(),
                            self.workload_name)
