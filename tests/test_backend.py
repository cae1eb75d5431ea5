"""Tests for the event core's name, its wake-up accessor contract, and the
config digest.

* **One named event core** — every run builds the one
  :class:`~repro.sim.simulator.Simulator`, and ``resolve_backend()``
  names it ``"python"``.  Benchmark reports record that name and refuse
  to compare numbers across names, so it is pinned here, and a leftover
  ``REPRO_SIM_BACKEND`` in the environment selects nothing.  Tests that
  run a simulation take the core's name as a parameter, so their ids say
  which core produced the result.
* **Tracing parity** — a tracer observes the run; it never changes results,
  on the single-core path or the multi-channel, multi-core one.
* **Digest** — ``config_digest`` keys every on-disk result, so it must see
  every knob that changes results (the pinned digests of the six paper
  configurations live in ``tests/test_engine.py``).
* **The wakeup_view accessor contract** — the event loop hoists every
  channel's wake-up structures once per run, so a controller that rebinds
  them mid-run must crash the run loudly instead of silently losing
  wake-ups.
"""

import pytest

from repro.controller.channel_controller import ChannelController
from repro.experiments.engine import ExperimentScale
from repro.sim.backend import resolve_backend
from repro.sim.config import config_digest, make_system_config
from repro.sim.simulator import Simulator
from repro.sim.system import System, run_workload
from repro.sim.tracing import EventTracer
from repro.workloads.catalog import get_benchmark
from repro.workloads.multiprogram import make_workload_suite

#: Records per trace — enough to fill the MSHRs and trigger controller
#: wake-ups.
RECORDS = 600

#: The report name of the one event core.
EVENT_CORE = "python"


def _single_result(configuration: str, workload: str, backend: str,
                   tracer=None, **kwargs) -> dict:
    """Run one single-core workload on the core named ``backend``."""
    assert resolve_backend().name == backend
    config = make_system_config(configuration, channels=1, **kwargs)
    traces = [get_benchmark(workload).make_trace(RECORDS)]
    return run_workload(config, traces, workload, tracer=tracer).to_dict()


def _build_system(backend: str, channels: int = 1) -> System:
    assert resolve_backend().name == backend
    config = make_system_config("Base", channels=channels)
    traces = [get_benchmark("mcf").make_trace(RECORDS)]
    return System(config, traces)


class TestBackendSelection:
    def test_default_resolution(self):
        assert resolve_backend().name == EVENT_CORE
        system = _build_system(EVENT_CORE)
        simulator = Simulator(system.cores, system.channel_controllers,
                              system.device.mapper)
        assert simulator.run() > 0

    def test_empty_env_falls_through_to_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "")
        assert resolve_backend().name == EVENT_CORE

    def test_leftover_env_value_selects_nothing(self, monkeypatch):
        """The variable that once chose a second core is no longer read."""
        monkeypatch.setenv("REPRO_SIM_BACKEND", "turbo")
        result = _single_result("Base", "mcf", EVENT_CORE)
        assert result["total_cycles"] > 0


class TestTracingParity:
    """Tracing must not perturb the event core's results."""

    @pytest.mark.parametrize("backend", (EVENT_CORE,))
    def test_tracing_on_matches_tracing_off(self, backend):
        baseline = _single_result("FIGCache-Fast", "mcf", backend)
        traced = _single_result("FIGCache-Fast", "mcf", backend,
                                tracer=EventTracer())
        assert traced == baseline

        # The same on the N-channel x M-core path.
        scale = ExperimentScale.smoke()
        suite = {w.name: w for w in make_workload_suite(
            num_cores=scale.num_cores,
            mixes_per_category=scale.mixes_per_category)}
        mix = suite["mix-50pct-0"]
        config = make_system_config("FIGCache-Fast",
                                    channels=scale.multicore_channels)
        runs = [run_workload(config, mix.make_traces(scale.multicore_records),
                             mix.name, tracer=tracer).to_dict()
                for tracer in (None, EventTracer())]
        assert runs[1] == runs[0]


class TestDigestNeutrality:
    """The digest ignores how a result was computed, never what."""

    def test_digest_still_sees_real_knobs(self):
        base = config_digest(make_system_config("FIGCache-Fast"))
        other = config_digest(make_system_config("FIGCache-Fast",
                                                 standard="DDR5-4800"))
        assert base != other


class _RebindingCC(ChannelController):
    """Evil controller that rebinds its wake-up structures mid-run.

    Violates the :meth:`ChannelController.wakeup_view` accessor contract
    on purpose: the first ``enqueue()`` call replaces ``_wakeup_heap``
    and ``_wakeup_cycle`` with copies, so the run loop's hoisted snapshot
    goes stale.  (``enqueue`` is the hook because the event loop calls it
    on every request arrival.)  Empty ``__slots__`` keeps the layout
    compatible with the parent so instances can be re-classed in place.
    """

    __slots__ = ()

    def enqueue(self, request, now):
        self._wakeup_heap = list(self._wakeup_heap)
        self._wakeup_cycle = dict(self._wakeup_cycle)
        return super().enqueue(request, now)


class TestWakeupViewContract:
    """The hoisted wakeup_views snapshot must stay live for a whole run."""

    def test_wakeup_view_is_stable_across_a_run(self):
        system = _build_system(EVENT_CORE)
        cc = system.channel_controllers[0]
        heap_before, live_before = cc.wakeup_view()
        system.run("mcf")
        heap_after, live_after = cc.wakeup_view()
        assert heap_after is heap_before
        assert live_after is live_before

    # One channel takes the loop's single-controller wake path, two the
    # channel fan-out.
    @pytest.mark.parametrize("backend,channels",
                             ((EVENT_CORE, 1), (EVENT_CORE, 2)))
    def test_rebinding_controller_fails_loudly(self, backend, channels):
        """A contract violation must crash the run, not corrupt it."""
        system = _build_system(backend, channels)
        for cc in system.channel_controllers:
            cc.__class__ = _RebindingCC
        with pytest.raises((AssertionError, RuntimeError)):
            system.run("mcf")
