"""Tests for event-level tracing.

Pins the three contracts the tracing layer makes:

* **Zero overhead when off** — the tracer attribute defaults to ``None``
  everywhere, and running with a tracer installed never changes the
  simulated result (tracing observes; it must not perturb).
* **Bounded memory** — the ring buffer keeps at most ``max_events``
  records and counts what it dropped.
* **Valid Chrome trace JSON** — ``to_chrome_trace`` emits events the
  Perfetto / ``chrome://tracing`` loaders accept: known phase codes,
  microsecond timestamps, matched async begin/end pairs, and metadata
  naming rows after channels and banks.
"""

import json

import pytest

from repro.cli import main
from repro.sim.backend import resolve_backend
from repro.sim.config import make_system_config
from repro.sim.system import System, run_workload
from repro.sim.tracing import (CMD, MECH, REQ, TRACE_SCHEMA_VERSION,
                               EventTracer, to_chrome_trace,
                               write_chrome_trace)
from repro.workloads.catalog import get_benchmark

#: Enough records to fill queues and trigger FIGCache inserts/evicts.
TRACE_RECORDS = 600

#: Chrome trace-event phase codes this exporter is allowed to emit.
ALLOWED_PHASES = {"i", "b", "n", "e", "X", "M"}


def _traced_run(configuration="FIGCache-Fast", workload="mcf",
                backend="python", tracer=None, **kwargs):
    """Run one single-core workload on the event core named ``backend``,
    returning (result_dict, config)."""
    assert resolve_backend().name == backend
    config = make_system_config(configuration, channels=1, **kwargs)
    traces = [get_benchmark(workload).make_trace(TRACE_RECORDS)]
    result = run_workload(config, traces, workload, tracer=tracer)
    return result.to_dict(), config


class TestZeroOverheadOff:
    def test_tracer_defaults_to_none_everywhere(self):
        config = make_system_config("FIGCache-Fast", channels=1)
        traces = [get_benchmark("mcf").make_trace(64)]
        system = System(config, traces)
        assert system.tracer is None
        for cc in system.channel_controllers:
            assert cc.tracer is None
            assert cc.channel.tracer is None
        for mechanism in system.mechanisms:
            assert mechanism.tracer is None

    def test_install_reaches_every_channel(self):
        config = make_system_config("FIGCache-Fast", channels=2)
        traces = [get_benchmark("mcf").make_trace(64)]
        tracer = EventTracer()
        system = System(config, traces, tracer=tracer)
        assert system.tracer is tracer
        assert len(system.channel_controllers) == 2
        for cc in system.channel_controllers:
            assert cc.tracer is tracer
            assert cc.channel.tracer is tracer
            assert cc.mechanism.tracer is tracer
        assert all(mechanism.tracer is tracer
                   for mechanism in system.mechanisms)

    # Parametrized by the event core's report name, so the ids say which
    # core produced the results compared.
    @pytest.mark.parametrize("backend", ("python",))
    @pytest.mark.parametrize("configuration",
                             ("Base", "FIGCache-Fast", "LISA-VILLA"))
    def test_tracing_never_changes_results(self, configuration, backend):
        baseline, _ = _traced_run(configuration, backend=backend)
        traced, _ = _traced_run(configuration, backend=backend,
                                tracer=EventTracer())
        assert traced == baseline


class TestRingBuffer:
    def test_bounding_and_drop_accounting(self):
        tracer = EventTracer(max_events=50)
        _traced_run(tracer=tracer)
        assert len(tracer.events) == 50
        assert tracer.total_events > 50
        assert tracer.dropped_events == tracer.total_events - 50

    def test_unbounded_enough_buffer_drops_nothing(self):
        tracer = EventTracer()
        _traced_run(tracer=tracer)
        assert tracer.total_events == len(tracer.events)
        assert tracer.dropped_events == 0

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            EventTracer(max_events=0)

    def test_records_every_kind(self):
        tracer = EventTracer()
        _traced_run(tracer=tracer)
        kinds = {event[0] for event in tracer.events}
        # Refresh events need a longer run than this to come due; the
        # command, request, and mechanism hooks must all have fired.
        assert {CMD, REQ, MECH} <= kinds


class TestChromeTraceExport:
    @pytest.fixture(scope="class")
    def trace_doc(self):
        tracer = EventTracer()
        config = make_system_config("FIGCache-Fast", channels=1)
        traces = [get_benchmark("mcf").make_trace(TRACE_RECORDS)]
        run_workload(config, traces, "mcf", tracer=tracer)
        return to_chrome_trace(tracer, config.dram,
                               metadata={"workload": "mcf"})

    def test_document_shape(self, trace_doc):
        assert isinstance(trace_doc["traceEvents"], list)
        assert trace_doc["traceEvents"]
        assert trace_doc["displayTimeUnit"] == "ns"
        other = trace_doc["otherData"]
        assert other["schema"] == TRACE_SCHEMA_VERSION
        assert other["dropped_events"] == 0
        assert other["recorded_events"] == other["total_events"]
        assert other["workload"] == "mcf"

    def test_json_serializable(self, trace_doc):
        payload = json.dumps(trace_doc)
        assert json.loads(payload) == trace_doc

    def test_events_have_required_fields(self, trace_doc):
        for event in trace_doc["traceEvents"]:
            assert event["ph"] in ALLOWED_PHASES
            assert "pid" in event
            if event["ph"] == "M":
                assert event["name"] in ("process_name", "thread_name")
            else:
                assert "tid" in event
                assert isinstance(event["ts"], float)
                assert event["ts"] >= 0.0

    def test_async_request_spans_are_matched(self, trace_doc):
        begins = [e for e in trace_doc["traceEvents"]
                  if e["ph"] == "b" and e["cat"] == "request"]
        ends = [e for e in trace_doc["traceEvents"]
                if e["ph"] == "e" and e["cat"] == "request"]
        assert begins
        assert sorted(e["id"] for e in begins) == \
            sorted(e["id"] for e in ends)

    def test_command_and_mechanism_instants_present(self, trace_doc):
        names = {e["name"] for e in trace_doc["traceEvents"]
                 if e["ph"] == "i" and e.get("cat") == "dram"}
        assert {"ACT", "RD"} <= names
        mech = [e for e in trace_doc["traceEvents"]
                if e.get("cat") == "mechanism"]
        assert mech
        assert all("args" in e for e in mech)

    def test_metadata_names_channels_and_banks(self, trace_doc):
        names = [e for e in trace_doc["traceEvents"] if e["ph"] == "M"]
        process_names = {e["args"]["name"] for e in names
                         if e["name"] == "process_name"}
        assert any(n.startswith("channel ") for n in process_names)
        thread_names = {e["args"]["name"] for e in names
                        if e["name"] == "thread_name"}
        assert any(n.startswith("bank ") for n in thread_names)

    def test_write_chrome_trace_round_trips(self, tmp_path):
        tracer = EventTracer()
        config = make_system_config("Base", channels=1)
        traces = [get_benchmark("gcc").make_trace(64)]
        run_workload(config, traces, "gcc", tracer=tracer)
        path = write_chrome_trace(tmp_path / "trace.json", tracer,
                                  config.dram)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["otherData"]["schema"] == TRACE_SCHEMA_VERSION
        assert doc["traceEvents"]


class TestTraceCLI:
    def test_trace_command_writes_valid_json(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "mcf", "--config", "FIGCache-Fast",
                     "--scale", "tiny", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "trace written to" in printed
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["traceEvents"]

    def test_trace_command_rejects_unknown_workload(self, capsys):
        assert main(["trace", "not-a-workload"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err
