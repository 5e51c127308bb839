"""Tests for the unified telemetry layer (repro.obs): the span API, the
Telemetry hub, the Prometheus-style exposition, the stream schemas, and the
``--telemetry`` / ``repro obs`` CLI surface."""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_trial
from repro.obs import exposition as exposition_mod
from repro.obs import schemas as obs_schemas
from repro.obs import spans as spans_mod
from repro.obs.spans import (
    SPAN_BUFFER,
    SPAN_NAMES,
    TELEMETRY_ENV,
    SpanBuffer,
    SpanRecord,
    emit,
    span,
    telemetry_enabled,
)
from repro.obs.telemetry import (
    TELEMETRY,
    Telemetry,
    chrome_trace_from_records,
    chrome_trace_from_spans,
    load_jsonl,
    render_text,
)
from repro.sim.metrics import MetricRegistry
from repro.sim.tracing import TraceRecorder

#: The cheapest full trial (one tiny topology, few requests).
TINY = ExperimentConfig(topology="cycle", n_nodes=9, n_consumer_pairs=4, n_requests=6)


@pytest.fixture
def telemetry():
    """Telemetry switched on for one test, buffers clean before and after."""
    SPAN_BUFFER.clear()
    TELEMETRY.metrics.reset()
    spans_mod.enable(True)
    yield SPAN_BUFFER
    spans_mod.enable(False)
    SPAN_BUFFER.clear()
    TELEMETRY.metrics.reset()


class TestSpanAPI:
    def test_disabled_span_is_the_shared_noop(self):
        spans_mod.enable(False)
        SPAN_BUFFER.clear()
        first = span("trial.run", seed=1)
        second = span("trial.topology")
        assert first is second is spans_mod._NOOP
        with first:
            pass
        assert len(SPAN_BUFFER) == 0
        emit("trial.balance", 0.0, 1.0)
        assert len(SPAN_BUFFER) == 0

    def test_enable_mirrors_into_the_environment(self):
        spans_mod.enable(True)
        assert os.environ.get(TELEMETRY_ENV) == "1"
        assert telemetry_enabled()
        spans_mod.disable()
        assert TELEMETRY_ENV not in os.environ
        assert not telemetry_enabled()

    def test_nested_spans_record_parent_and_depth(self, telemetry):
        with span("experiment.run", experiment="x"):
            with span("trial.run", seed=3):
                with span("trial.topology"):
                    pass
        records = {record.name: record for record in telemetry.snapshot()}
        assert set(records) == {"experiment.run", "trial.run", "trial.topology"}
        outer, mid, inner = (
            records["experiment.run"], records["trial.run"], records["trial.topology"]
        )
        assert outer.parent_id is None and outer.depth == 0
        assert mid.parent_id == outer.span_id and mid.depth == 1
        assert inner.parent_id == mid.span_id and inner.depth == 2
        assert outer.attrs == {"experiment": "x"} and mid.attrs == {"seed": 3}
        # Children close before their parent, so durations nest too.
        assert outer.duration >= mid.duration >= inner.duration >= 0.0

    def test_emit_records_an_already_measured_interval(self, telemetry):
        with span("serve.job.running", job="j-1"):
            emit("serve.job.queued", 10.0, 0.25, job="j-1")
        queued = next(r for r in telemetry.snapshot() if r.name == "serve.job.queued")
        running = next(r for r in telemetry.snapshot() if r.name == "serve.job.running")
        assert queued.duration == 0.25
        assert queued.parent_id == running.span_id

    def test_buffer_caps_and_counts_drops(self):
        buffer = SpanBuffer(capacity=3)
        for index in range(5):
            buffer.append(
                SpanRecord(
                    name="trial.run", start=float(index), duration=0.0,
                    pid=1, thread=1, span_id=index + 1, parent_id=None, depth=0,
                )
            )
        assert len(buffer) == 3 and buffer.dropped == 2
        # Oldest dropped: the survivors are the three most recent.
        assert [record.span_id for record in buffer.snapshot()] == [3, 4, 5]
        drained = buffer.drain()
        assert len(drained) == 3 and len(buffer) == 0
        assert buffer.dropped == 2  # drain keeps the drop count
        buffer.clear()
        assert buffer.dropped == 0


class TestTrialInstrumentation:
    def test_trial_emits_every_lifecycle_span(self, telemetry):
        run_trial(TINY)
        names = [record.name for record in telemetry.snapshot()]
        for expected in (
            "trial.run", "trial.topology", "trial.workload", "trial.routing",
            "trial.rounds", "trial.generation", "trial.balance",
            "trial.consumption", "trial.bookkeeping", "trial.reduce",
        ):
            assert expected in names, f"trial lifecycle span {expected!r} missing"

    def test_phase_aggregates_carry_round_counts(self, telemetry):
        outcome = run_trial(TINY)
        balance = next(r for r in telemetry.snapshot() if r.name == "trial.balance")
        assert balance.attrs["aggregate"] is True
        assert balance.attrs["rounds"] == outcome.rounds

    def test_sweep_spans_and_hub_counters(self, telemetry):
        from repro.runtime.sweep import SweepRunner

        configs = [TINY, TINY.with_(seed=1)]
        SweepRunner(n_workers=1).run(configs)
        names = [record.name for record in telemetry.snapshot()]
        assert names.count("sweep.run") == 1
        assert names.count("sweep.trial") == len(configs)
        counters = TELEMETRY.metrics.counters()
        assert counters["sweep.cells"] == len(configs)
        assert counters["sweep.computed"] == len(configs)
        assert counters["sweep.cached"] == 0

    def test_disabled_trial_buffers_nothing(self):
        spans_mod.enable(False)
        SPAN_BUFFER.clear()
        run_trial(TINY)
        assert len(SPAN_BUFFER) == 0


class TestTraceDropped:
    def test_capped_recorder_surfaces_drops_in_protocol_result(self):
        """A capacity-capped TraceRecorder must report its drop count
        through ProtocolResult.trace_dropped -- a truncated trace can never
        silently present itself as complete."""
        from repro.network.demand import RequestSequence, select_consumer_pairs
        from repro.network.topologies import cycle_topology
        from repro.protocols.oblivious import PathObliviousProtocol
        from repro.sim.rng import RandomStreams

        streams = RandomStreams(11)
        topology = cycle_topology(8)
        pairs = select_consumer_pairs(topology, 4, streams.get("consumers"))
        requests = RequestSequence.generate(pairs, 10, streams.get("requests"))
        trace = TraceRecorder(capacity=5)
        protocol = PathObliviousProtocol(
            topology=topology, requests=requests, streams=streams,
            max_rounds=400, trace=trace,
        )
        result = protocol.run()
        assert trace.dropped > 0
        assert result.trace_dropped == trace.dropped
        assert len(trace) <= 5

    def test_uncapped_run_reports_zero_drops_in_outcome(self):
        outcome = run_trial(TINY)
        assert outcome.trace_dropped == 0


class TestTelemetryHub:
    def test_export_jsonl_validates_manifest_first(self, telemetry, tmp_path):
        run_trial(TINY)
        hub = Telemetry(trace=TraceRecorder())
        hub.trace.record(0.0, "round", {"n": 1})
        target = hub.export_jsonl(tmp_path / "t.jsonl", experiment="unit")
        records = load_jsonl(target)
        assert obs_schemas.validate_stream(records) == len(records)
        manifest = records[0]
        assert manifest["type"] == "manifest" and manifest["experiment"] == "unit"
        assert manifest["schema_version"] == 2
        types = {record["type"] for record in records}
        assert {"manifest", "span", "trace"} <= types

    def test_snapshot_carries_span_drop_count(self, telemetry):
        hub = Telemetry(spans=SpanBuffer(capacity=1))
        with span("trial.run"):
            pass
        # route two records through the tiny buffer
        hub.spans.append(SPAN_BUFFER.snapshot()[0])
        hub.spans.append(SPAN_BUFFER.snapshot()[0])
        snapshot = hub.snapshot()
        assert snapshot["spans_dropped"] == 1
        assert len(snapshot["spans"]) == 1

    def test_chrome_trace_round_trips_through_records(self, telemetry, tmp_path):
        run_trial(TINY)
        hub = Telemetry()
        document = hub.chrome_trace()
        obs_schemas.validate_chrome_trace(document)
        target = hub.export_jsonl(tmp_path / "t.jsonl")
        rebuilt = chrome_trace_from_records(load_jsonl(target))
        assert rebuilt == document
        assert all(event["ph"] == "X" for event in document["traceEvents"])

    def test_render_text_summarises_spans_and_metrics(self, telemetry, tmp_path):
        run_trial(TINY)
        hub = Telemetry()
        hub.metrics.counter("sweep.cells").increment(3)
        records = load_jsonl(hub.export_jsonl(tmp_path / "t.jsonl", experiment="unit"))
        text = render_text(records)
        assert "trial.run" in text and "sweep.cells" in text and "unit" in text

    def test_validate_stream_rejects_bad_streams(self):
        with pytest.raises(ValueError):
            obs_schemas.validate_stream([])  # empty
        with pytest.raises(ValueError):
            obs_schemas.validate_stream([{"type": "span"}])  # no manifest first
        with pytest.raises(ValueError):
            obs_schemas.validate_record({"type": "wormhole"})


class TestExposition:
    def _registry(self) -> MetricRegistry:
        registry = MetricRegistry()
        registry.counter("serve.submitted", "jobs accepted").increment(3)
        registry.gauge("serve.queue.depth").set(2)
        histogram = registry.histogram("trial.seconds", "per-trial wall time")
        histogram.observe_many([0.5, 1.5])
        return registry

    def test_render_parse_round_trip(self):
        text = exposition_mod.render_exposition(self._registry())
        samples = exposition_mod.parse_exposition(text)
        assert samples["repro_serve_submitted_total"] == 3.0
        assert samples["repro_serve_queue_depth"] == 2.0
        assert samples["repro_trial_seconds_count"] == 2.0
        assert samples["repro_trial_seconds_sum"] == 2.0
        assert samples['repro_trial_seconds{quantile="0.5"}'] == 1.0

    def test_exposition_structure(self):
        text = exposition_mod.render_exposition(self._registry())
        lines = text.splitlines()
        assert "# TYPE repro_serve_submitted_total counter" in lines
        assert "# TYPE repro_serve_queue_depth gauge" in lines
        assert "# TYPE repro_trial_seconds summary" in lines
        assert "# HELP repro_serve_submitted_total jobs accepted" in lines

    def test_parse_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            exposition_mod.parse_exposition("this is not an exposition\n")


class TestCheckedInSchema:
    def test_telemetry_schema_document_matches_canonical(self):
        path = os.path.join(
            os.path.dirname(__file__), "..", "docs", "schemas", "telemetry.schema.json"
        )
        with open(path, encoding="utf-8") as handle:
            checked_in = json.load(handle)
        assert checked_in == obs_schemas.TELEMETRY_SCHEMA

    def test_span_names_registry_matches_instrumentation(self):
        """Every emitted span name must be registered in SPAN_NAMES (the
        docs gate walks that tuple), and names follow the dotted style."""
        assert len(set(SPAN_NAMES)) == len(SPAN_NAMES)
        for name in SPAN_NAMES:
            assert "." in name and name == name.lower()


class TestTelemetryCLI:
    def test_telemetry_flag_keeps_stdout_identical_and_writes_stream(
        self, capsys, tmp_path
    ):
        from repro.cli import main

        stream = tmp_path / "t.jsonl"
        assert main(["figure4", "--smoke", "--format", "json"]) == 0
        plain = capsys.readouterr().out
        assert main(
            ["figure4", "--smoke", "--format", "json", "--telemetry", str(stream)]
        ) == 0
        captured = capsys.readouterr()
        assert captured.out == plain  # byte-identical result on stdout
        assert "telemetry" in captured.err  # the notice stays off stdout
        assert not telemetry_enabled()  # the flag's enablement is scoped to the run
        records = load_jsonl(stream)
        assert obs_schemas.validate_stream(records) >= 2
        assert records[0]["experiment"] == "figure4"

    def test_obs_render_and_chrome_subcommands(self, capsys, tmp_path):
        from repro.cli import main

        stream = tmp_path / "t.jsonl"
        assert main(["figure4", "--smoke", "--telemetry", str(stream)]) == 0
        capsys.readouterr()
        assert main(["obs", "render", str(stream)]) == 0
        rendered = capsys.readouterr().out
        assert "telemetry stream for figure4" in rendered and "trial.run" in rendered
        trace_file = tmp_path / "t.trace.json"
        assert main(
            ["obs", "chrome", str(stream), "--output", str(trace_file)]
        ) == 0
        capsys.readouterr()
        document = json.loads(trace_file.read_text(encoding="utf-8"))
        obs_schemas.validate_chrome_trace(document)
        assert document["traceEvents"]

    def test_obs_rejects_unreadable_or_invalid_streams(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["obs", "render", str(tmp_path / "missing.jsonl")])
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"type": "span"}\n', encoding="utf-8")
        with pytest.raises(SystemExit):
            main(["obs", "render", str(bad)])

    def test_schemas_module_cli_validates_streams(self, capsys, tmp_path):
        from repro.cli import main as repro_main

        stream = tmp_path / "t.jsonl"
        assert repro_main(["figure4", "--smoke", "--telemetry", str(stream)]) == 0
        capsys.readouterr()
        assert obs_schemas.main([str(stream)]) == 0
        assert "valid telemetry stream" in capsys.readouterr().out
