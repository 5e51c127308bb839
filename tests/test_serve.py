"""Tests for the service mode (repro.serve): protocol, queue, admission,
worker pool, and the daemon end to end over a real Unix socket."""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro.experiments.registry import experiment_names, get_experiment
from repro.experiments.schema import SchemaError, validate_payload
from repro.serve import (
    Job,
    JobQueue,
    QueueFull,
    ServeClient,
    ServeDaemon,
    ServeError,
    WorkerPool,
)
from repro.serve.admission import ServeAdmission
from repro.serve.daemon import coerce_params, submission_digest
from repro.serve.protocol import (
    ERROR_KINDS,
    EVENT_SCHEMA,
    PROTOCOL_SCHEMA,
    REQUEST_SCHEMA,
    RESPONSE_SCHEMA,
    SERVE_PROTOCOL_VERSION,
    VERBS,
    ProtocolError,
    encode,
    end_event,
    error_response,
    ok_response,
    parse_address,
    parse_request,
    progress_event,
)

#: The cheapest real submission: one trial (9 nodes, 6 requests, one topology).
TINY = {"smoke": True, "topologies": ["cycle"]}
#: The CI smoke point proper (three topologies).
SMOKE = {"smoke": True}
#: Small inputs for every registered experiment (about two seconds in all).
SMALL_PARAMS = {
    "ablations": {"n_nodes": 9},
    "classical": {"n_nodes": 9},
    "comparison": {"n_nodes": 9},
    "figure4": SMOKE,
    "figure5": {"network_sizes": [9]},
    "lp": {"n_nodes": 9},
    "multicast": SMOKE,
    "resilience": SMOKE,
    "scaling": {"sizes": [36]},
    "traffic": SMOKE,
}


def _tiny_variant(master_seed: int) -> dict:
    """A distinct-digest sibling of ``TINY`` (for tests that must not coalesce)."""
    return {"smoke": True, "topologies": ["cycle"], "master_seed": master_seed}


@contextlib.contextmanager
def serve_daemon(**kwargs):
    """A started daemon on a short-path Unix socket, shut down on exit."""
    sock_dir = tempfile.mkdtemp(prefix="repro-serve-")
    kwargs.setdefault("socket_path", os.path.join(sock_dir, "d.sock"))
    daemon = ServeDaemon(**kwargs)
    try:
        daemon.start()
        yield daemon
    finally:
        if daemon.state != "stopped":
            daemon.shutdown(timeout=60)
        shutil.rmtree(sock_dir, ignore_errors=True)


def _patch_execute(monkeypatch, replacement, name: str = "figure4"):
    """Swap the registered experiment's ``execute`` for ``replacement(execute,
    grid, runtime)``, where ``execute`` is the real one (undone at teardown)."""
    experiment = get_experiment(name)
    execute = experiment.execute
    monkeypatch.setitem(
        vars(experiment), "execute", lambda grid, runtime: replacement(execute, grid, runtime)
    )


def _gate_execute(monkeypatch, gate: threading.Event) -> None:
    """Block every figure4 run until ``gate`` is set (holds a worker busy)."""

    def gated(execute, grid, runtime):
        assert gate.wait(timeout=30), "test gate never opened"
        return execute(grid, runtime)

    _patch_execute(monkeypatch, gated)


def _crash(message: str):
    """An ``execute`` replacement that raises ``RuntimeError(message)``."""

    def crash(execute, grid, runtime):
        raise RuntimeError(message)

    return crash


def _raw_request(address: str, data: bytes) -> dict:
    """Send raw bytes on a fresh connection; return the first response line."""
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    sock.settimeout(10)
    try:
        sock.connect(address)
        sock.sendall(data)
        reader = sock.makefile("r", encoding="utf-8", newline="\n")
        return json.loads(reader.readline())
    finally:
        sock.close()


def _wait_for(predicate, timeout: float = 10.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


class TestProtocol:
    def test_parse_request_roundtrip(self):
        line = encode({"op": "status", "job": "j-000001", "id": "r-1"}).decode()
        assert parse_request(line) == {"op": "status", "job": "j-000001", "id": "r-1"}

    def test_malformed_json_is_a_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request('{"op": "submit",')
        assert excinfo.value.code == 400 and excinfo.value.kind == "bad-request"

    def test_non_object_request_is_a_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request('["submit"]')
        assert excinfo.value.code == 400

    def test_unknown_op_is_a_400_naming_the_verbs(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request('{"op": "frobnicate"}')
        assert excinfo.value.code == 400
        for verb in VERBS:
            assert verb in str(excinfo.value)

    def test_badly_typed_field_is_a_400(self):
        with pytest.raises(ProtocolError) as excinfo:
            parse_request('{"op": "submit", "priority": "high"}')
        assert excinfo.value.code == 400

    def test_every_error_code_produces_a_schema_valid_response(self):
        for code in ERROR_KINDS:
            response = error_response("submit", code, "why", "r-1", retry_after=1.5)
            validate_payload(response, schema=RESPONSE_SCHEMA)
            assert response["error"]["kind"] == ERROR_KINDS[code]
            assert response["error"]["retry_after"] == 1.5

    def test_ok_response_and_events_are_schema_valid(self):
        validate_payload(
            ok_response("submit", "r-1", job="j-000001", state="queued", cached=False),
            schema=RESPONSE_SCHEMA,
        )
        validate_payload(progress_event("j-000001", "running", 1, 3), schema=EVENT_SCHEMA)
        validate_payload(end_event("j-000001", "done"), schema=EVENT_SCHEMA)

    def test_encode_is_compact_order_preserving_newline_terminated(self):
        data = encode({"b": 1, "a": 2})
        assert data.endswith(b"\n")
        # Insertion order survives the wire so embedded result payloads
        # render byte-identically to their one-shot counterparts.
        assert data == b'{"b":1,"a":2}\n'

    def test_parse_address_classification(self):
        assert parse_address("/tmp/repro.sock") == ("unix", "/tmp/repro.sock")
        assert parse_address("repro.sock") == ("unix", "repro.sock")
        assert parse_address("example.org:7777") == ("tcp", ("example.org", 7777))
        assert parse_address(":7777") == ("tcp", ("127.0.0.1", 7777))
        with pytest.raises(ValueError):
            parse_address("example.org:http")
        with pytest.raises(ValueError):
            parse_address("")

    def test_protocol_error_carries_kind_and_retry_after(self):
        error = ProtocolError(429, "slow down", retry_after=0.25)
        assert error.kind == "rejected" and error.retry_after == 0.25
        assert ProtocolError(404, "gone").retry_after is None

    def test_checked_in_schema_matches_canonical(self):
        """The protocol document in docs/ must never drift from the code."""
        path = os.path.join(
            os.path.dirname(__file__), "..", "docs", "schemas", "serve-protocol.schema.json"
        )
        with open(path, encoding="utf-8") as handle:
            checked_in = json.load(handle)
        assert checked_in == PROTOCOL_SCHEMA
        assert checked_in["protocol_version"] == SERVE_PROTOCOL_VERSION


class TestJobQueue:
    def _job(self, n: int, priority: int = 0) -> Job:
        return Job(job_id=f"j-{n:06d}", experiment="figure4", params={}, digest=str(n),
                   priority=priority)

    def test_priority_order_with_fifo_ties(self):
        queue = JobQueue(depth=8)
        first, low, high, second = (
            self._job(1), self._job(2, priority=-1), self._job(3, priority=5), self._job(4)
        )
        for job in (first, low, high, second):
            queue.push(job)
        popped = [queue.pop(timeout=0.1) for _ in range(4)]
        assert popped == [high, first, second, low]

    def test_bounded_depth_raises_queue_full(self):
        queue = JobQueue(depth=2)
        queue.push(self._job(1))
        queue.push(self._job(2))
        with pytest.raises(QueueFull):
            queue.push(self._job(3))

    def test_cancelled_jobs_are_skipped_on_pop(self):
        queue = JobQueue(depth=4)
        doomed, survivor = self._job(1), self._job(2)
        queue.push(doomed)
        queue.push(survivor)
        doomed.cancel_event.set()
        assert queue.pop(timeout=0.1) is survivor
        assert queue.pop(timeout=0.05) is None

    def test_pop_returns_none_after_close(self):
        queue = JobQueue(depth=2)
        queue.close()
        assert queue.closed
        assert queue.pop(timeout=5) is None  # returns immediately, no wait

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            JobQueue(depth=0)
        with pytest.raises(ValueError):
            Job(job_id="j", experiment="figure4", params={}, digest="d", state="sleeping")


class TestServeAdmission:
    def test_burst_then_rejection_with_retry_hint(self):
        clock = [0.0]
        admission = ServeAdmission(rate=1.0, burst=2.0, clock=lambda: clock[0])
        assert admission.admit("alice") == (True, None)
        assert admission.admit("alice") == (True, None)
        admitted, retry_after = admission.admit("alice")
        assert not admitted
        assert retry_after == pytest.approx(1.0)
        assert admission.admitted_count == 2 and admission.rejected_count == 1

    def test_bucket_refills_with_the_clock(self):
        clock = [0.0]
        admission = ServeAdmission(rate=2.0, burst=1.0, clock=lambda: clock[0])
        assert admission.admit("alice")[0]
        assert not admission.admit("alice")[0]
        clock[0] = 0.6  # 1.2 tokens accrued
        assert admission.admit("alice")[0]

    def test_clients_have_independent_buckets(self):
        clock = [0.0]
        admission = ServeAdmission(rate=1.0, burst=1.0, clock=lambda: clock[0])
        assert admission.admit("alice")[0]
        assert not admission.admit("alice")[0]
        assert admission.admit("bob")[0], "bob must not pay for alice's burst"


class TestCoercionAndDigest:
    def test_coerce_params_applies_spec_types_to_strings(self):
        specs = get_experiment("figure4").params
        coerced = coerce_params(specs, {"n_nodes": "9", "n_requests": 6, "smoke": True})
        assert coerced == {"n_nodes": 9, "n_requests": 6, "smoke": True}

    def test_coerce_params_reports_bad_values(self):
        specs = get_experiment("figure4").params
        with pytest.raises(ValueError, match="n_nodes"):
            coerce_params(specs, {"n_nodes": "nine"})

    def test_digest_ignores_spelling_differences(self):
        experiment = get_experiment("figure4")

        def digest(raw):
            params = coerce_params(experiment.params, raw)
            return submission_digest(
                "figure4", experiment.normalize(experiment.resolve_params(params))
            )

        assert digest({"n_nodes": "9"}) == digest({"n_nodes": 9})
        assert digest({}) == digest({"n_nodes": 25})  # explicit default
        assert digest({"n_nodes": 9}) != digest({"n_nodes": 16})
        assert digest({"smoke": True}) != digest({})


class TestWorkerPool:
    def _submit(self, pool_kwargs, params=TINY, experiment="figure4"):
        """Run one job through a throwaway pool; return the finished job.

        ``total`` comes from the submit-time plan, as the daemon sets it.
        """
        queue = JobQueue(depth=4)
        pool = WorkerPool(queue, n_workers=1, **pool_kwargs)
        job = Job(
            job_id="j-000001",
            experiment=experiment,
            params=dict(params),
            digest=submission_digest(experiment, params),
            total=len(get_experiment(experiment).plan(params)[1]),
        )
        pool.start()
        try:
            queue.push(job)
            assert job.done_event.wait(timeout=60), "job hung instead of finishing"
        finally:
            pool.stop(timeout=10)
        return job

    def test_happy_path_produces_schema_valid_payload(self):
        job = self._submit({})
        assert job.state == "done" and job.attempts == 1
        assert job.completed == job.total == 1
        validate_payload(job.result)

    def test_crash_parks_structured_error_not_a_hang(self, monkeypatch):
        _patch_execute(monkeypatch, _crash("injected crash"))
        job = self._submit({"retries": 1})
        assert job.state == "error"
        assert job.attempts == 2  # first run plus one retry
        assert job.error["code"] == 500 and job.error["kind"] == "worker-error"
        assert "injected crash" in job.error["message"]
        assert "injected crash" in job.error["traceback"]

    def test_crash_then_success_within_retry_budget(self, monkeypatch):
        calls = []

        def crash_once(execute, grid, runtime):
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("transient crash")
            return execute(grid, runtime)

        _patch_execute(monkeypatch, crash_once)
        job = self._submit({"retries": 1})
        assert job.state == "done" and job.attempts == 2
        validate_payload(job.result)

    def test_timeout_parks_a_408_error(self):
        job = self._submit({"job_timeout": 0.0})
        assert job.state == "error"
        assert job.error["code"] == 408 and job.error["kind"] == "wait-timeout"
        assert job.completed >= 1  # the budget is checked between trials

    def test_lp_timeout_parks_a_408_after_the_first_program(self):
        job = self._submit({"job_timeout": 0.0}, params={"n_nodes": 9}, experiment="lp")
        assert job.state == "error" and job.error["code"] == 408
        assert (job.completed, job.total) == (1, 4)  # 2 topologies x 2 D

    def test_cancel_between_pop_and_start(self):
        pool = WorkerPool(JobQueue(depth=1), n_workers=1)
        job = Job(job_id="j-000001", experiment="figure4", params={}, digest="d")
        job.cancel_event.set()
        pool._run_job(job)
        assert job.state == "cancelled" and job.done_event.is_set()

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            WorkerPool(JobQueue(), n_workers=0)
        with pytest.raises(ValueError):
            WorkerPool(JobQueue(), retries=-1)


class TestServeDaemon:
    def test_unknown_experiment_is_a_schema_valid_404(self):
        with serve_daemon() as daemon:
            with ServeClient(daemon.address) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.submit("figure42", {})
        assert excinfo.value.code == 404 and excinfo.value.kind == "not-found"
        validate_payload(excinfo.value.response, schema=RESPONSE_SCHEMA)

    def test_experiment_that_fails_to_load_is_a_500_and_the_connection_lives(
        self, monkeypatch
    ):
        """Loading imports the experiment's module; a KeyError out of that
        import (CPython's importlib can raise ``KeyError('repro.serve')`` under
        concurrent first imports) is a load failure, not an unknown name."""
        import repro.serve.daemon as daemon_module

        def failing_lookup(name):
            if name == "figure4":
                raise KeyError("repro.serve")
            return get_experiment(name)

        monkeypatch.setattr(daemon_module, "get_experiment", failing_lookup)
        with serve_daemon() as daemon:
            with ServeClient(daemon.address) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.submit("figure4", TINY)
                assert excinfo.value.code == 500 and excinfo.value.kind == "worker-error"
                assert "KeyError" in excinfo.value.response["error"]["message"]
                validate_payload(excinfo.value.response, schema=RESPONSE_SCHEMA)
                with pytest.raises(ServeError) as excinfo:
                    client.submit("figure42", {})
                assert excinfo.value.code == 404
                assert client.health()["state"] == "serving"

    def test_bad_params_are_a_schema_valid_400(self):
        with serve_daemon() as daemon:
            with ServeClient(daemon.address) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.submit("figure4", {"n_nodes": "nine"})
                assert excinfo.value.code == 400
                validate_payload(excinfo.value.response, schema=RESPONSE_SCHEMA)
                with pytest.raises(ServeError) as excinfo:
                    client.submit("figure4", {"balancer": "telepathy"})
                assert excinfo.value.code == 400

    def test_grid_size_that_is_not_a_square_is_a_400(self):
        """The (topologies, size) check runs in normalize, before any worker."""
        with serve_daemon() as daemon:
            with ServeClient(daemon.address) as client:
                with pytest.raises(ServeError) as excinfo:
                    client.submit("figure4", {"n_nodes": 10})
                assert excinfo.value.code == 400
                assert "perfect-square" in excinfo.value.response["error"]["message"]
                validate_payload(excinfo.value.response, schema=RESPONSE_SCHEMA)
                with pytest.raises(ServeError) as excinfo:
                    client.submit("lp", {"n_nodes": 10})
                assert excinfo.value.code == 400
            stats = daemon.stats_snapshot()
        assert stats["jobs_by_state"] == {}

    def test_grid_build_error_and_smoke_conflict_are_400s(self):
        """Both used to pass submit: the first crashed a worker (500), the
        second ran a smoke job that ignored the explicit values."""
        with serve_daemon() as daemon:
            with ServeClient(daemon.address) as client:
                for params, message in (
                    ({"n_nodes": 9, "n_requests": 0}, "n_requests must be positive"),
                    ({"smoke": True, "n_nodes": "16"}, "smoke would override n_nodes=16"),
                ):
                    with pytest.raises(ServeError) as excinfo:
                        client.submit("figure4", params)
                    assert excinfo.value.code == 400
                    assert message in excinfo.value.response["error"]["message"]
                    validate_payload(excinfo.value.response, schema=RESPONSE_SCHEMA)
            stats = daemon.stats_snapshot()
        assert stats["jobs_by_state"] == {}

    def test_malformed_json_line_gets_a_schema_valid_error(self):
        with serve_daemon() as daemon:
            response = _raw_request(daemon.address, b'{"op": "submit",\n')
        validate_payload(response, schema=RESPONSE_SCHEMA)
        assert response["ok"] is False and response["op"] == "invalid"
        assert response["error"]["code"] == 400

    def test_unknown_op_line_gets_a_schema_valid_error(self):
        with serve_daemon() as daemon:
            response = _raw_request(daemon.address, b'{"op": "frobnicate"}\n')
            stats = daemon.stats_snapshot()
        validate_payload(response, schema=RESPONSE_SCHEMA)
        assert response["error"]["code"] == 400
        assert stats["rejected_invalid"] == 1

    def test_health_reports_state_and_protocol_version(self):
        with serve_daemon(workers=3) as daemon:
            with ServeClient(daemon.address) as client:
                health = client.health()
        assert health["state"] == "serving"
        assert health["stats"]["workers"] == 3
        assert health["stats"]["protocol_version"] == SERVE_PROTOCOL_VERSION

    def test_e2e_two_concurrent_clients_bit_identical_with_shared_cache(self):
        """The PR's acceptance criterion, in-process: two concurrent clients
        over one Unix socket coalesce onto one job, both receive the payload
        a one-shot run produces bit for bit, a third submission is a memo
        hit, and shutdown drains cleanly."""
        local = get_experiment("figure4").run(smoke=True, topologies=("cycle",))
        expected = json.loads(json.dumps(local.to_payload(), default=repr))
        results, errors = [], []

        def one_client(name):
            try:
                with ServeClient(daemon.address, client=name) as client:
                    results.append(client.run("figure4", TINY, timeout=60)["result"])
            except Exception as error:  # pragma: no cover - surfaced via assert
                errors.append(error)

        with serve_daemon(workers=2) as daemon:
            threads = [threading.Thread(target=one_client, args=(n,)) for n in ("a", "b")]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            with ServeClient(daemon.address, client="c") as late:
                third = late.submit("figure4", TINY)
                stats = late.stats()
            snapshot = daemon.shutdown()
        assert not errors
        assert len(results) == 2
        for payload in results:
            validate_payload(payload)
            assert json.loads(json.dumps(payload, default=repr)) == expected
        assert third["cached"] is True and third["state"] == "done"
        assert stats["submitted"] == 1, "identical submissions must share one job"
        assert stats["coalesced"] + stats["result_cache_hits"] >= 2
        assert stats["result_cache_hits"] >= 1  # the late submission at least
        assert snapshot["state"] == "stopped" and snapshot["completed"] == 1

    def test_an_edited_replay_trace_is_read_again(self, tmp_path):
        """A replay job's result depends on its trace file, not only on its
        parameters: after the trace is edited in place, a resubmission must
        run on the edited trace, not come back from the memo."""
        trace = tmp_path / "trace.jsonl"
        lines = [
            json.dumps({"round": 0, "pair": [0, 2]}),
            json.dumps({"round": 1, "pair": [1, 3]}),
            json.dumps({"round": 2, "pair": [0, 3]}),
        ]
        trace.write_text("\n".join(lines) + "\n")
        params = {"workload": f"replay:file={trace}", "n_requests": 6}
        with serve_daemon(workers=1) as daemon:
            with ServeClient(daemon.address) as client:
                first = client.run("traffic", params, timeout=120)
                trace.write_text(lines[0] + "\n")
                second = client.run("traffic", params, timeout=120)
                stats = client.stats()
        local = get_experiment("traffic").run(**params).to_payload()
        assert first["state"] == second["state"] == "done"
        assert stats["submitted"] == 2 and stats["result_cache_hits"] == 0
        assert json.dumps(second["result"]) == json.dumps(local)
        assert second["result"] != first["result"]

    def test_streaming_submission_pushes_schema_valid_progress(self):
        with serve_daemon() as daemon:
            with ServeClient(daemon.address) as client:
                submitted = client.submit("figure4", SMOKE, stream=True)
                events = list(client.events())
        assert submitted["state"] in ("queued", "running")
        for event in events:
            validate_payload(event, schema=EVENT_SCHEMA)
        assert events, "a streaming submission must push events"
        assert events[-1] == {"event": "end", "job": submitted["job"], "state": "done"}
        progress = [e for e in events if e["event"] == "progress"]
        assert progress and progress[-1]["completed"] == progress[-1]["total"] == 3

    def test_streaming_resubmission_of_finished_job_ends_immediately(self):
        with serve_daemon() as daemon:
            with ServeClient(daemon.address) as client:
                first = client.submit("figure4", TINY)
                client.result(first["job"], wait=True, timeout=60)
                again = client.submit("figure4", TINY, stream=True)
                events = list(client.events())
        assert again["cached"] is True
        assert events == [{"event": "end", "job": first["job"], "state": "done"}]

    def test_client_disconnect_midstream_does_not_kill_the_job(self, monkeypatch):
        gate = threading.Event()
        _gate_execute(monkeypatch, gate)
        with serve_daemon(workers=1) as daemon:
            watcher = ServeClient(daemon.address, client="watcher")
            subscriber = ServeClient(daemon.address, client="quitter")
            try:
                submitted = subscriber.submit("figure4", TINY, stream=True)
                job_id = submitted["job"]
                _wait_for(
                    lambda: watcher.status(job_id)["state"] == "running",
                    message="job to start running",
                )
                subscriber.close()  # vanish mid-stream, before any progress event
                gate.set()
                response = watcher.result(job_id, wait=True, timeout=60)
                assert response["state"] == "done"
                validate_payload(response["result"])
                assert daemon.stats_snapshot()["completed"] == 1
            finally:
                gate.set()
                watcher.close()
                subscriber.close()

    def test_queue_full_draining_and_cancel(self, monkeypatch):
        gate = threading.Event()
        _gate_execute(monkeypatch, gate)
        with serve_daemon(workers=1, queue_depth=1) as daemon:
            with ServeClient(daemon.address) as client:
                running = client.submit("figure4", _tiny_variant(1))
                _wait_for(
                    lambda: client.status(running["job"])["state"] == "running",
                    message="first job to occupy the worker",
                )
                queued = client.submit("figure4", _tiny_variant(2))
                assert client.status(queued["job"])["state"] == "queued"

                with pytest.raises(ServeError) as excinfo:
                    client.submit("figure4", _tiny_variant(3))
                assert excinfo.value.code == 429 and excinfo.value.kind == "rejected"

                # A queued job can still be cancelled...
                cancelled = client.cancel(queued["job"])
                assert cancelled["state"] == "cancelled"
                with pytest.raises(ServeError) as excinfo:
                    client.result(queued["job"], wait=True)
                assert excinfo.value.code == 409
                assert excinfo.value.response["state"] == "cancelled"
                # ...and cancelling it twice is a conflict.
                with pytest.raises(ServeError) as excinfo:
                    client.cancel(queued["job"])
                assert excinfo.value.code == 409

                daemon.drain()
                with pytest.raises(ServeError) as excinfo:
                    client.submit("figure4", _tiny_variant(4))
                assert excinfo.value.code == 503 and excinfo.value.kind == "draining"

                gate.set()
                done = client.result(running["job"], wait=True, timeout=60)
                assert done["state"] == "done"
                stats = client.stats()
        assert stats["rejected_queue_full"] == 1
        assert stats["rejected_draining"] == 1
        assert stats["cancelled"] == 1

    def test_admission_rejection_carries_retry_after(self):
        with serve_daemon(admission_rate=0.001, admission_burst=1.0) as daemon:
            with ServeClient(daemon.address, client="greedy") as client:
                client.submit("figure4", _tiny_variant(1))
                with pytest.raises(ServeError) as excinfo:
                    client.submit("figure4", _tiny_variant(2))
                assert excinfo.value.code == 429 and excinfo.value.kind == "rejected"
                assert excinfo.value.retry_after is not None
                assert excinfo.value.retry_after > 0
                validate_payload(excinfo.value.response, schema=RESPONSE_SCHEMA)
                # A different client has its own bucket.
                with ServeClient(daemon.address, client="patient") as other:
                    admitted = other.submit("figure4", _tiny_variant(3))
                assert admitted["state"] in ("queued", "running")
                stats = client.stats()
        assert stats["rejected_admission"] == 1

    def test_worker_crash_surfaces_on_the_wire_as_structured_500(self, monkeypatch):
        _patch_execute(monkeypatch, _crash("boom"))
        with serve_daemon(workers=1, retries=0) as daemon:
            with ServeClient(daemon.address) as client:
                submitted = client.submit("figure4", TINY)
                with pytest.raises(ServeError) as excinfo:
                    client.result(submitted["job"], wait=True, timeout=60)
        error = excinfo.value
        assert error.code == 500 and error.kind == "worker-error"
        assert "boom" in str(error)
        assert error.response["state"] == "error"
        validate_payload(error.response, schema=RESPONSE_SCHEMA)

    def test_result_conflict_and_wait_timeout(self, monkeypatch):
        gate = threading.Event()
        _gate_execute(monkeypatch, gate)
        with serve_daemon(workers=1) as daemon:
            with ServeClient(daemon.address) as client:
                submitted = client.submit("figure4", TINY)
                with pytest.raises(ServeError) as conflict:
                    client.result(submitted["job"], wait=False)
                assert conflict.value.code == 409 and conflict.value.kind == "conflict"
                with pytest.raises(ServeError) as expired:
                    client.result(submitted["job"], wait=True, timeout=0.05)
                assert expired.value.code == 408 and expired.value.kind == "wait-timeout"
                with pytest.raises(ServeError) as missing:
                    client.result("j-999999", wait=False)
                assert missing.value.code == 404
                gate.set()
                assert client.result(submitted["job"], wait=True, timeout=60)["state"] == "done"

    def test_status_and_list_report_job_rows(self):
        with serve_daemon() as daemon:
            with ServeClient(daemon.address, client="alice") as client:
                submitted = client.submit("figure4", TINY)
                client.result(submitted["job"], wait=True, timeout=60)
                status = client.status(submitted["job"])
                rows = client.list_jobs()
        assert status["state"] == "done"
        assert status["completed"] == status["total"] == 1
        assert status["client"] == "alice" and status["attempts"] == 1
        assert [row["job"] for row in rows] == [submitted["job"]]
        assert rows[0]["experiment"] == "figure4"

    def test_stats_snapshot_shape(self):
        with serve_daemon() as daemon:
            snapshot = daemon.stats_snapshot()
        # Exactly these keys: none lost, and no entry left over from a
        # removed subsystem.
        assert set(snapshot) == {
            "submitted", "coalesced", "result_cache_hits", "result_cache_misses",
            "rejected_admission", "rejected_queue_full", "rejected_draining",
            "rejected_invalid", "completed", "failed", "cancelled",
            "state", "uptime_seconds", "workers", "queue_depth", "queued",
            "jobs_by_state", "admission",
        }

    def test_stats_payload_stays_byte_compatible_after_registry_migration(self):
        """Regression for the MetricRegistry migration: the `stats` verb
        must keep rendering its counters as plain JSON integers, in the
        exact key order the pre-registry dict produced."""
        with serve_daemon(workers=1) as daemon:
            with ServeClient(daemon.address) as client:
                client.run("figure4", TINY, timeout=60)
                stats = client.stats()
        counters = {key: stats[key] for key in list(stats)[:11]}
        expected = {
            "submitted": 1, "coalesced": 0, "result_cache_hits": 0,
            "result_cache_misses": 1, "rejected_admission": 0,
            "rejected_queue_full": 0, "rejected_draining": 0,
            "rejected_invalid": 0, "completed": 1, "failed": 0, "cancelled": 0,
        }
        # json.dumps equality pins order *and* integer rendering (1, not 1.0).
        assert json.dumps(counters) == json.dumps(expected)

    def test_metrics_verb_serves_parsable_exposition(self):
        """The `metrics` verb answers with a Prometheus-style exposition
        covering the queue, worker, cache, and job-stage families."""
        from repro.obs.exposition import parse_exposition

        with serve_daemon(workers=1) as daemon:
            with ServeClient(daemon.address) as client:
                client.run("figure4", TINY, timeout=60)
                samples = parse_exposition(client.metrics())
        assert samples["repro_serve_submitted_total"] == 1.0
        assert samples["repro_serve_jobs_queued_total"] == 1.0
        assert samples["repro_serve_jobs_admitted_total"] == 1.0
        assert samples["repro_serve_jobs_running_total"] == 1.0
        assert samples["repro_serve_jobs_completed_total"] == 1.0
        assert samples["repro_serve_result_cache_misses_total"] == 1.0
        assert samples["repro_serve_workers_total"] == 1.0
        assert samples["repro_serve_workers_busy"] == 0.0
        assert samples["repro_serve_queue_depth"] == 0.0
        assert samples["repro_serve_queue_capacity"] == 64.0
        assert samples["repro_serve_uptime_seconds"] > 0.0

    def test_metrics_exposition_covers_every_registered_family(self):
        """Registry gate: after one job, every SERVE_METRIC_NAMES family
        must appear in the exposition under its sanitized sample name."""
        from repro.obs.exposition import parse_exposition, sample_name
        from repro.serve.daemon import SERVE_METRIC_NAMES

        with serve_daemon(workers=1) as daemon:
            with ServeClient(daemon.address) as client:
                client.run("figure4", TINY, timeout=60)
                samples = parse_exposition(client.metrics())
        missing = [
            name for name in SERVE_METRIC_NAMES
            if sample_name(name) not in samples
            and sample_name(name) + "_total" not in samples
        ]
        assert not missing, f"metric families missing from the exposition: {missing}"

    def test_tcp_endpoint_serves_too(self):
        daemon = ServeDaemon(port=0, workers=1)
        daemon.start()
        try:
            assert daemon.port != 0  # resolved to a real free port
            with ServeClient(daemon.address) as client:
                assert client.health()["state"] == "serving"
                response = client.run("figure4", TINY, timeout=60)
                validate_payload(response["result"])
        finally:
            daemon.shutdown()

    def test_daemon_requires_exactly_one_endpoint(self):
        with pytest.raises(ValueError):
            ServeDaemon()
        with pytest.raises(ValueError):
            ServeDaemon(socket_path="/tmp/x.sock", port=7777)


def _without_wall_time(name: str, payload: dict) -> dict:
    """``payload`` minus the columns that measure wall time (scaling's ``seconds``)."""
    if name != "scaling":
        return payload
    keep = [index for index, column in enumerate(payload["columns"]) if column != "seconds"]
    return dict(
        payload,
        columns=[payload["columns"][index] for index in keep],
        rows=[[row[index] for index in keep] for row in payload["rows"]],
    )


class TestServeEveryExperiment:
    @pytest.mark.parametrize("name", experiment_names())
    def test_served_payload_is_byte_identical_to_a_local_run(self, name):
        params = SMALL_PARAMS[name]
        experiment = get_experiment(name)
        grid = experiment.plan(params)[1]
        local = _without_wall_time(name, experiment.run(**params).to_payload())
        with serve_daemon(workers=1) as daemon:
            with ServeClient(daemon.address) as client:
                submitted = client.submit(name, params)
                response = client.result(submitted["job"], wait=True, timeout=120)
                status = client.status(submitted["job"])
        assert response["state"] == "done"
        served = _without_wall_time(name, response["result"])
        assert json.dumps(served) == json.dumps(local)
        assert status["completed"] == status["total"] == len(grid)

    def test_lp_job_reports_one_unit_per_program(self):
        with serve_daemon(workers=1) as daemon:
            with ServeClient(daemon.address) as client:
                submitted = client.submit("lp", {"n_nodes": 9}, stream=True)
                events = list(client.events())
                status = client.status(submitted["job"])
        assert status["completed"] == status["total"] == 4  # 2 topologies x 2 D
        progress = [event["completed"] for event in events if event["event"] == "progress"]
        assert progress == [1, 2, 3, 4]


class TestServeCLI:
    def test_submit_matches_one_shot_cli_bit_for_bit(self, capsys):
        """Acceptance criterion at the CLI layer: `repro submit` delivers the
        byte-identical JSON document the one-shot CLI prints."""
        from repro.cli import main

        with serve_daemon(workers=2) as daemon:
            assert main(
                ["submit", "figure4", "--smoke", "--connect", daemon.address,
                 "--format", "json"]
            ) == 0
            served = capsys.readouterr().out
        assert main(["figure4", "--smoke", "--format", "json"]) == 0
        oneshot = capsys.readouterr().out
        assert served == oneshot
        validate_payload(json.loads(served))

    def test_submit_unknown_experiment_exits_with_usage_error(self):
        from repro.cli import main

        with serve_daemon() as daemon:
            with pytest.raises(SystemExit) as excinfo:
                main(["submit", "figure42", "--connect", daemon.address])
            assert excinfo.value.code == 2

    def test_submit_reports_a_load_failure_not_an_unknown_name(
        self, capsys, monkeypatch, tmp_path
    ):
        import repro.cli

        def failing_lookup(name):
            raise KeyError("repro.serve")

        monkeypatch.setattr(repro.cli, "get_experiment", failing_lookup)
        address = str(tmp_path / "nope.sock")
        assert repro.cli.main(["submit", "figure4", "--connect", address]) == 1
        assert "cannot load experiment 'figure4': KeyError" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            repro.cli.main(["submit", "figure42", "--connect", address])
        assert excinfo.value.code == 2

    def test_submit_rejects_unknown_experiment_flags(self):
        from repro.cli import main

        with serve_daemon() as daemon:
            with pytest.raises(SystemExit) as excinfo:
                main(["submit", "figure4", "--wormholes", "9",
                      "--connect", daemon.address])
            assert excinfo.value.code == 2

    def test_submit_unreachable_daemon_is_a_usage_error(self, tmp_path):
        from repro.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["submit", "figure4", "--connect", str(tmp_path / "nope.sock")])
        assert excinfo.value.code == 2

    def test_submit_surfaces_daemon_errors_on_stderr(self, capsys, monkeypatch):
        from repro.cli import main

        _patch_execute(monkeypatch, _crash("boom"))
        with serve_daemon(workers=1, retries=0) as daemon:
            assert main(
                ["submit", "figure4", "--smoke", "--connect", daemon.address]
            ) == 1
            captured = capsys.readouterr()
        assert "worker-error" in captured.err and "500" in captured.err

    def test_serve_parser_wiring(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--socket", "/tmp/s.sock", "--workers", "3",
             "--queue-depth", "7", "--admission-rate", "2.5", "--job-retries", "0"]
        )
        assert args.socket == "/tmp/s.sock" and args.workers == 3
        assert args.queue_depth == 7 and args.admission_rate == 2.5
        with pytest.raises(SystemExit):  # --socket and --port are exclusive
            parser.parse_args(["serve", "--socket", "/tmp/s.sock", "--port", "7777"])
        with pytest.raises(SystemExit):  # one endpoint is required
            parser.parse_args(["serve"])

    def test_sigterm_drains_and_exits_zero(self):
        """Acceptance criterion: SIGTERM drains in-flight work, flushes the
        final stats snapshot, and the daemon process exits 0."""
        sock_dir = tempfile.mkdtemp(prefix="repro-serve-cli-")
        sock = os.path.join(sock_dir, "d.sock")
        stats_file = os.path.join(sock_dir, "stats.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(os.path.dirname(__file__), "..", "src"),
                          env.get("PYTHONPATH")])
        )
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", sock,
             "--workers", "1", "--stats-file", stats_file],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            _wait_for(lambda: os.path.exists(sock), timeout=30,
                      message="daemon socket to appear")
            with ServeClient(sock) as client:
                response = client.run("figure4", TINY, timeout=60)
                validate_payload(response["result"])
            process.send_signal(signal.SIGTERM)
            stdout, stderr = process.communicate(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.communicate()
            shutil.rmtree(sock_dir, ignore_errors=True)
        assert process.returncode == 0, stderr
        assert "listening on" in stdout
        assert "final stats" in stdout
        final = json.loads(stdout.split("final stats:", 1)[1])
        assert final["state"] == "stopped" and final["completed"] == 1
