#!/usr/bin/env python
"""End-to-end smoke test for service mode, run as a CI job.

Pins the whole serve contract in one subprocess session:

1. Start ``python -m repro serve`` on a Unix socket as a real subprocess.
2. Submit ``figure4 --smoke`` from two concurrent clients and check both
   results are schema-valid and **bit-identical** to a one-shot in-process
   run of the same experiment.
3. Check the second submission was answered from the shared cache — the
   daemon's ``stats`` must show exactly one real computation and at least
   one coalesced/memo-hit answer.
4. Scrape the ``metrics`` verb and check the Prometheus-style exposition
   parses and agrees with ``stats`` on the counters it mirrors.
5. Submit ``lp --nodes 9`` (an experiment with its own in-process
   ``execute``) and check the served payload is byte-identical to a
   one-shot in-process run, with one progress unit per LP program.
6. Send SIGTERM and check the daemon drains and exits 0 within a timeout.

Exit status 0 means the contract holds; any assertion failure or timeout
is a non-zero exit.  Usage::

    PYTHONPATH=src python scripts/serve_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC)

from repro.experiments import get_experiment  # noqa: E402
from repro.experiments.schema import validate_payload  # noqa: E402
from repro.obs.exposition import parse_exposition, sample_name  # noqa: E402
from repro.serve.client import ServeClient  # noqa: E402
from repro.serve.protocol import RESPONSE_SCHEMA  # noqa: E402

STARTUP_TIMEOUT = 30.0
DRAIN_TIMEOUT = 30.0
PARAMS = {"smoke": True}
LP_PARAMS = {"n_nodes": 9}


def wait_for_health(address: str) -> None:
    deadline = time.monotonic() + STARTUP_TIMEOUT
    last_error: Exception = RuntimeError("daemon never came up")
    while time.monotonic() < deadline:
        try:
            with ServeClient(address, client="smoke-probe") as client:
                health = client.health()
            assert health["state"] == "serving", health
            return
        except (OSError, AssertionError) as exc:
            last_error = exc
            time.sleep(0.1)
    raise SystemExit(f"daemon did not become healthy: {last_error}")


def main() -> int:
    sock_dir = tempfile.mkdtemp(prefix="repro-smoke-")
    socket_path = os.path.join(sock_dir, "serve.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--socket", socket_path, "--workers", "2"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        wait_for_health(socket_path)

        # The ground truth: the same experiment run in-process, one shot.
        local = get_experiment("figure4").run(**PARAMS)
        expected = json.loads(json.dumps(local.to_payload(), default=repr))

        results: list = [None, None]

        def submit(slot: int) -> None:
            with ServeClient(socket_path, client=f"smoke-{slot}") as client:
                results[slot] = client.run("figure4", PARAMS, timeout=240)

        threads = [threading.Thread(target=submit, args=(slot,)) for slot in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
            assert not thread.is_alive(), "client submission hung"

        for slot, response in enumerate(results):
            assert response is not None, f"client {slot} got no response"
            validate_payload(response, schema=RESPONSE_SCHEMA)
            validate_payload(response["result"])
            assert response["result"] == expected, (
                f"client {slot} result differs from the one-shot run"
            )

        with ServeClient(socket_path, client="smoke-stats") as client:
            stats = client.stats()
        assert stats["submitted"] == 1, stats
        assert stats["coalesced"] + stats["result_cache_hits"] >= 1, stats
        print(f"smoke ok: 1 computation answered {1 + stats['coalesced'] + stats['result_cache_hits']} submissions")

        # The metrics verb serves a parsable Prometheus-style exposition
        # that agrees with stats and covers the queue/worker families.
        with ServeClient(socket_path, client="smoke-metrics") as client:
            samples = parse_exposition(client.metrics())
        assert samples[sample_name("serve.submitted") + "_total"] == float(stats["submitted"]), samples
        assert samples[sample_name("serve.jobs.completed") + "_total"] == float(stats["completed"]), samples
        for gauge in ("serve.queue.depth", "serve.queue.capacity", "serve.workers.total", "serve.workers.busy"):
            assert sample_name(gauge) in samples, (gauge, sorted(samples))
        assert samples[sample_name("serve.uptime.seconds")] > 0.0, samples
        print(f"smoke ok: metrics exposition parsed ({len(samples)} samples)")

        # The Section 3 LP runs its own in-process execute; it is served too.
        lp_local = get_experiment("lp").run(**LP_PARAMS).to_json()
        with ServeClient(socket_path, client="smoke-lp") as client:
            response = client.run("lp", LP_PARAMS, timeout=240)
            status = client.status(response["job"])
        validate_payload(response["result"])
        lp_served = json.dumps(response["result"], indent=2, allow_nan=False)
        assert lp_served == lp_local, "served lp result differs from the one-shot run"
        assert status["completed"] == status["total"] == 4, status
        print("smoke ok: lp served byte-identical to the one-shot run (4 programs)")

        daemon.send_signal(signal.SIGTERM)
        daemon.wait(timeout=DRAIN_TIMEOUT)
        assert daemon.returncode == 0, f"daemon exited {daemon.returncode}"
        print("smoke ok: SIGTERM drained, exit 0")
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10)
        output = daemon.stdout.read() if daemon.stdout else ""
        if output:
            sys.stderr.write("--- daemon output ---\n" + output)
        import shutil

        shutil.rmtree(sock_dir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
