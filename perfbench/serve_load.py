"""The ``serve-mixed`` workload: an open-loop generator against ``repro serve``.

The daemon runs in its own subprocess with default settings on a Unix
socket under ``.perfbench_run/`` in the checkout.  Set-up is timed from
spawn to the first ``health`` reply three times (a daemon before the load
and one after it are stopped again at once) and reported as the median.  The generator then sends the seeded schedule
of :func:`workloads.serve_schedule` over two connections: one streams
``submit`` requests at their scheduled times and receives the ``end``
events; the other (a ``ServeClient``) fetches each result once its job has
ended, validates it and compares its digest with the one-shot reference.
Latency runs from a submission's scheduled send time to its validated
result, so a stall also delays every submission due behind it.
"""

from __future__ import annotations

import json
import os
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Optional

from workloads import load_references, payload_digest, serve_schedule, tail_percentile

#: Daemon spawns timed for set-up before and after the load; the daemon
#: that serves the load is one more sample.
SETUP_SPAWNS_BEFORE = 1
SETUP_SPAWNS_AFTER = 1
HEALTH_TIMEOUT = 60.0
STOP_TIMEOUT = 30.0
DRAIN_TIMEOUT = 60.0
CLIENT = "perfbench-gen"


class Daemon:
    """One ``python -m repro serve`` subprocess and its socket."""

    def __init__(self, root: Path, env: Dict[str, str], index: int):
        run_dir = root / ".perfbench_run"
        run_dir.mkdir(exist_ok=True)
        name = f"serve-{os.getpid()}-{index}"
        # Relative to the checkout (the daemon's and this process's cwd), so
        # the path stays short enough for a Unix socket wherever it lives.
        self.address = f".perfbench_run/{name}.sock"
        self.socket_path = run_dir / f"{name}.sock"
        self.log_path = run_dir / f"{name}.log"
        self._log = open(self.log_path, "w", encoding="utf-8")
        started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.address],
            cwd=root,
            env=env,
            stdout=self._log,
            stderr=subprocess.STDOUT,
        )
        self.setup_s = self._wait_healthy(started)

    def _wait_healthy(self, started: float) -> float:
        from repro.serve.client import ServeClient

        while time.perf_counter() - started < HEALTH_TIMEOUT:
            if self.process.poll() is not None:
                raise RuntimeError(f"serve daemon exited {self.process.returncode}; see {self.log_path}")
            try:
                with ServeClient(self.address, client="perfbench-probe", timeout=5.0) as client:
                    if client.health()["state"] == "serving":
                        return time.perf_counter() - started
            except OSError:
                pass
            time.sleep(0.005)
        raise RuntimeError(f"serve daemon not healthy after {HEALTH_TIMEOUT:g}s; see {self.log_path}")

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (``VmHWM``) in MiB."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then kill if it hangs; always reaped."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                try:
                    self.process.wait(timeout=STOP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=STOP_TIMEOUT)
        finally:
            self._log.close()
            # The log is kept only when the daemon did not drain cleanly.
            leftovers = [self.socket_path]
            if self.process.returncode == 0:
                leftovers.append(self.log_path)
            for path in leftovers:
                try:
                    path.unlink()
                except FileNotFoundError:
                    pass


def _setup_sample(root: Path, env: Dict[str, str], index: int) -> float:
    daemon = Daemon(root, env, index)
    daemon.stop()
    return daemon.setup_s


class StreamingSubmitter:
    """The generator's first connection: streamed ``submit`` and its events.

    A reader thread matches each submit response to its submission and
    each ``end`` event to every submission waiting on that job (repeats
    coalesce onto one job), then hands finished submissions to
    ``finished``.
    """

    def __init__(self, address: str, finished: "queue.Queue[int]"):
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.connect(address)
        self._reader = self._sock.makefile("r", encoding="utf-8", newline="\n")
        self._finished = finished
        self._lock = threading.Lock()
        self._waiting: Dict[str, List[int]] = {}
        self._ended: Dict[str, str] = {}
        self.acked_at: Dict[int, float] = {}
        self.job_of: Dict[int, str] = {}
        self.errors: Dict[int, Any] = {}
        self._thread = threading.Thread(target=self._read, daemon=True)
        self._thread.start()

    def submit(self, index: int, experiment: str, params: Dict[str, Any]) -> None:
        message = {
            "op": "submit",
            "id": f"s-{index}",
            "client": CLIENT,
            "experiment": experiment,
            "params": params,
            "stream": True,
        }
        self._sock.sendall((json.dumps(message) + "\n").encode("utf-8"))

    def job_state(self, job: str) -> Optional[str]:
        with self._lock:
            return self._ended.get(job)

    def _read(self) -> None:
        for line in self._reader:
            now = time.perf_counter()
            message = json.loads(line)
            if "event" in message:
                if message["event"] == "end":
                    with self._lock:
                        self._ended[message["job"]] = message["state"]
                        ready = self._waiting.pop(message["job"], [])
                    for index in ready:
                        self._finished.put(index)
                continue
            request_id = str(message.get("id", ""))
            if not request_id.startswith("s-"):
                continue
            index = int(request_id[2:])
            if not message.get("ok"):
                self.errors[index] = message.get("error")
                self._finished.put(index)
                continue
            job = message["job"]
            self.acked_at[index] = now
            self.job_of[index] = job
            with self._lock:
                done = job in self._ended
                if not done:
                    self._waiting.setdefault(job, []).append(index)
            if done:
                self._finished.put(index)

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._thread.join(timeout=STOP_TIMEOUT)
        self._reader.close()
        self._sock.close()


def run_serve(root: Path, env: Dict[str, str], seed: int, seconds: float) -> Dict[str, Any]:
    """Drive one daemon through the seeded schedule; return samples and checks."""
    sys.path.insert(0, str(root / "src"))
    from repro.experiments.schema import validate_payload
    from repro.serve.client import ServeClient, ServeError

    references = load_references().get("serve", {})
    schedule = serve_schedule(seed, seconds)
    setup = [_setup_sample(root, env, index) for index in range(SETUP_SPAWNS_BEFORE)]
    daemon = Daemon(root, env, SETUP_SPAWNS_BEFORE)
    setup.append(daemon.setup_s)

    finished: "queue.Queue[int]" = queue.Queue()
    latency: Dict[int, float] = {}
    done_at: Dict[int, float] = {}
    failures: Dict[int, str] = {}
    sent_at: Dict[int, float] = {}
    lag: List[float] = []
    submitter = collector = None
    try:
        submitter = StreamingSubmitter(daemon.address, finished)
        collector = ServeClient(daemon.address, client="perfbench-collect", timeout=DRAIN_TIMEOUT)
        start = time.perf_counter() + 0.05

        def collect() -> None:
            while True:
                index = finished.get()
                if index < 0:
                    return
                if index in submitter.errors:
                    failures[index] = f"submit rejected: {submitter.errors[index]}"
                    continue
                job = submitter.job_of[index]
                state = submitter.job_state(job)
                if state != "done":
                    failures[index] = f"job {job} ended {state}"
                    continue
                try:
                    payload = collector.result(job, wait=False)["result"]
                    validate_payload(payload)
                except (ServeError, ValueError, KeyError, OSError) as exc:
                    failures[index] = f"result of {job}: {exc}"
                    continue
                now = time.perf_counter()
                key = schedule[index][1]
                if references and payload_digest(payload) != references.get(key):
                    failures[index] = f"{key}: digest differs from the one-shot reference"
                    continue
                done_at[index] = now
                latency[index] = now - (start + schedule[index][0])

        collector_thread = threading.Thread(target=collect, daemon=True)
        collector_thread.start()
        for index, (offset, _key, experiment, params) in enumerate(schedule):
            due = start + offset
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent_at[index] = time.perf_counter()
            lag.append(max(0.0, sent_at[index] - due))
            submitter.submit(index, experiment, params)
        deadline = time.perf_counter() + DRAIN_TIMEOUT
        while len(latency) + len(failures) < len(schedule) and time.perf_counter() < deadline:
            time.sleep(0.01)
        finished.put(-1)
        collector_thread.join(timeout=STOP_TIMEOUT)
        for index in range(len(schedule)):
            if index not in latency and index not in failures:
                failures[index] = "timed out"
        stats = collector.stats()
        peak_rss_mb = daemon.peak_rss_mb()
    finally:
        if collector is not None:
            collector.close()
        if submitter is not None:
            submitter.close()
        daemon.stop()
    setup += [
        _setup_sample(root, env, SETUP_SPAWNS_BEFORE + 1 + index)
        for index in range(SETUP_SPAWNS_AFTER)
    ]

    distinct = {key for _offset, key, _experiment, _params in schedule}
    checks = []
    if stats["submitted"] != len(distinct):
        checks.append(f"daemon computed {stats['submitted']} jobs, expected {len(distinct)}")
    if stats["coalesced"] + stats["result_cache_hits"] != len(schedule) - len(distinct):
        checks.append("coalesced + memo hits differ from the number of repeats")
    if not references:
        checks.append("no serve references recorded")

    ok = sorted(latency)
    if not ok:
        raise RuntimeError(f"no submission succeeded: {sorted(set(failures.values()))[:3]}")
    samples_ms = [latency[index] * 1000.0 for index in ok]
    tail_ms, tail_pct = tail_percentile(samples_ms)
    wall = max(done_at.values()) - start
    acked = [index for index in ok if index in submitter.acked_at]
    return {
        "attempted": len(schedule),
        "failed": len(failures),
        "failures": sorted(set(failures.values()))[:5],
        "checks": checks,
        "end_to_end": {
            "wall_s": wall,
            "setup_s": median(setup),
            "peak_rss_mb": peak_rss_mb,
        },
        "per_layer": {
            "latency_p50_ms": median(samples_ms),
            "latency_tail_ms": tail_ms,
            "serve.submit_ms": median(
                (submitter.acked_at[i] - sent_at[i]) * 1000.0 for i in acked
            ) if acked else 0.0,
            "serve.result_wait_ms": median(
                (done_at[i] - submitter.acked_at[i]) * 1000.0 for i in acked
            ) if acked else 0.0,
            "serve.coalesced_share": (stats["coalesced"] + stats["result_cache_hits"])
            / max(1, len(schedule)),
            "serve.rejected": sum(
                stats[key] for key in stats if key.startswith("rejected_")
            ),
            "serve.jobs_retained": sum(stats["jobs_by_state"].values()),
            "bench.generator_lag_ms": max(lag) * 1000.0 if lag else 0.0,
        },
        "info": {
            "setup_samples_s": setup,
            "latency_p50_ms": median(samples_ms),
            "latency_tail_ms": tail_ms,
            "samples": len(samples_ms),
            "tail_percentile": tail_pct,
            "distinct_jobs": len(distinct),
            "rate_per_s": len(schedule) / max(seconds, 1e-9),
        },
    }
