"""The perf subsystem: kernel differential suite, profiler, and bench.

The heart of this file is the **differential harness**: every kernel in
:data:`repro.perf.kernels.KERNEL_REGISTRY` is enumerated against every
backend available in this environment and must reproduce the pure-Python
reference bit-for-bit on Hypothesis-generated inputs.  A new kernel or a
new backend is covered automatically just by being registered.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.experiments.schema import SchemaError
from repro.network.demand import RequestSequence
from repro.network.topologies import cycle_topology
from repro.perf import kernels
from repro.perf.bench import kernel_speedups, run_bench
from repro.perf.kernels import (
    DEFAULT_BACKEND,
    KERNEL_BACKENDS,
    KERNEL_REGISTRY,
    KERNELS_ENV,
    KernelPair,
    active_backend,
    available_backends,
    get_kernel,
    kernel_names,
    numba_available,
    register_kernel,
    requested_backend,
)
from repro.perf.profiler import format_report, profile_experiment, smoke_params
from repro.perf.schemas import main as schemas_main
from repro.perf.schemas import validate_bench, validate_profile
from repro.perf.timing import median_of_k
from repro.protocols import PathObliviousProtocol
from repro.sim.rng import RandomStreams


# ---------------------------------------------------------------------- #
# Backend resolution
# ---------------------------------------------------------------------- #
class TestBackendResolution:
    def test_default_backend_is_numpy(self, monkeypatch):
        monkeypatch.delenv(KERNELS_ENV, raising=False)
        assert requested_backend() == DEFAULT_BACKEND == "numpy"
        assert active_backend() == "numpy"

    def test_explicit_backends_resolve(self, monkeypatch):
        for backend in ("python", "numpy"):
            monkeypatch.setenv(KERNELS_ENV, backend)
            assert requested_backend() == backend
            assert active_backend() == backend

    def test_unknown_backend_is_an_error(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "cuda")
        with pytest.raises(ValueError, match="cuda"):
            requested_backend()

    def test_unavailable_numba_falls_back_to_python(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV, "numba")
        if numba_available():  # pragma: no cover - numba-equipped machines
            assert active_backend() == "numba"
        else:
            assert active_backend() == "python"
            # ... and every kernel dispatches to its reference implementation
            for name in kernel_names():
                pair = get_kernel(name)
                assert pair.dispatch() is pair.reference

    def test_available_backends_always_include_the_portable_pair(self):
        backends = available_backends()
        assert "python" in backends and "numpy" in backends
        assert set(backends) <= set(KERNEL_BACKENDS)

    def test_registry_rejects_duplicate_names(self):
        pair = get_kernel(kernel_names()[0])
        with pytest.raises(ValueError, match="registered twice"):
            register_kernel(pair)

    def test_unknown_kernel_lookup_lists_the_registry(self):
        with pytest.raises(KeyError, match="serve-prefix"):
            get_kernel("no-such-kernel")

    def test_unknown_backend_dispatch_is_an_error(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_kernel("serve-prefix").implementation("fortran")


# ---------------------------------------------------------------------- #
# The differential harness: every kernel x every available backend
# ---------------------------------------------------------------------- #
@st.composite
def candidate_block_inputs(draw):
    k = draw(st.integers(min_value=0, max_value=10))
    headroom = np.asarray(
        draw(st.lists(st.integers(-3, 6), min_size=k, max_size=k)), dtype=np.int64
    )
    recipient = np.asarray(
        draw(
            st.lists(
                st.lists(st.integers(0, 5), min_size=k, max_size=k),
                min_size=k,
                max_size=k,
            )
        ),
        dtype=np.int64,
    ).reshape(k, k)
    return (headroom, recipient)


@st.composite
def serve_prefix_inputs(draw):
    n_pairs = draw(st.integers(min_value=1, max_value=6))
    n = draw(st.integers(min_value=0, max_value=80))
    codes = np.asarray(
        draw(st.lists(st.integers(0, n_pairs - 1), min_size=n, max_size=n)),
        dtype=np.int64,
    )
    budgets = np.asarray(
        draw(st.lists(st.integers(0, 12), min_size=n_pairs, max_size=n_pairs)),
        dtype=np.int64,
    )
    return (codes, budgets)


#: Input strategy per registered kernel.  Registering a kernel without an
#: entry here fails the coverage test below, so the differential harness
#: can never silently skip a kernel.
KERNEL_STRATEGIES = {
    "balancer-candidates": candidate_block_inputs(),
    "serve-prefix": serve_prefix_inputs(),
}


def _assert_identical(expected, actual, context: str) -> None:
    if isinstance(expected, tuple):
        assert isinstance(actual, tuple) and len(actual) == len(expected), context
        for want, got in zip(expected, actual):
            _assert_identical(want, got, context)
    elif isinstance(expected, np.ndarray):
        assert isinstance(actual, np.ndarray), context
        assert actual.dtype == expected.dtype, context
        assert np.array_equal(expected, actual), context
    else:
        assert type(actual) is type(expected) or isinstance(actual, (int, np.integer))
        assert expected == actual, context


class TestKernelDifferential:
    def test_every_registered_kernel_has_a_strategy(self):
        assert set(KERNEL_STRATEGIES) == set(KERNEL_REGISTRY)

    @pytest.mark.parametrize("name", sorted(KERNEL_STRATEGIES))
    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_backends_bit_identical_to_reference(self, name, data):
        inputs = data.draw(KERNEL_STRATEGIES[name])
        pair = get_kernel(name)
        expected = pair.reference(*inputs)
        for backend in available_backends():
            actual = pair.implementation(backend)(*inputs)
            _assert_identical(expected, actual, f"{name} diverges on backend {backend}")

    @pytest.mark.parametrize("name", sorted(KERNEL_STRATEGIES))
    def test_dispatch_follows_the_environment(self, name, monkeypatch):
        pair = get_kernel(name)
        monkeypatch.setenv(KERNELS_ENV, "python")
        assert pair.dispatch() is pair.reference
        monkeypatch.setenv(KERNELS_ENV, "numpy")
        assert pair.dispatch() is pair.numpy_impl


# ---------------------------------------------------------------------- #
# Integration sites stay backend-independent
# ---------------------------------------------------------------------- #
def _run_protocol(seed: int = 7):
    topology = cycle_topology(8)
    requests = RequestSequence.round_robin([(0, 4), (1, 5), (2, 6)], 12)
    streams = RandomStreams(seed)
    protocol = PathObliviousProtocol(
        topology, requests, overheads=2.0, streams=streams, balancer_engine="incremental"
    )
    result = protocol.run()
    return protocol, result, streams


def _result_fingerprint(result):
    return (
        result.rounds,
        result.requests_satisfied,
        result.pairs_generated,
        result.pairs_consumed,
        result.swaps_performed,
        result.pairs_remaining,
        tuple(
            (request.index, request.pair, request.issued_round, request.satisfied_round)
            for request in result.satisfied_requests
        ),
    )


class TestProtocolBackendIndependence:
    def test_runs_identical_across_backends(self, monkeypatch):
        fingerprints = {}
        states = {}
        for backend in available_backends():
            monkeypatch.setenv(KERNELS_ENV, backend)
            _, result, streams = _run_protocol()
            fingerprints[backend] = _result_fingerprint(result)
            states[backend] = {
                name: json.dumps(stream.bit_generator.state, sort_keys=True, default=int)
                for name, stream in streams._streams.items()
            }
        reference_fingerprint = fingerprints.pop("python")
        reference_states = states.pop("python")
        for backend, fingerprint in fingerprints.items():
            assert fingerprint == reference_fingerprint, backend
        # Identical end states of every named RNG stream: the accelerated
        # paths consumed exactly the same random draws as the reference.
        for backend, stream_states in states.items():
            assert stream_states == reference_states, backend

    def test_fast_path_matches_the_base_loop(self):
        protocol, fast_result, _ = _run_protocol()
        assert protocol._prefix_fast_path  # the plain workload qualifies

        topology = cycle_topology(8)
        requests = RequestSequence.round_robin([(0, 4), (1, 5), (2, 6)], 12)
        slow = PathObliviousProtocol(
            topology,
            requests,
            overheads=2.0,
            streams=RandomStreams(7),
            balancer_engine="incremental",
        )
        slow._prefix_fast_path = False
        slow_result = slow.run()
        assert _result_fingerprint(slow_result) == _result_fingerprint(fast_result)

    def test_fast_path_disabled_for_capped_hybrid_or_scenario_runs(self):
        topology = cycle_topology(8)

        def build(**kwargs):
            return PathObliviousProtocol(
                topology,
                RequestSequence.round_robin([(0, 4)], 4),
                streams=RandomStreams(1),
                **kwargs,
            )

        assert build()._prefix_fast_path
        assert not build(consumptions_per_round=2)._prefix_fast_path
        assert not build(use_hybrid_fallback=True)._prefix_fast_path


# ---------------------------------------------------------------------- #
# Timing helper
# ---------------------------------------------------------------------- #
class TestMedianOfK:
    def test_median_is_robust_to_one_outlier(self):
        calls = iter([0.0] * 10)

        def call():
            next(calls)

        assert median_of_k(call, repeats=3, warmup=2) >= 0.0
        with pytest.raises(StopIteration):
            median_of_k(call, repeats=5, warmup=2)  # consumed warmup + timed calls

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            median_of_k(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            median_of_k(lambda: None, warmup=-1)


# ---------------------------------------------------------------------- #
# Profiler
# ---------------------------------------------------------------------- #
class TestProfiler:
    def test_smoke_profile_of_figure4_is_schema_valid(self):
        report = profile_experiment("figure4", smoke=True, top=10)
        validate_profile(report)  # returning implies valid; re-check explicitly
        assert report["experiment"] == "figure4"
        assert report["smoke"] is True
        assert 0 < len(report["hotspots"]) <= 10
        assert report["total_calls"] > 0
        modules = {entry["module"] for entry in report["modules"]}
        assert any(module.startswith("repro.") for module in modules)
        text = format_report(report, top=5)
        assert "figure4" in text and "cumtime" in text

    def test_smoke_params_shrink_only_declared_parameters(self):
        from repro.experiments.registry import get_experiment

        params = smoke_params(get_experiment("figure4"))
        declared = {spec.name for spec in get_experiment("figure4").params}
        assert params and set(params) <= declared

    def test_rejects_nonpositive_top(self):
        with pytest.raises(ValueError, match="top"):
            profile_experiment("figure4", smoke=True, top=0)


# ---------------------------------------------------------------------- #
# Bench trajectory
# ---------------------------------------------------------------------- #
class TestBench:
    def test_quick_trajectory_is_schema_valid_and_fast_kernels_win(self):
        payload = run_bench(repeats=2, warmup=1, quick=True)
        validate_bench(payload)
        assert payload["kind"] == "bench" and payload["issue"] == 10
        names = {entry["name"] for entry in payload["benchmarks"]}
        assert {f"kernel.{name}" for name in kernel_names()} <= names
        assert "serve.roundtrip" in names
        speedups = kernel_speedups(payload)
        assert set(speedups) == set(kernel_names())
        # The acceptance criterion: >= 3x on at least two hotspot kernels
        # (quick sizes are smaller than the checked-in trajectory's, so the
        # bar is the criterion, not the full margin).
        assert sum(speedup >= 3.0 for speedup in speedups.values()) >= 2

    def test_schema_rejects_a_broken_payload(self):
        payload = run_bench(repeats=1, warmup=0, quick=True)
        del payload["git_rev"]
        with pytest.raises(SchemaError):
            validate_bench(payload)


# ---------------------------------------------------------------------- #
# CLI surface and the standalone validator
# ---------------------------------------------------------------------- #
class TestPerfCli:
    def test_profile_subcommand_writes_valid_json(self, tmp_path, capsys):
        target = tmp_path / "profile.json"
        assert cli_main(["profile", "figure4", "--smoke", "--top", "5", "--output", str(target)]) == 0
        payload = json.loads(target.read_text())
        validate_profile(payload)
        assert "profile of experiment 'figure4'" in capsys.readouterr().out

    def test_profile_rejects_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["profile", "does-not-exist"])
        assert "unknown experiment" in capsys.readouterr().err

    def test_bench_subcommand_round_trips_through_the_validator(self, tmp_path, capsys):
        target = tmp_path / "bench.json"
        assert (
            cli_main(
                ["bench", "--quick", "--repeats", "1", "--warmup", "0",
                 "--output", str(target), "--format", "json"]
            )
            == 0
        )
        assert json.loads(capsys.readouterr().out.split("\n", 1)[1])["kind"] == "bench"
        assert schemas_main([str(target), "--kind", "bench"]) == 0
        assert schemas_main([str(target)]) == 0  # kind auto-detected

    def test_output_refuses_to_overwrite_without_force(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        target.write_text("{}")
        with pytest.raises(SystemExit):
            cli_main(["profile", "figure4", "--smoke", "--output", str(target)])
        assert "--force" in capsys.readouterr().err

    def test_validator_flags_corrupt_documents(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "bench"}))
        assert schemas_main([str(bad)]) == 1
        assert "schema violation" in capsys.readouterr().err
        not_json = tmp_path / "not.json"
        not_json.write_text("{nope")
        assert schemas_main([str(not_json), "--kind", "profile"]) == 1
        assert schemas_main([]) == 2
        assert schemas_main([str(bad), "--kind", "nonsense"]) == 2
