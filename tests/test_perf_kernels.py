"""The perf subsystem: the serve-prefix scan, the profiler and its validator.

The scan is checked against the per-request loop in
``tests/serve_prefix_oracle.py``: on Hypothesis-generated inputs, and on
deterministic inputs longer than one 4096-code block, where running counts
carry across blocks and the first failure can sit on a block boundary.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.network.demand import RequestSequence
from repro.network.topologies import cycle_topology
from repro.perf.kernels import active_backend, servable_prefix
from repro.perf.profiler import format_report, profile_experiment, smoke_params
from repro.perf.schemas import main as schemas_main
from repro.perf.schemas import validate_profile
from repro.perf.timing import median_of_k
from repro.protocols import PathObliviousProtocol
from repro.sim.rng import RandomStreams
from serve_prefix_oracle import serve_prefix_oracle


# ---------------------------------------------------------------------- #
# The serve-prefix scan against its oracle
# ---------------------------------------------------------------------- #
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


def _random_codes(n: int, n_pairs: int = 6, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, n_pairs, n).astype(np.int64)


def _budgets_failing_at(codes: np.ndarray, position: int, n_pairs: int = 6) -> np.ndarray:
    """Budgets that fund every request except the one at ``position``."""
    budgets = np.bincount(codes, minlength=n_pairs).astype(np.int64)
    pair = codes[position]
    budgets[pair] = int(np.count_nonzero(codes[:position] == pair))
    return budgets


def _assert_prefix(codes: np.ndarray, budgets: np.ndarray, expected: int) -> None:
    assert serve_prefix_oracle(codes, budgets) == expected
    assert servable_prefix(codes, budgets) == expected


class TestServePrefix:
    def test_backend_name_is_numpy(self):
        assert active_backend() == "numpy"

    @settings(deadline=None, max_examples=60)
    @given(inputs=serve_prefix_inputs())
    def test_matches_oracle_on_random_inputs(self, inputs):
        codes, budgets = inputs
        assert servable_prefix(codes, budgets) == serve_prefix_oracle(codes, budgets)

    @pytest.mark.parametrize("n", [4095, 4096, 4097, 10_000])
    def test_fully_funded_stream_is_served_whole(self, n):
        codes = _random_codes(n)
        _assert_prefix(codes, np.bincount(codes, minlength=6).astype(np.int64), n)

    @pytest.mark.parametrize(
        "n, position",
        [
            (4095, 4094),  # last code of a stream one short of a block
            (4096, 4095),  # last code of the first block
            (4097, 4096),  # first code of the second block
            (10_000, 8192),  # first code of the third block
            (10_000, 4097),  # inside the second block
            (10_000, 5000),
            (10_000, 8191),  # last code of the second block
            (10_000, 9_999),  # last code of a partial third block
        ],
    )
    def test_fails_at_the_first_unfunded_request(self, n, position):
        codes = _random_codes(n, seed=position)
        _assert_prefix(codes, _budgets_failing_at(codes, position), position)

    def test_budget_spent_in_block_one_fails_at_its_next_hit_in_block_two(self):
        codes = _random_codes(10_000)
        # Pair 6 is served three times in block one, which spends its whole
        # budget, and asked again only in block two.
        codes[[10, 2000, 4000, 6000]] = 6
        budgets = np.append(np.bincount(codes[codes != 6], minlength=6), 3)
        _assert_prefix(codes, budgets, 6000)

    def test_budget_exhausted_from_the_start_fails_at_its_first_hit(self):
        codes = _random_codes(10_000)
        codes[8191] = 6
        budgets = np.append(np.bincount(codes[codes != 6], minlength=6), 0)
        _assert_prefix(codes, budgets, 8191)

    def test_earliest_of_several_failures_in_one_block_wins(self):
        codes = _random_codes(10_000)
        codes[[9000, 8500]] = [6, 7]
        budgets = np.append(np.bincount(codes[codes < 6], minlength=6), [0, 0])
        _assert_prefix(codes, budgets, 8500)


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
    """Results do not depend on whether the serve-prefix scan or the
    per-request loop sizes a round's consumption burst."""

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
# CLI surface and the standalone validator
# ---------------------------------------------------------------------- #
class TestPerfCli:
    def test_profile_subcommand_writes_valid_json(self, tmp_path, capsys):
        target = tmp_path / "profile.json"
        assert cli_main(["profile", "figure4", "--smoke", "--top", "5", "--output", str(target)]) == 0
        payload = json.loads(target.read_text())
        validate_profile(payload)
        assert "profile of experiment 'figure4'" in capsys.readouterr().out
        assert schemas_main([str(target)]) == 0

    def test_profile_rejects_unknown_experiment(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["profile", "does-not-exist"])
        assert "unknown experiment" in capsys.readouterr().err

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
        assert schemas_main([str(not_json)]) == 1
        assert schemas_main([]) == 2
        assert schemas_main([str(bad), str(not_json)]) == 2
