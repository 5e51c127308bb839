"""Tests for the traffic-workload subsystem (repro.workloads)."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    build_topology,
    build_workload_requests,
    run_trial,
)
from repro.experiments.registry import get_experiment
from repro.experiments.traffic import TrafficExperiment
from repro.network.demand import RequestSequence, select_consumer_pairs
from repro.network.topologies import topology_from_name
from repro.runtime.seeding import RandomStreams
from repro.workloads import (
    CLASS_MIXES,
    TRAFFIC_CLASSES,
    AdmissionController,
    TimedRequest,
    TimedRequestSequence,
    TrafficClass,
    build_workload,
    counts_to_rounds,
    diurnal_rates,
    is_timed_workload,
    mmpp_rates,
    modulated_poisson_counts,
    pareto_batch_sizes,
    group_slo_summary,
    parse_workload_spec,
    poisson_counts,
    slo_summary,
    validate_workload_spec,
)
from repro.workloads.registry import reads_trace_file
from repro.workloads.slo import quantile

from arrivals_oracle import (
    modulated_poisson_counts_scalar,
    pareto_batch_sizes_scalar,
    poisson_counts_scalar,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------- #
# Spec mini-language / registry
# ---------------------------------------------------------------------- #
class TestWorkloadSpecs:
    def test_bare_name_normalises(self):
        assert validate_workload_spec("poisson") == "poisson"
        assert validate_workload_spec(" sequence ") == "sequence"

    def test_params_normalise_sorted(self):
        spec = validate_workload_spec("poisson:rate=2,admission_rate=1.5")
        assert spec == "poisson:admission_rate=1.5,rate=2"

    def test_string_params_stay_strings(self):
        name, params = parse_workload_spec("bursty:queue=priority,mix=premium-heavy")
        assert name == "bursty"
        assert params == {"queue": "priority", "mix": "premium-heavy"}

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "unknown-workload",
            "poisson:bogus=1",
            "poisson:rate",
            "poisson:rate=fast",
            "poisson:rate=1,rate=2",
            "poisson:queue=lifo",
            "poisson:mix=nope",
            "replay",  # needs file=
            "sequence:rate=1",  # sequence takes no params
        ],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            validate_workload_spec(bad)

    def test_is_timed_workload(self):
        assert not is_timed_workload("sequence")
        assert is_timed_workload("poisson:rate=1")

    def test_only_replay_reads_a_trace_file(self):
        assert reads_trace_file("replay:file=trace.jsonl")
        assert not reads_trace_file("sequence")
        assert not reads_trace_file("poisson:rate=1")

    def test_config_rejects_bad_workload_spec(self):
        with pytest.raises(ValueError):
            ExperimentConfig(workload="poisson:bogus=1")

    def test_config_identity_separates_workload_specs(self):
        """Regression: two workload specs never make equal configs, so the
        sweep's dedupe (a dict keyed on the config) never merges them."""
        base = ExperimentConfig(topology="cycle", n_nodes=9, seed=1)
        poisson = base.with_(workload="poisson:rate=2")
        bursty = base.with_(workload="poisson:rate=3")
        assert len({base, poisson, bursty}) == 3
        assert poisson == base.with_(workload="poisson:rate=2")
        assert hash(poisson) == hash(base.with_(workload="poisson:rate=2"))


# ---------------------------------------------------------------------- #
# Arrival samplers
# ---------------------------------------------------------------------- #
class TestArrivalSampling:
    def test_poisson_vectorized_matches_scalar_bitwise(self):
        assert np.array_equal(
            poisson_counts(2.0, 500, _rng(7)), poisson_counts_scalar(2.0, 500, _rng(7))
        )

    def test_modulated_vectorized_matches_scalar_bitwise(self):
        rates = diurnal_rates(2.0, 300, period=50, amplitude=0.8)
        assert np.array_equal(
            modulated_poisson_counts(rates, _rng(3)),
            modulated_poisson_counts_scalar(rates, _rng(3)),
        )

    def test_pareto_vectorized_matches_scalar_bitwise(self):
        assert np.array_equal(
            pareto_batch_sizes(1.2, 200, _rng(5), cap=8),
            pareto_batch_sizes_scalar(1.2, 200, _rng(5), cap=8),
        )

    def test_diurnal_rates_oscillate_and_stay_non_negative(self):
        rates = diurnal_rates(2.0, 200, period=40, amplitude=1.5)
        assert rates.min() == 0.0  # amplitude > 1 clips at zero
        assert rates.max() > 2.0
        assert rates[0] == pytest.approx(2.0)

    def test_mmpp_rates_alternate_between_levels(self):
        rates = mmpp_rates(0.5, 6.0, 2000, _rng(1), mean_calm=20, mean_burst=5)
        assert set(np.unique(rates)) == {0.5, 6.0}
        assert 0 < np.count_nonzero(rates == 6.0) < 2000

    def test_counts_to_rounds_flattens_and_batches(self):
        rounds = counts_to_rounds(np.array([2, 0, 1]))
        assert rounds.tolist() == [0, 0, 2]
        batched = counts_to_rounds(np.array([1, 1]), batch_sizes=np.array([3, 2]))
        assert batched.tolist() == [0, 0, 0, 1, 1]

    def test_pareto_sizes_bounded(self):
        sizes = pareto_batch_sizes(1.1, 500, _rng(2), cap=4)
        assert sizes.min() >= 1
        assert sizes.max() <= 4

    @pytest.mark.parametrize(
        "call",
        [
            lambda: poisson_counts(0.0, 10, _rng()),
            lambda: poisson_counts(1.0, 0, _rng()),
            lambda: mmpp_rates(2.0, 1.0, 10, _rng()),
            lambda: pareto_batch_sizes(0.0, 10, _rng()),
            lambda: diurnal_rates(1.0, 10, period=0),
        ],
    )
    def test_invalid_sampler_arguments(self, call):
        with pytest.raises(ValueError):
            call()


# ---------------------------------------------------------------------- #
# Admission control
# ---------------------------------------------------------------------- #
class TestAdmissionControl:
    def test_burst_then_refill(self):
        admission = AdmissionController(rate=1.0, burst=2.0)
        assert admission.admit((0, 1), 0.0)
        assert admission.admit((0, 1), 0.0)
        assert not admission.admit((0, 1), 0.0)  # bucket drained
        assert admission.admit((0, 1), 1.0)  # one round refills one token
        assert admission.admitted_count == 3
        assert admission.rejected_count == 1

    def test_rejection_charges_neither_endpoint(self):
        admission = AdmissionController(rate=0.5, burst=1.0)
        assert admission.admit((0, 1), 0.0)  # drains 0 and 1
        assert not admission.admit((1, 2), 0.0)  # 1 is empty -> reject
        assert admission.admit((2, 3), 0.0)  # 2 must be untouched by the rejection

    def test_independent_nodes_do_not_interfere(self):
        admission = AdmissionController(rate=0.1, burst=1.0)
        assert admission.admit((0, 1), 0.0)
        assert admission.admit((2, 3), 0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(rate=0.0, burst=2.0)
        with pytest.raises(ValueError):
            AdmissionController(rate=1.0, burst=0.5)


# ---------------------------------------------------------------------- #
# Timed queueing
# ---------------------------------------------------------------------- #
def _timed(index, pair, arrival, class_name="bulk"):
    return TimedRequest(
        index=index,
        pair=pair,
        arrival_round=arrival,
        traffic_class=TRAFFIC_CLASSES[class_name],
    )


class TestTimedRequestSequence:
    def test_requests_invisible_before_arrival(self):
        sequence = TimedRequestSequence([_timed(0, (0, 1), 3)])
        assert sequence.head() is None
        assert not sequence.all_satisfied  # an arrival is still pending
        sequence.release_until(2.0)
        assert sequence.head() is None
        sequence.release_until(3.0)
        assert sequence.head() is not None

    def test_fifo_orders_by_arrival(self):
        sequence = TimedRequestSequence(
            [_timed(0, (0, 1), 5), _timed(1, (1, 2), 2)], policy="fifo"
        )
        sequence.release_until(5.0)
        assert sequence.head().index == 1
        sequence.mark_head_satisfied(5)
        assert sequence.head().index == 0

    def test_priority_policy_serves_premium_first(self):
        sequence = TimedRequestSequence(
            [_timed(0, (0, 1), 0, "bulk"), _timed(1, (1, 2), 0, "premium")],
            policy="priority",
        )
        sequence.release_until(0.0)
        assert sequence.head().traffic_class.name == "premium"

    def test_deadline_policy_orders_and_drops(self):
        premium = _timed(0, (0, 1), 0, "premium")  # deadline 20
        standard = _timed(1, (1, 2), 0, "standard")  # deadline 60
        bulk = _timed(2, (2, 3), 0, "bulk")  # no deadline -> last
        sequence = TimedRequestSequence([bulk, standard, premium], policy="deadline")
        sequence.release_until(0.0)
        assert sequence.head() is premium
        # At the exact deadline round, on-time service (latency == deadline)
        # is still possible: no drop yet.
        sequence.release_until(20.0)
        assert not premium.dropped
        assert sequence.head() is premium
        # Strictly past the premium deadline: dropped, not served late.
        sequence.release_until(21.0)
        assert premium.dropped
        assert sequence.head() is standard
        # Past every deadline: only the deadline-free bulk request remains.
        sequence.release_until(61.0)
        assert standard.dropped
        assert sequence.head() is bulk
        assert [request.index for request in sequence.dropped_requests()] == [0, 1]
        assert sequence.released_count == 3
        assert not sequence.all_satisfied
        sequence.mark_head_satisfied(62)
        assert sequence.all_satisfied
        assert premium.missed_deadline  # dropped counts as an SLO miss

    def test_admission_rejections_leave_the_queue(self):
        admission = AdmissionController(rate=0.5, burst=1.0)
        sequence = TimedRequestSequence(
            [_timed(0, (0, 1), 0), _timed(1, (0, 1), 0)], admission=admission
        )
        sequence.release_until(0.0)
        assert sequence.head().index == 0
        rejected = sequence.rejected_requests()
        assert [request.index for request in rejected] == [1]
        assert sequence.pending_count == 1
        sequence.mark_head_satisfied(1)
        assert sequence.all_satisfied  # the rejected request never blocks

    def test_all_satisfied_semantics(self):
        sequence = TimedRequestSequence([_timed(0, (0, 1), 0)])
        assert not sequence.all_satisfied
        sequence.release_until(0.0)
        assert not sequence.all_satisfied
        sequence.mark_head_satisfied(1)
        assert sequence.all_satisfied
        with pytest.raises(IndexError):
            sequence.mark_head_satisfied(2)

    def test_counts_and_latency(self):
        sequence = TimedRequestSequence([_timed(0, (0, 1), 2)])
        sequence.release_until(2.0)
        sequence.note_head_issued(2)
        request = sequence.mark_head_satisfied(7)
        assert sequence.satisfied_count == 1
        assert request.latency_rounds == 5
        assert not request.missed_deadline  # bulk has no deadline

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            TimedRequestSequence([], policy="lifo")

    def test_remap_pending_skips_satisfied(self):
        sequence = TimedRequestSequence(
            [_timed(0, (0, 1), 0), _timed(1, (1, 2), 0), _timed(2, (2, 3), 9)]
        )
        sequence.release_until(0.0)
        sequence.mark_head_satisfied(0)
        remapped = sequence.remap_pending(lambda request: (5, 6))
        assert remapped == 2  # the queued survivor and the future arrival
        assert sequence.requests()[0].pair == (0, 1)  # history untouched

# ---------------------------------------------------------------------- #
# SLO metrics
# ---------------------------------------------------------------------- #
class TestQuantile:
    def test_interpolates_between_order_statistics(self):
        assert quantile(range(11), 0.0) == 0.0
        assert quantile(range(11), 0.5) == 5.0
        assert quantile(range(11), 1.0) == 10.0
        assert quantile([1, 2], 0.25) == 1.25

    def test_blends_as_low_times_one_minus_w_plus_high_times_w(self):
        # The payloads pin this exact arithmetic: numpy.quantile's
        # low + w * (high - low) gives 35.45 here.
        assert quantile([1, 4, 9, 16, 25, 36], 0.99) == 35.449999999999996

    def test_single_sample_is_a_float(self):
        value = quantile([7], 0.95)
        assert value == 7.0 and isinstance(value, float)

    def test_empty_samples_are_nan(self):
        assert math.isnan(quantile([], 0.5))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    def test_negative_q_rejected(self):
        with pytest.raises(ValueError):
            quantile([1.0], -0.1)

    def test_sorts_the_samples_first(self):
        assert quantile([9, 1, 5, 3, 7], 0.25) == 3.0
        assert quantile([9, 1, 5, 3, 7], 1.0) == 9.0

    def test_takes_any_iterable(self):
        assert quantile((value for value in (4, 2, 8)), 0.5) == 4.0


class TestSloSummary:
    def test_per_class_rows_and_total(self):
        served = _timed(0, (0, 1), 0, "premium")
        served.admitted = True
        served.satisfied_round = 30  # 10 rounds past the premium deadline of 20
        rejected = _timed(1, (0, 1), 1, "premium")
        rejected.admitted = False
        pending = _timed(2, (1, 2), 2, "bulk")
        pending.admitted = True
        summary = slo_summary([served, rejected, pending])
        assert set(summary) == {"premium", "bulk", "total"}
        premium = summary["premium"]
        assert premium.arrivals == 2
        assert premium.admitted == 1
        assert premium.rejected == 1
        assert premium.satisfied == 1
        assert premium.p50_latency == pytest.approx(30.0)
        assert premium.deadline_misses == 1
        assert premium.rejection_rate == pytest.approx(0.5)
        assert premium.deadline_miss_rate == pytest.approx(1.0)
        total = summary["total"]
        assert total.arrivals == 3
        assert math.isfinite(total.p99_latency)

    def test_empty_class_latencies_are_nan(self):
        pending = _timed(0, (0, 1), 0)
        pending.admitted = True
        summary = slo_summary([pending])
        assert math.isnan(summary["bulk"].p95_latency)
        assert summary["bulk"].deadline_miss_rate == 0.0

    def test_starved_requests_count_as_misses_within_horizon(self):
        """An admitted request still unserved when the run ended past its
        deadline blew its SLO and must count as a miss."""
        starved = _timed(0, (0, 1), 0, "premium")  # deadline 20
        starved.admitted = True
        undecidable = _timed(1, (0, 1), 90, "premium")  # deadline 110 > horizon
        undecidable.admitted = True
        without_horizon = slo_summary([starved, undecidable])
        assert without_horizon["premium"].deadline_misses == 0
        with_horizon = slo_summary([starved, undecidable], horizon=100)
        assert with_horizon["premium"].deadline_misses == 1
        assert with_horizon["premium"].deadline_miss_rate == pytest.approx(0.5)

    def test_at_deadline_service_is_on_time(self):
        request = _timed(0, (0, 1), 0, "premium")  # deadline 20
        request.admitted = True
        request.satisfied_round = 20
        assert not request.missed_deadline
        summary = slo_summary([request], horizon=100)
        assert summary["premium"].deadline_misses == 0


class TestGroupSloSummary:
    def _served(self, index, pair, latency):
        request = _timed(index, pair, 0)
        request.admitted = True
        request.satisfied_round = latency
        return request

    def test_percentiles_bucketed_by_group_size(self):
        """p50/p95/p99 aggregate per group-key size over mixed traffic."""
        pair_latencies = [1, 2, 3, 4, 5, 6, 7, 8, 9, 100]
        triple_latencies = [10, 20, 30, 40]
        requests = [
            self._served(i, (0, 1), latency) for i, latency in enumerate(pair_latencies)
        ] + [
            self._served(100 + i, (0, 1, 2), latency)
            for i, latency in enumerate(triple_latencies)
        ]
        summary = group_slo_summary(requests)
        assert set(summary) == {"size-2", "size-3", "total"}
        pairs = summary["size-2"]
        assert pairs.arrivals == 10
        assert pairs.satisfied == 10
        assert pairs.p50_latency == pytest.approx(np.quantile(pair_latencies, 0.50))
        assert pairs.p95_latency == pytest.approx(np.quantile(pair_latencies, 0.95))
        assert pairs.p99_latency == pytest.approx(np.quantile(pair_latencies, 0.99))
        triples = summary["size-3"]
        assert triples.arrivals == 4
        assert triples.p50_latency == pytest.approx(np.quantile(triple_latencies, 0.50))
        total = summary["total"]
        assert total.arrivals == 14
        assert total.p99_latency >= triples.p99_latency or math.isfinite(total.p99_latency)

    def test_group_rows_carry_rejections_and_misses(self):
        admitted = self._served(0, (0, 1, 2, 3), 5)
        rejected = _timed(1, (0, 1, 2, 3), 0)
        rejected.admitted = False
        summary = group_slo_summary([admitted, rejected])
        quad = summary["size-4"]
        assert quad.arrivals == 2
        assert quad.rejected == 1
        assert quad.rejection_rate == pytest.approx(0.5)

    def test_pair_only_traffic_degenerates_to_one_size_row(self):
        requests = [self._served(i, (0, 1), i + 1) for i in range(5)]
        summary = group_slo_summary(requests)
        assert set(summary) == {"size-2", "total"}
        assert summary["size-2"].arrivals == summary["total"].arrivals


# ---------------------------------------------------------------------- #
# Traffic classes
# ---------------------------------------------------------------------- #
class TestTrafficClasses:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrafficClass(name="", priority=0, deadline=None)
        with pytest.raises(ValueError):
            TrafficClass(name="x", priority=0, deadline=0)

    def test_mixes_reference_real_classes(self):
        for mix in CLASS_MIXES.values():
            assert mix, "a mix needs at least one class"
            for name in mix:
                assert name in TRAFFIC_CLASSES


# ---------------------------------------------------------------------- #
# Builders: determinism, truncation, default bit-identity
# ---------------------------------------------------------------------- #
class TestWorkloadBuilders:
    @pytest.fixture
    def topology(self):
        return topology_from_name("cycle", 9)

    def test_sequence_workload_bit_identical_to_legacy_generation(self, topology):
        """The default workload must reproduce the paper's generation exactly:
        same consumer-pair draw, same ordered request stream."""
        build = build_workload(
            "sequence", topology, n_consumer_pairs=5, n_requests=20, streams=RandomStreams(3)
        )
        legacy_streams = RandomStreams(3)
        legacy_pairs = select_consumer_pairs(topology, 5, legacy_streams.get("consumers"))
        legacy = RequestSequence.generate(legacy_pairs, 20, legacy_streams.get("requests"))
        assert build.consumer_pairs == legacy_pairs
        assert [request.pair for request in build.requests.requests()] == [
            request.pair for request in legacy.requests()
        ]
        assert type(build.requests) is RequestSequence

    @pytest.mark.parametrize(
        "spec",
        [
            "poisson:rate=2",
            "bursty:rate_low=0.5,rate_high=5",
            "diurnal:rate=2,period=30",
            "poisson:rate=2,batch_alpha=1.2,batch_cap=4",
        ],
    )
    def test_timed_builders_deterministic_and_truncated(self, topology, spec):
        builds = [
            build_workload(spec, topology, n_consumer_pairs=5, n_requests=15, streams=RandomStreams(7))
            for _ in range(2)
        ]
        first, second = (
            [
                (request.arrival_round, request.pair, request.traffic_class.name)
                for request in build.requests.requests()
            ]
            for build in builds
        )
        assert first == second
        assert len(first) <= 15
        assert len(first) > 0
        arrivals = [arrival for arrival, _, _ in first]
        assert arrivals == sorted(arrivals)

    def test_horizon_limits_arrivals(self, topology):
        build = build_workload(
            "poisson:rate=1,horizon=3",
            topology,
            n_consumer_pairs=5,
            n_requests=1000,
            streams=RandomStreams(1),
        )
        assert all(request.arrival_round < 3 for request in build.requests.requests())

    def test_replay_workload_roundtrip(self, topology, tmp_path):
        trace = tmp_path / "trace.jsonl"
        records = [
            {"round": 0, "pair": [0, 3], "class": "premium"},
            {"round": 2, "pair": [1, 5]},
            {"round": 2, "pair": [2, 6], "class": "standard"},
        ]
        trace.write_text("\n".join(json.dumps(record) for record in records))
        build = build_workload(
            f"replay:file={trace}",
            topology,
            n_consumer_pairs=5,
            n_requests=50,
            streams=RandomStreams(0),
        )
        requests = build.requests.requests()
        assert [request.arrival_round for request in requests] == [0, 2, 2]
        assert requests[0].traffic_class.name == "premium"
        assert requests[1].traffic_class.name == "bulk"
        assert build.consumer_pairs == [(0, 3), (1, 5), (2, 6)]

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            '{"pair": [0, 1]}',
            '{"round": -1, "pair": [0, 1]}',
            '{"round": 0, "pair": [0, 99]}',
            '{"round": 0, "pair": [0, 1], "class": "gold"}',
        ],
    )
    def test_replay_rejects_bad_records(self, topology, tmp_path, line):
        trace = tmp_path / "bad.jsonl"
        trace.write_text(line + "\n")
        with pytest.raises(ValueError):
            build_workload(
                f"replay:file={trace}",
                topology,
                n_consumer_pairs=5,
                n_requests=50,
                streams=RandomStreams(0),
            )

    def test_replay_missing_file_rejected(self, topology):
        with pytest.raises(ValueError):
            build_workload(
                "replay:file=/nonexistent/trace.jsonl",
                topology,
                n_consumer_pairs=5,
                n_requests=50,
                streams=RandomStreams(0),
            )


# ---------------------------------------------------------------------- #
# End-to-end: round-based driver
# ---------------------------------------------------------------------- #
class TestRoundBasedIntegration:
    @pytest.mark.parametrize(
        "protocol",
        ["path-oblivious", "planned-connection-oriented", "planned-connectionless"],
    )
    def test_trial_serves_timed_workload(self, protocol):
        config = ExperimentConfig(
            topology="cycle",
            n_nodes=9,
            n_consumer_pairs=5,
            n_requests=12,
            seed=3,
            protocol=protocol,
            workload="poisson:rate=2",
            max_rounds=3000,
        )
        outcome = run_trial(config)
        assert outcome.requests_total == 12
        assert outcome.requests_satisfied == 12
        assert set(outcome.slo) >= {"total"}
        total = outcome.slo["total"]
        assert total["arrivals"] == 12
        assert total["satisfied"] == 12
        assert total["p95_latency"] >= total["p50_latency"] or math.isnan(
            total["p95_latency"]
        )

    def test_trial_is_deterministic(self):
        config = ExperimentConfig(
            topology="cycle",
            n_nodes=9,
            n_requests=10,
            n_consumer_pairs=5,
            seed=5,
            workload="bursty:rate_low=0.5,rate_high=4",
            max_rounds=3000,
        )
        first, second = run_trial(config), run_trial(config)
        assert first.rounds == second.rounds
        assert first.slo == second.slo

    def test_admission_rejections_reach_the_outcome(self):
        config = ExperimentConfig(
            topology="cycle",
            n_nodes=9,
            n_requests=30,
            n_consumer_pairs=5,
            seed=2,
            workload="poisson:rate=6,admission_rate=0.5,admission_burst=1",
            max_rounds=3000,
        )
        outcome = run_trial(config)
        total = outcome.slo["total"]
        assert total["rejected"] > 0
        assert total["rejected"] + total["admitted"] == total["arrivals"]
        assert outcome.requests_satisfied <= total["admitted"]

    def test_default_workload_keeps_slo_empty(self):
        config = ExperimentConfig(topology="cycle", n_nodes=9, n_requests=6, n_consumer_pairs=5)
        outcome = run_trial(config)
        assert outcome.slo == {}

    def test_workload_composes_with_scenario(self):
        config = ExperimentConfig(
            topology="cycle",
            n_nodes=9,
            n_requests=10,
            n_consumer_pairs=5,
            seed=4,
            workload="poisson:rate=2",
            scenario="link-churn:start=2,period=8,downtime=3,count=2",
            max_rounds=5000,
        )
        outcome = run_trial(config)
        assert outcome.requests_satisfied == outcome.requests_total


# ---------------------------------------------------------------------- #
# The traffic experiment
# ---------------------------------------------------------------------- #
class TestTrafficExperiment:
    def test_smoke_run_and_schema(self):
        result = get_experiment("traffic").run(smoke=True)
        assert result.rows, "smoke run should produce SLO rows"
        assert {row.protocol for row in result.rows} == {
            "path-oblivious",
            "planned-connectionless",
        }
        assert any(row.traffic_class == "total" for row in result.rows)
        from repro.experiments.schema import validate_payload

        validate_payload(json.loads(result.to_json()))

    def test_single_workload_flag(self):
        result = get_experiment("traffic").run(
            workloads=["poisson:rate=2"],
            protocols=["path-oblivious"],
            n_nodes=9,
            n_requests=10,
            n_consumer_pairs=5,
        )
        assert {row.workload for row in result.rows} == {"poisson:rate=2"}
        totals = result.totals()
        assert len(totals) == 1
        assert totals[0].satisfied <= totals[0].arrivals

    def test_rejects_sequence_workload(self):
        with pytest.raises(ValueError):
            TrafficExperiment().run(workload="sequence")

    def test_unknown_workload_is_a_value_error(self):
        with pytest.raises(ValueError):
            TrafficExperiment().run(workload="tsunami")

    def test_report_renders(self):
        result = get_experiment("traffic").run(smoke=True)
        report = result.format_report()
        assert "SLO attainment" in report
        assert "p95" in report

    def test_group_workload_prunes_planned_protocols(self):
        # The planned baselines serve 2-party requests only: a
        # group-emitting workload must drop them from the default
        # protocol set instead of tripping their guard mid-trial.
        result = get_experiment("traffic").run(
            workloads=["poisson:rate=2,group_fraction=0.5,group_size=3"],
            n_nodes=9,
            n_requests=8,
            n_consumer_pairs=5,
        )
        assert {row.protocol for row in result.rows} == {"path-oblivious"}

    def test_group_workload_with_explicit_planned_protocol_is_a_config_error(self):
        with pytest.raises(ValueError, match="2-party"):
            get_experiment("traffic").run(
                workloads=["poisson:rate=2,group_fraction=0.5"],
                protocols=["planned-connectionless"],
                n_nodes=9,
                n_requests=8,
            )


# ---------------------------------------------------------------------- #
# The request stream a trial runs, per workload spec
# ---------------------------------------------------------------------- #
class TestBuildWorkloadRequests:
    def test_returns_plain_sequence_for_default(self):
        config = ExperimentConfig(topology="cycle", n_nodes=9, n_requests=6, n_consumer_pairs=5)
        streams = RandomStreams(config.seed)
        topology = build_topology(config, streams)
        requests = build_workload_requests(config, topology, streams).requests
        assert type(requests) is RequestSequence

    def test_returns_timed_sequence_for_timed_spec(self):
        config = ExperimentConfig(
            topology="cycle",
            n_nodes=9,
            n_requests=6,
            n_consumer_pairs=5,
            workload="poisson:rate=2",
        )
        streams = RandomStreams(config.seed)
        topology = build_topology(config, streams)
        requests = build_workload_requests(config, topology, streams).requests
        assert isinstance(requests, TimedRequestSequence)
