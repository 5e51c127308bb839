"""Protocol interface and result record.

Every protocol in this package runs the same round-based workload -- a
generation process feeding a count ledger and an ordered consumption-request
sequence draining it -- and differs only in *how* it turns link-level pairs
into the end-to-end pairs the requests need.  :class:`SwappingProtocol` owns
the shared machinery (the round loop, generation, ordered consumption,
metric counters); subclasses implement :meth:`_action_phase` (what happens
between generation and consumption each round) and
:meth:`_try_serve_head` (whether the head-of-line request can be served
right now).
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence, Union

import numpy as np

from repro.obs.spans import emit as emit_span
from repro.obs.spans import telemetry_enabled

from repro.core.lp.extensions import PairOverheads
from repro.core.maxmin.ledger import PairCountLedger
from repro.network.demand import ConsumptionRequest, RequestSequence
from repro.network.generation import DeterministicGeneration, GenerationProcess
from repro.network.topology import EdgeKey, Topology
from repro.scenarios.perturbations import ScenarioContext
from repro.scenarios.scenario import Scenario, ScenarioDriver
from repro.sim.metrics import MetricRegistry
from repro.sim.rng import RandomStreams
from repro.sim.rounds import RoundBasedSimulator, RoundPhase
from repro.sim.tracing import TraceRecorder

NodeId = Hashable


@dataclass
class ProtocolResult:
    """What one protocol run produced (the raw material for every report)."""

    protocol: str
    topology: str
    n_nodes: int
    rounds: int
    swaps_performed: int
    requests_total: int
    requests_satisfied: int
    pairs_generated: int
    pairs_consumed: int
    pairs_remaining: int
    satisfied_requests: List[ConsumptionRequest] = field(default_factory=list)
    swaps_by_node: Dict[NodeId, int] = field(default_factory=dict)
    classical_overhead: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)
    #: Local GHZ-merge operations performed while serving multicast groups
    #: (always 0 for pair-only workloads and the independent-sessions strategy).
    fusions_performed: int = 0
    #: Trace records dropped by a capacity-capped recorder during the run
    #: (0 when tracing was off or nothing overflowed).  Surfaced so a capped
    #: trace can never silently present itself as complete.
    trace_dropped: int = 0

    @property
    def all_requests_satisfied(self) -> bool:
        return self.requests_satisfied >= self.requests_total

    def mean_waiting_rounds(self) -> float:
        """Mean rounds a satisfied request waited between issue and satisfaction."""
        waits = [
            request.waiting_rounds
            for request in self.satisfied_requests
            if request.waiting_rounds is not None
        ]
        if not waits:
            return float("nan")
        return sum(waits) / len(waits)

    def swaps_per_satisfied_request(self) -> float:
        if self.requests_satisfied == 0:
            return float("nan")
        return self.swaps_performed / self.requests_satisfied


class SwappingProtocol(abc.ABC):
    """Shared round-based workload driver for all protocols.

    Parameters
    ----------
    topology:
        The generation graph.
    requests:
        The ordered consumption request sequence.
    overheads:
        Distillation/loss overheads; a bare float is a uniform ``D``.
    generation:
        Per-round realisation of the generation rates; defaults to the
        paper's deterministic ``g`` pairs per edge per round.
    streams:
        Named RNG streams (defaults to seed 0).
    max_rounds:
        Hard bound on the number of rounds (the run also stops as soon as
        every request has been satisfied).
    consumptions_per_round:
        Cap on how many head-of-line requests may be served per round
        (``None`` = as many as resources allow).
    scenario:
        Optional dynamic scenario (:mod:`repro.scenarios`).  Its
        perturbations are applied at the *start* of their trigger round,
        before generation, so the same round's balancing and consumption
        already see the changed conditions.
    control_plane:
        Optional :class:`~repro.classical.control_plane.ControlPlane`;
        when both it and a scenario are present, failures flood
        ``FAILURE_NOTICE`` announcements through it (gossip planes reach
        only unchoked peers and drop stale cached views).
    trace:
        Optional trace recorder.  When provided, the run records phase
        markers, scenario perturbations and a per-round state summary --
        the raw material of the golden-trace regression suite.
    """

    #: Human-readable protocol name, overridden by subclasses.
    name = "abstract"

    def __init__(
        self,
        topology: Topology,
        requests: RequestSequence,
        overheads: Union[PairOverheads, float] = 1.0,
        generation: Optional[GenerationProcess] = None,
        streams: Optional[RandomStreams] = None,
        max_rounds: int = 50_000,
        consumptions_per_round: Optional[int] = None,
        scenario: Optional[Scenario] = None,
        trace: Optional[TraceRecorder] = None,
        control_plane=None,
    ):
        if max_rounds <= 0:
            raise ValueError(f"max_rounds must be positive, got {max_rounds}")
        if consumptions_per_round is not None and consumptions_per_round <= 0:
            raise ValueError(
                f"consumptions_per_round must be positive or None, got {consumptions_per_round}"
            )
        self.topology = topology
        self.requests = requests
        if isinstance(overheads, (int, float)):
            overheads = PairOverheads.uniform(distillation=float(overheads))
        self.overheads = overheads
        self.generation = generation if generation is not None else DeterministicGeneration(topology)
        self.streams = streams if streams is not None else RandomStreams(0)
        self.max_rounds = int(max_rounds)
        self.consumptions_per_round = consumptions_per_round
        self.scenario = scenario
        self.trace = trace
        self.control_plane = control_plane
        self.scenario_driver: Optional[ScenarioDriver] = None

        self.ledger = PairCountLedger(topology.nodes)
        self.metrics = MetricRegistry()
        self.pairs_generated = 0
        self.pairs_consumed = 0
        self.rounds_executed = 0

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #
    def _generation_phase(self, round_index: int) -> Optional[bool]:
        edges, counts = self.generation.draw(round_index, self.streams.get("generation"))
        counts = self._generated(edges, counts, round_index)
        self.pairs_generated += self.ledger.add_pairs(edges, counts)
        return None

    def _generated(
        self, edges: Sequence[EdgeKey], counts: np.ndarray, round_index: int
    ) -> np.ndarray:
        """Hook letting subclasses suppress generation (e.g. the on-demand baseline)."""
        return counts

    @abc.abstractmethod
    def _action_phase(self, round_index: int) -> Optional[bool]:
        """Protocol-specific work (balancing swaps, planned-path construction, ...)."""

    def _consumption_phase(self, round_index: int) -> Optional[bool]:
        served = 0
        while True:
            head = self.requests.head()
            if head is None:
                # For the paper's ordered sequence an empty head means done;
                # a timed sequence may merely be idle between arrivals, so
                # only a fully drained stream may request the stop.
                return True if self.requests.all_satisfied else None
            self.requests.note_head_issued(round_index)
            if self.consumptions_per_round is not None and served >= self.consumptions_per_round:
                return None
            if not self._try_serve_head(head, round_index):
                return None
            self.requests.mark_head_satisfied(round_index)
            served += 1

    @abc.abstractmethod
    def _try_serve_head(self, request: ConsumptionRequest, round_index: int) -> bool:
        """Serve the head request right now if possible; return whether it was served."""

    # ------------------------------------------------------------------ #
    # The run loop
    # ------------------------------------------------------------------ #
    def run(self) -> ProtocolResult:
        """Run until every request is satisfied or ``max_rounds`` is reached."""
        simulator = RoundBasedSimulator(
            max_rounds=self.max_rounds, metrics=self.metrics, trace=self.trace
        )
        # Timed workloads release arrivals (through admission control) at
        # the very start of each round -- before scenario perturbations and
        # generation.
        release = getattr(self.requests, "on_round", None)
        if release is not None:
            simulator.add_hook(RoundPhase.GENERATION, release)
        if self.scenario is not None:
            context = ScenarioContext(
                topology=self.topology,
                ledger=self.ledger,
                requests=self.requests,
                streams=self.streams,
                generation=self.generation,
                control_plane=self.control_plane,
                trace=self.trace,
            )
            self.scenario_driver = ScenarioDriver(self.scenario, context)
            # Registered before the generation hook: a round's perturbations
            # land before that round's new pairs are generated.
            simulator.add_hook(RoundPhase.GENERATION, self.scenario_driver.on_round)
        simulator.add_hook(RoundPhase.GENERATION, self._generation_phase)
        simulator.add_hook(RoundPhase.BALANCING, self._action_phase)
        simulator.add_hook(RoundPhase.CONSUMPTION, self._consumption_phase)
        if self.trace is not None:
            simulator.add_hook(RoundPhase.BOOKKEEPING, self._trace_round_summary)
        simulator.add_stop_condition(lambda _: self.requests.all_satisfied)
        run_start = time.perf_counter()
        self.rounds_executed = simulator.run()
        if telemetry_enabled():
            self._emit_phase_spans(simulator, run_start)
        return self._build_result()

    #: Round phase -> the aggregate span name it reports under.
    _PHASE_SPANS = {
        RoundPhase.GENERATION.value: "trial.generation",
        RoundPhase.BALANCING.value: "trial.balance",
        RoundPhase.CONSUMPTION.value: "trial.consumption",
        RoundPhase.BOOKKEEPING.value: "trial.bookkeeping",
    }

    def _emit_phase_spans(self, simulator: RoundBasedSimulator, run_start: float) -> None:
        """One synthetic span per phase, cumulative over every round.

        Per-round spans would cost four buffer appends per round (hundreds
        of thousands for long runs) and drown any viewer; the simulator
        instead accumulates per-phase wall time and this lays the four
        aggregates back-to-back from the run's start, so a trace viewer
        shows where the round loop's time went at a glance.
        """
        start = run_start
        for phase_value, name in self._PHASE_SPANS.items():
            seconds = simulator.phase_seconds[phase_value]
            emit_span(
                name,
                start=start,
                duration=seconds,
                rounds=self.rounds_executed,
                aggregate=True,
            )
            start += seconds

    def _trace_round_summary(self, round_index: int) -> None:
        """Record the round's end-state so traces are behaviour-sensitive."""
        self.trace.record(
            float(round_index),
            "round.summary",
            {
                "round": round_index,
                "pairs": self.ledger.total_pairs(),
                "generated": self.pairs_generated,
                "consumed": self.pairs_consumed,
                "satisfied": self.requests.satisfied_count,
                "swaps": self.swaps_performed(),
            },
        )
        return None

    # ------------------------------------------------------------------ #
    # Result assembly
    # ------------------------------------------------------------------ #
    def swaps_performed(self) -> int:
        """Total swaps executed so far (subclasses report their own counters)."""
        return 0

    def swaps_by_node(self) -> Dict[NodeId, int]:
        return {}

    def classical_overhead(self) -> Dict[str, int]:
        return {}

    def fusions_performed(self) -> int:
        """Total GHZ-merge (fusion) operations executed while serving groups."""
        return 0

    def _build_result(self) -> ProtocolResult:
        return ProtocolResult(
            protocol=self.name,
            topology=self.topology.name,
            n_nodes=self.topology.n_nodes,
            rounds=self.rounds_executed,
            swaps_performed=self.swaps_performed(),
            requests_total=len(self.requests),
            requests_satisfied=self.requests.satisfied_count,
            pairs_generated=self.pairs_generated,
            pairs_consumed=self.pairs_consumed,
            pairs_remaining=self.ledger.total_pairs(),
            satisfied_requests=self.requests.satisfied_requests(),
            swaps_by_node=self.swaps_by_node(),
            classical_overhead=self.classical_overhead(),
            fusions_performed=self.fusions_performed(),
            trace_dropped=self.trace.dropped if self.trace is not None else 0,
        )
