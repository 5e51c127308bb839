"""Protocol interface and result record.

Every protocol in this package runs the same round-based workload --
deterministic generation feeding a count ledger and an ordered
consumption-request sequence draining it -- and differs only in *how* it
turns link-level pairs into the end-to-end pairs the requests need.
:class:`SwappingProtocol` owns the shared machinery (the round loop,
generation, ordered consumption); subclasses implement
:meth:`_action_phase` (what happens between generation and consumption
each round) and :meth:`_try_serve_head` (whether the head-of-line request
can be served right now).
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
from repro.network.generation import DeterministicGeneration
from repro.network.topology import EdgeKey, Topology
from repro.runtime.seeding import RandomStreams
from repro.scenarios.perturbations import ScenarioContext
from repro.scenarios.scenario import Scenario, ScenarioDriver

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
        Per-pair overheads, of which a trial pays the distillation ``D``
        (the loss ``L`` reaches only the LP); a bare float is a uniform ``D``.
    streams:
        Named RNG streams (defaults to seed 0).
    max_rounds:
        Hard bound on the number of rounds (the run also stops as soon as
        every request has been satisfied).
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
        Optional recorder: any object with a ``record(time, kind, payload)``
        method.  When provided, the run records phase markers, scenario
        perturbations and a per-round state summary -- the raw material of
        the golden-trace regression suite.
    """

    #: Human-readable protocol name, overridden by subclasses.
    name = "abstract"

    def __init__(
        self,
        topology: Topology,
        requests: RequestSequence,
        overheads: Union[PairOverheads, float] = 1.0,
        streams: Optional[RandomStreams] = None,
        max_rounds: int = 50_000,
        scenario: Optional[Scenario] = None,
        trace=None,
        control_plane=None,
    ):
        if max_rounds <= 0:
            raise ValueError(f"max_rounds must be positive, got {max_rounds}")
        self.topology = topology
        self.requests = requests
        if isinstance(overheads, (int, float)):
            overheads = PairOverheads.uniform(distillation=float(overheads))
        self.overheads = overheads
        self.generation = DeterministicGeneration(topology)
        self.streams = streams if streams is not None else RandomStreams(0)
        self.max_rounds = int(max_rounds)
        self.scenario = scenario
        self.trace = trace
        self.control_plane = control_plane
        self.scenario_driver: Optional[ScenarioDriver] = None

        self.ledger = PairCountLedger(topology.nodes)
        self.pairs_generated = 0
        self.pairs_consumed = 0
        self.rounds_executed = 0

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #
    def _generation_phase(self, round_index: int) -> None:
        # A timed workload releases the round's arrivals (through admission
        # control) first, then the round's scenario perturbations land, so
        # this round's generation, balancing and consumption already see
        # the changed conditions.
        release = getattr(self.requests, "on_round", None)
        if release is not None:
            release(round_index)
        if self.scenario_driver is not None:
            self.scenario_driver.on_round(round_index)
        edges, counts = self.generation.draw()
        counts = self._generated(edges, counts, round_index)
        self.pairs_generated += self.ledger.add_pairs(edges, counts)

    def _generated(
        self, edges: Sequence[EdgeKey], counts: np.ndarray, round_index: int
    ) -> np.ndarray:
        """Hook letting subclasses suppress generation (e.g. the on-demand baseline)."""
        return counts

    @abc.abstractmethod
    def _action_phase(self, round_index: int) -> None:
        """Protocol-specific work (balancing swaps, planned-path construction, ...)."""

    def _consumption_phase(self, round_index: int) -> None:
        head = self.requests.head()
        while head is not None:
            self.requests.note_head_issued(round_index)
            if not self._try_serve_head(head, round_index):
                return
            self.requests.mark_head_satisfied(round_index)
            head = self.requests.head()

    @abc.abstractmethod
    def _try_serve_head(self, request: ConsumptionRequest, round_index: int) -> bool:
        """Serve the head request right now if possible; return whether it was served."""

    def _bookkeeping_phase(self, round_index: int) -> None:
        """Record the round's end-state so traces are behaviour-sensitive."""
        if self.trace is None:
            return
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

    # ------------------------------------------------------------------ #
    # The run loop
    # ------------------------------------------------------------------ #
    def run(self) -> ProtocolResult:
        """Run rounds until every request is satisfied or ``max_rounds`` is reached.

        Every round runs four phases in order: generation, the protocol's
        action, consumption and bookkeeping.  Each phase ends with a
        ``phase.<name>`` trace record stamped with the round index, and the
        run stops after the round in which the last request is served (a
        timed sequence idle before its next arrival is not done).
        """
        if self.scenario is not None:
            context = ScenarioContext(
                topology=self.topology,
                ledger=self.ledger,
                requests=self.requests,
                streams=self.streams,
                control_plane=self.control_plane,
                trace=self.trace,
            )
            self.scenario_driver = ScenarioDriver(self.scenario, context)
        # Each phase with its trace-record kind and the aggregate telemetry
        # span its wall time reports under.
        phases = (
            (self._generation_phase, "phase.generation", "trial.generation"),
            (self._action_phase, "phase.balancing", "trial.balance"),
            (self._consumption_phase, "phase.consumption", "trial.consumption"),
            (self._bookkeeping_phase, "phase.bookkeeping", "trial.bookkeeping"),
        )
        seconds = [0.0] * len(phases)
        trace = self.trace
        run_start = time.perf_counter()
        for round_index in range(self.max_rounds):
            for slot, (phase, kind, _) in enumerate(phases):
                phase_start = time.perf_counter()
                phase(round_index)
                seconds[slot] += time.perf_counter() - phase_start
                if trace is not None:
                    trace.record(float(round_index), kind, {"round": round_index})
            self.rounds_executed = round_index + 1
            if self.requests.all_satisfied:
                break
        if telemetry_enabled():
            # One synthetic span per phase, cumulative over every round and
            # laid back-to-back from the run's start: per-round spans would
            # cost four buffer appends per round and drown any viewer.
            start = run_start
            for (_, _, name), duration in zip(phases, seconds):
                emit_span(
                    name,
                    start=start,
                    duration=duration,
                    rounds=self.rounds_executed,
                    aggregate=True,
                )
                start += duration
        return self._build_result()

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
        )
