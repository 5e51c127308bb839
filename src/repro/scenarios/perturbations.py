"""Perturbations: the atomic time-varying conditions a scenario injects.

The paper evaluates path-oblivious entanglement distribution on *static*
topologies only.  Real deployments churn: fibres are cut and respliced,
repeater nodes reboot, demand hotspots migrate, and memory quality drifts.
Each :class:`Perturbation` below is one such condition, declarative and
self-describing, applied to a :class:`ScenarioContext` at its trigger round.

Design rules:

* Perturbations mutate only through the context, never through globals, so
  one scenario object can drive many concurrent trials.
* Every mutation goes through the authoritative surfaces (``Topology``,
  ``PairCountLedger``, ``RequestSequence``), so derived state stays
  consistent -- in particular, the balancer reads the ledger's own count
  matrix, and the incremental engine's mutated-index log marks exactly the
  affected candidates dirty instead of forcing a full resweep.
* Every perturbation can :meth:`~Perturbation.describe` itself as plain
  data, so two perturbations can be compared by what they do.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, Hashable, List, Optional

from repro.network.topology import EdgeKey, Topology, edge_key

NodeId = Hashable


class ScenarioContext:
    """The mutable simulation surfaces a perturbation may act on.

    Every field is optional: a protocol run supplies the
    topology/ledger/requests trio, and tests may supply any subset.
    Perturbations act on whatever is present and skip the rest.
    """

    def __init__(
        self,
        topology: Optional[Topology] = None,
        ledger=None,
        requests=None,
        streams=None,
        demand=None,
        control_plane=None,
        trace=None,
    ):
        self.topology = topology
        self.ledger = ledger
        self.requests = requests
        self.streams = streams
        self.demand = demand
        self.control_plane = control_plane
        self.trace = trace
        #: Simulated time/round of the perturbation currently being applied
        #: (set by the driver before each ``apply``).
        self.now: float = 0.0
        #: Applied-perturbation log, for tests and reports.
        self.applied: List[Dict[str, Any]] = []
        # edge -> original generation rate, for repairs.
        self._failed_edges: Dict[EdgeKey, float] = {}
        # node -> {edge -> original rate} of its severed incident edges.
        self._failed_nodes: Dict[NodeId, Dict[EdgeKey, float]] = {}

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #
    def record(self, kind: str, payload: Dict[str, Any]) -> None:
        """Log one applied perturbation (and trace it, when tracing is on)."""
        entry = {"kind": kind, "time": self.now, **payload}
        self.applied.append(entry)
        if self.trace is not None:
            self.trace.record(self.now, f"scenario.{kind}", payload)

    def failed_edges(self) -> List[EdgeKey]:
        """Edges currently failed (severed by a link failure or node leave)."""
        result = list(self._failed_edges)
        for edges in self._failed_nodes.values():
            result.extend(edges)
        return result

    def is_failed(self, node_a: NodeId, node_b: NodeId) -> bool:
        return edge_key(node_a, node_b) in set(self.failed_edges())

    def _announce(self, source: NodeId, node: NodeId = None, edge: Optional[EdgeKey] = None) -> None:
        if self.control_plane is not None:
            self.control_plane.announce_failure(source, failed_node=node, failed_edge=edge)

    # ------------------------------------------------------------------ #
    # Link failure / repair
    # ------------------------------------------------------------------ #
    def fail_link(self, node_a: NodeId, node_b: NodeId, drop_pairs: bool = False) -> bool:
        """Sever the generation edge ``(node_a, node_b)``.

        Generation on the edge stops immediately (generation reads rates
        from the live topology).  With ``drop_pairs``, the Bell
        pairs currently stored across the link are invalidated too (a fibre
        cut taking its heralding channel with it); without it, existing
        entanglement survives and only replenishment stops.

        Returns whether anything changed (failing a failed link is a no-op).
        """
        key = edge_key(node_a, node_b)
        if self.topology is None or not self.topology.has_edge(*key):
            return False
        self._failed_edges[key] = self.topology.generation_rate(*key)
        self.topology.remove_edge(*key)
        if drop_pairs and self.ledger is not None:
            held = self.ledger.count(*key)
            if held:
                self.ledger.remove(key[0], key[1], held)
        for endpoint in key:
            self._announce(endpoint, edge=key)
        return True

    def repair_link(self, node_a: NodeId, node_b: NodeId) -> bool:
        """Restore a previously failed generation edge at its original rate."""
        key = edge_key(node_a, node_b)
        rate = self._failed_edges.pop(key, None)
        if rate is None or self.topology is None:
            return False
        self.topology.add_edge(key[0], key[1], rate)
        return True

    # ------------------------------------------------------------------ #
    # Node churn
    # ------------------------------------------------------------------ #
    def fail_node(self, node: NodeId) -> bool:
        """Take ``node`` out of the network (leave).

        All its incident generation edges are severed and *every* ledger
        entry involving it is invalidated -- a leaving repeater's quantum
        memory is gone, including end-to-end pairs it shares with distant
        nodes.  The ledger mutations this logs are what let the
        incremental balancer invalidate exactly the affected candidates.
        """
        if node in self._failed_nodes:
            return False
        if self.topology is None or not self.topology.has_node(node):
            return False
        severed: Dict[EdgeKey, float] = {}
        for neighbor in list(self.topology.neighbors(node)):
            key = edge_key(node, neighbor)
            severed[key] = self.topology.generation_rate(*key)
            self.topology.remove_edge(*key)
        self._failed_nodes[node] = severed
        if self.ledger is not None:
            for partner, count in list(self.ledger.partners(node).items()):
                self.ledger.remove(node, partner, count)
        self._announce(node, node=node)
        return True

    def rejoin_node(self, node: NodeId) -> bool:
        """Bring a previously left node back, restoring its generation edges."""
        severed = self._failed_nodes.pop(node, None)
        if severed is None:
            return False
        if self.topology is None:
            return False
        for (node_a, node_b), rate in severed.items():
            self.topology.add_edge(node_a, node_b, rate)
        return True

    # ------------------------------------------------------------------ #
    # Demand drift
    # ------------------------------------------------------------------ #
    def shift_demand(self, hotspot: NodeId, fraction: float = 0.5) -> int:
        """Migrate a fraction of the *pending* demand toward ``hotspot``.

        Each not-yet-served consumption request is, with probability
        ``fraction`` (seeded stream ``"scenario-demand"``), redirected to the
        pair ``(hotspot, other_endpoint)``.  When a :class:`DemandMatrix` is
        attached, the same fraction of each pair's average rate migrates to
        the hotspot pair, so the LP-side picture drifts consistently.

        Returns how many pending requests were redirected.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be within [0, 1], got {fraction}")
        rng = self.streams.get("scenario-demand") if self.streams is not None else None
        moved = 0
        if self.requests is not None:

            def _mapper(request) -> Optional[EdgeKey]:
                nonlocal moved
                if len(request.pair) != 2:
                    # Multicast groups have no single "other endpoint" to
                    # redirect; demand drift leaves them where they are.
                    return None
                node_a, node_b = request.pair
                if hotspot in (node_a, node_b):
                    return None
                if rng is not None and rng.random() >= fraction:
                    return None
                moved += 1
                # Keep the endpoint further in repr order for determinism.
                other = node_b if repr(node_a) <= repr(node_b) else node_a
                return edge_key(hotspot, other)

            self.requests.remap_pending(_mapper)
        if self.demand is not None:
            for pair in list(self.demand.pairs()):
                if hotspot in pair:
                    continue
                rate = self.demand.rate(*pair)
                shifted = rate * fraction
                self.demand.set_rate(pair[0], pair[1], rate - shifted)
                other = pair[1] if repr(pair[0]) <= repr(pair[1]) else pair[0]
                self.demand.set_rate(
                    hotspot, other, self.demand.rate(hotspot, other) + shifted
                )
        return moved

    # ------------------------------------------------------------------ #
    # Decoherence ramp
    # ------------------------------------------------------------------ #
    def scale_decoherence(self, factor: float) -> None:
        """Ramp the decoherence rate by ``factor`` (>1 = memories get worse).

        Pairs are counts with no per-pair lifetimes, so the ramp thins every
        generation rate by ``1/factor``, the Section 3.2 ``g/R`` treatment of
        pairs lost to imperfect memory.
        """
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        if self.topology is not None:
            for (node_a, node_b), rate in self.topology.generation_rates().items():
                self.topology.add_edge(node_a, node_b, rate / factor)


class Perturbation(abc.ABC):
    """One declarative time-varying condition.

    ``trigger`` is the index of the round it fires in.  The
    optional ``predicate`` (see :meth:`ready`) delays firing past the
    trigger until a state condition holds.
    """

    #: Short stable identifier used in trace record kinds and descriptions.
    kind: str = "abstract"

    trigger: float

    @abc.abstractmethod
    def apply(self, context: ScenarioContext) -> None:
        """Mutate ``context``'s surfaces; must be idempotent-safe."""

    def ready(self, context: ScenarioContext) -> bool:
        """State predicate gating the firing (default: fire at the trigger)."""
        return True

    def describe(self) -> Dict[str, Any]:
        """Plain-data description: the kind and every field."""
        payload: Dict[str, Any] = {"kind": self.kind}
        for spec in fields(self):  # type: ignore[arg-type]
            payload[spec.name] = getattr(self, spec.name)
        return payload


@dataclass(frozen=True)
class LinkFailure(Perturbation):
    """Sever one generation edge at ``trigger``."""

    trigger: float
    edge: EdgeKey
    drop_pairs: bool = False
    kind = "link-failure"

    def apply(self, context: ScenarioContext) -> None:
        changed = context.fail_link(self.edge[0], self.edge[1], drop_pairs=self.drop_pairs)
        context.record(self.kind, {"edge": list(self.edge), "applied": changed})


@dataclass(frozen=True)
class LinkRepair(Perturbation):
    """Restore a previously severed generation edge."""

    trigger: float
    edge: EdgeKey
    kind = "link-repair"

    def apply(self, context: ScenarioContext) -> None:
        changed = context.repair_link(self.edge[0], self.edge[1])
        context.record(self.kind, {"edge": list(self.edge), "applied": changed})


@dataclass(frozen=True)
class NodeLeave(Perturbation):
    """Node churn: ``node`` leaves, severing its edges and invalidating its pairs."""

    trigger: float
    node: NodeId
    kind = "node-leave"

    def apply(self, context: ScenarioContext) -> None:
        changed = context.fail_node(self.node)
        context.record(self.kind, {"node": self.node, "applied": changed})


@dataclass(frozen=True)
class NodeRejoin(Perturbation):
    """Node churn: a previously left node rejoins with its original edges."""

    trigger: float
    node: NodeId
    kind = "node-rejoin"

    def apply(self, context: ScenarioContext) -> None:
        changed = context.rejoin_node(self.node)
        context.record(self.kind, {"node": self.node, "applied": changed})


@dataclass(frozen=True)
class DemandShift(Perturbation):
    """Hotspot migration: redirect pending demand toward ``hotspot``."""

    trigger: float
    hotspot: NodeId
    fraction: float = 0.5
    kind = "demand-shift"

    def apply(self, context: ScenarioContext) -> None:
        moved = context.shift_demand(self.hotspot, self.fraction)
        context.record(self.kind, {"hotspot": self.hotspot, "moved": moved})


@dataclass(frozen=True)
class DecoherenceRamp(Perturbation):
    """Ramp the decoherence rate by ``factor`` from ``trigger`` onward."""

    trigger: float
    factor: float = 1.5
    kind = "decoherence-ramp"

    def apply(self, context: ScenarioContext) -> None:
        context.scale_decoherence(self.factor)
        context.record(self.kind, {"factor": self.factor})


@dataclass(frozen=True)
class Conditional(Perturbation):
    """Predicate-gated wrapper: fire ``inner`` once ``predicate`` holds.

    ``predicate`` receives the context and is evaluated from ``trigger``
    onward; ``label`` stands in for the callable in :meth:`describe`, so
    two perturbations differing only in predicate *logic* should also
    differ in label.
    """

    trigger: float
    inner: Perturbation
    predicate: Callable[[ScenarioContext], bool]
    label: str = "conditional"
    kind = "conditional"

    def ready(self, context: ScenarioContext) -> bool:
        return self.predicate(context)

    def apply(self, context: ScenarioContext) -> None:
        context.record(self.kind, {"label": self.label})
        self.inner.apply(context)

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "trigger": self.trigger,
            "label": self.label,
            "inner": self.inner.describe(),
        }
