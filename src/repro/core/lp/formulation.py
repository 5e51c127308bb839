"""Building the path-oblivious linear flow program.

The decision variables are the swap rates ``sigma_i(x, y)`` (one per ordered
choice of repeater ``i`` and unordered pair ``{x, y}`` with ``i`` not in the
pair), plus -- depending on the optimization objective -- per-pair generation
rates ``g(x, y)`` bounded by the physical capability ``gamma``, per-pair
consumption rates ``c(x, y)`` bounded by the demand ``kappa``, a uniform
scaling factor ``alpha``, and min/max auxiliary variables.

The only structural constraints are the per-pair steady-state balance
inequalities of Section 3.1/3.2:

``D_{x,y} ( c(x,y) + sum_i sigma_x(i,y) + sigma_y(i,x) )
    <=  L_{x,y} ( g(x,y) + sum_i sigma_i(x,y) )``

plus variable bounds.  Everything else (which objective, which variables are
free) is decided by :class:`~repro.core.lp.objectives.Objective`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.lp.extensions import PairOverheads
from repro.core.lp.objectives import Objective
from repro.network.demand import DemandMatrix
from repro.network.topology import EdgeKey, Topology

if TYPE_CHECKING:  # pragma: no cover - scipy is imported where a matrix is built
    from scipy import sparse

NodeId = Hashable


class VariableIndex:
    """Maps structured variable names to dense column indices."""

    def __init__(self) -> None:
        self._names: List[Tuple] = []
        self._index: Dict[Tuple, int] = {}

    def add(self, name: Tuple) -> int:
        """Register ``name`` (idempotent) and return its column index."""
        if name in self._index:
            return self._index[name]
        index = len(self._names)
        self._names.append(name)
        self._index[name] = index
        return index

    def index_of(self, name: Tuple) -> int:
        return self._index[name]

    def __contains__(self, name: Tuple) -> bool:
        return name in self._index

    def names(self) -> List[Tuple]:
        return list(self._names)

    def copy(self) -> "VariableIndex":
        clone = VariableIndex()
        clone._names = list(self._names)
        clone._index = dict(self._index)
        return clone

    def __len__(self) -> int:
        return len(self._names)


@dataclass
class LinearProgram:
    """A linear program in the form scipy's ``linprog`` expects.

    ``minimize c @ x`` subject to ``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq``
    and per-variable ``bounds``, an ``(n, 2)`` array of ``(lower, upper)``
    rows with ``inf`` for no upper bound.  ``maximize`` objectives are encoded by
    negating ``objective`` and setting ``sense`` so the solver can report
    the natural (non-negated) optimum.
    """

    variables: VariableIndex
    objective: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    a_eq: Optional[sparse.csr_matrix] = None
    b_eq: Optional[np.ndarray] = None
    bounds: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    sense: str = "min"
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def n_constraints(self) -> int:
        count = self.a_ub.shape[0] if self.a_ub is not None else 0
        if self.a_eq is not None:
            count += self.a_eq.shape[0]
        return count

    def without_names(self) -> "LinearProgram":
        """The same arrays without the variable names and metadata: all a
        solver reads, and all a pool worker is sent."""
        return replace(self, variables=VariableIndex(), metadata={})


class PathObliviousFlowProgram:
    """Builds the paper's LP for a topology, a demand matrix and overheads.

    Parameters
    ----------
    topology:
        The generation graph; its edge rates are the capabilities
        ``gamma_{x,y}`` (maximum generation rates).
    demand:
        Desired consumption rates ``kappa_{x,y}``.
    overheads:
        Distillation/loss overheads (defaults to ``D = L = 1``).
    qec_overhead:
        The QEC rate ``R``; generation capabilities are thinned to
        ``gamma / R`` per Section 3.2.
    """

    def __init__(
        self,
        topology: Topology,
        demand: DemandMatrix,
        overheads: Optional[PairOverheads] = None,
        qec_overhead: float = 1.0,
    ):
        if qec_overhead < 1.0:
            raise ValueError(f"QEC overhead R must be >= 1, got {qec_overhead}")
        if not topology.is_connected():
            raise ValueError(
                "the generation graph must be connected; disconnected components can "
                "never share Bell pairs (paper, Section 3)"
            )
        self.topology = topology
        self.demand = demand
        self.overheads = overheads if overheads is not None else PairOverheads()
        self.qec_overhead = float(qec_overhead)

        self.nodes: List[NodeId] = list(topology.nodes)
        self.pairs: List[EdgeKey] = sorted(topology.node_pairs(), key=repr)
        self._pair_set = set(self.pairs)
        self._swap_structure: Optional[Tuple[VariableIndex, np.ndarray, np.ndarray]] = None

        for pair in demand.pairs():
            if pair[0] not in topology or pair[1] not in topology:
                raise ValueError(f"demand pair {pair} references nodes outside the topology")

    # ------------------------------------------------------------------ #
    # Capability lookups
    # ------------------------------------------------------------------ #
    def generation_capability(self, pair: EdgeKey) -> float:
        """``gamma_{x,y} / R``: the maximum usable generation rate of a pair."""
        return self.topology.generation_rate(*pair) / self.qec_overhead

    def demand_rate(self, pair: EdgeKey) -> float:
        """``kappa_{x,y}``: the desired consumption rate of a pair."""
        return self.demand.rate(*pair)

    def _swap_columns(self) -> Tuple[VariableIndex, np.ndarray, np.ndarray]:
        """The swap-rate variables and the swap part of every pair's balance row.

        Every objective starts with the same swap variables in the same
        order and the same swap entries in each balance row, so this is
        computed once per program.  Row ``r`` (pair ``(x, y)``) holds
        ``D_{x,y}`` at the swaps at ``x`` or ``y`` that consume the pair
        and ``-L_{x,y}`` at the swaps at third nodes that create it; the
        two arrays give those columns, ascending, and their values.
        """
        if self._swap_structure is None:
            # One swap variable per (repeater, pair) with the repeater outside the pair.
            variables = VariableIndex()
            for pair in self.pairs:
                for node in self.nodes:
                    if node not in pair:
                        variables.add(("sigma", node, pair))
            column = variables._index
            canonical: Dict[Tuple[NodeId, NodeId], EdgeKey] = {}
            for pair in self.pairs:
                canonical[pair] = canonical[(pair[1], pair[0])] = pair
            columns: List[List[int]] = []
            values: List[List[float]] = []
            for pair in self.pairs:
                x, y = pair
                consuming: List[int] = []
                creating: List[int] = []
                for node in self.nodes:
                    if node in pair:
                        continue
                    consuming.append(column[("sigma", x, canonical[(node, y)])])
                    consuming.append(column[("sigma", y, canonical[(node, x)])])
                    creating.append(column[("sigma", node, pair)])
                columns.append(consuming + creating)
                values.append(
                    [self.overheads.distillation_for(x, y)] * len(consuming)
                    + [-self.overheads.loss_for(x, y)] * len(creating)
                )
            indices = np.array(columns, dtype=np.int32).reshape(len(self.pairs), -1)
            data = np.array(values, dtype=float).reshape(indices.shape)
            order = np.argsort(indices, axis=1)
            self._swap_structure = (
                variables,
                np.take_along_axis(indices, order, axis=1),
                np.take_along_axis(data, order, axis=1),
            )
        return self._swap_structure

    # ------------------------------------------------------------------ #
    # LP construction
    # ------------------------------------------------------------------ #
    def build(self, objective: Objective) -> LinearProgram:
        """Construct the :class:`LinearProgram` for the requested objective."""
        swap_variables, swap_indices, swap_data = self._swap_columns()
        # Swap-rate variables exist for every objective, all in [0, inf).
        variables = swap_variables.copy()
        n_swaps = len(variables)
        extra_bounds: List[Tuple[float, float]] = []

        def add_variable(name: Tuple, lower: float, upper: float) -> int:
            index = variables.add(name)
            if index == n_swaps + len(extra_bounds):
                extra_bounds.append((lower, upper))
            return index

        generation_is_variable = objective.generation_is_variable()
        consumption_is_variable = objective.consumption_is_variable()
        uses_alpha = objective is Objective.MAX_PROPORTIONAL_ALPHA

        if generation_is_variable:
            for pair in self.pairs:
                capability = self.generation_capability(pair)
                if capability > 0:
                    add_variable(("g", pair), 0.0, capability)
        if consumption_is_variable:
            for pair in self.pairs:
                kappa = self.demand_rate(pair)
                if kappa > 0:
                    add_variable(("c", pair), 0.0, kappa)
        if uses_alpha:
            add_variable(("alpha",), 0.0, np.inf)
        if objective is Objective.MIN_MAX_GENERATION:
            add_variable(("max_generation",), 0.0, np.inf)
        if objective is Objective.MAX_MIN_CONSUMPTION:
            add_variable(("min_consumption",), 0.0, np.inf)
        bounds = np.empty((len(variables), 2))
        bounds[:n_swaps] = (0.0, np.inf)
        bounds[n_swaps:] = np.array(extra_bounds).reshape(-1, 2)

        # Each row's entries beyond the swap part of the balance rows.
        rows: List[Dict[int, float]] = []
        rhs: List[float] = []

        # Per-pair steady-state balance: departures <= arrivals.  Swaps at
        # x or y consume the pair (departures, weighted by D); swaps at third
        # nodes create it (arrivals, weighted by L).  Those entries come from
        # the swap part; the objective's own variables follow them.
        for pair in self.pairs:
            x, y = pair
            distillation = self.overheads.distillation_for(x, y)
            loss = self.overheads.loss_for(x, y)
            row: Dict[int, float] = {}
            constant = 0.0

            # Departures: consumption ...
            kappa = self.demand_rate(pair)
            if uses_alpha and kappa > 0:
                row[variables.index_of(("alpha",))] = (
                    row.get(variables.index_of(("alpha",)), 0.0) + distillation * kappa
                )
            elif consumption_is_variable and kappa > 0:
                row[variables.index_of(("c", pair))] = distillation
            else:
                constant += distillation * kappa

            # Arrivals: generation ...
            capability = self.generation_capability(pair)
            if generation_is_variable and capability > 0:
                index = variables.index_of(("g", pair))
                row[index] = row.get(index, 0.0) - loss
            else:
                constant -= loss * capability

            rows.append(row)
            rhs.append(-constant)

        # Objective-specific auxiliary constraints.
        if objective is Objective.MIN_MAX_GENERATION:
            max_index = variables.index_of(("max_generation",))
            for pair in self.pairs:
                if ("g", pair) in variables:
                    rows.append({variables.index_of(("g", pair)): 1.0, max_index: -1.0})
                    rhs.append(0.0)
        if objective is Objective.MAX_MIN_CONSUMPTION:
            min_index = variables.index_of(("min_consumption",))
            for pair in self.pairs:
                if ("c", pair) in variables:
                    rows.append({min_index: 1.0, variables.index_of(("c", pair)): -1.0})
                    rhs.append(0.0)

        a_ub = _csr_from_rows(rows, len(variables), swap_indices, swap_data)
        b_ub = np.array(rhs, dtype=float)

        objective_vector, sense = objective.build_objective_vector(variables, self)

        return LinearProgram(
            variables=variables,
            objective=objective_vector,
            a_ub=a_ub,
            b_ub=b_ub,
            bounds=bounds,
            sense=sense,
            metadata={
                "objective": objective,
                "n_nodes": len(self.nodes),
                "n_pairs": len(self.pairs),
                "qec_overhead": self.qec_overhead,
            },
        )


def _csr_from_rows(
    rows: Sequence[Dict[int, float]],
    n_columns: int,
    prefix_indices: np.ndarray,
    prefix_data: np.ndarray,
) -> sparse.csr_matrix:
    """The CSR matrix whose row ``r`` holds prefix row ``r`` (if any) and ``rows[r]``.

    The prefix rows (ascending ``prefix_indices[r]``, non-zero
    ``prefix_data[r]``) and the ``{column: value}`` entries of ``rows[r]``
    are disjoint.  Columns are sorted within each row and zero values are
    not stored, which is exactly what assembling through ``lil_matrix`` and
    ``tocsr`` produces, so the solver sees the same arrays.
    """
    # scipy is imported on use, off the start-up path (tests/test_startup.py).
    from scipy import sparse

    indptr = np.zeros(len(rows) + 1, dtype=np.int32)
    indices: List[int] = []
    data: List[float] = []
    for position, row in enumerate(rows):
        for column in sorted(row):
            value = row[column]
            if value != 0:
                indices.append(column)
                data.append(value)
        indptr[position + 1] = len(indices)
    shape = (len(rows), n_columns)
    n_prefix, width = prefix_indices.shape
    prefix_indptr = np.minimum(np.arange(len(rows) + 1), n_prefix) * width
    # Disjoint canonical matrices: their sum is the sorted union of entries.
    return sparse.csr_matrix(
        (np.array(data, dtype=float), np.array(indices, dtype=np.int32), indptr), shape=shape
    ) + sparse.csr_matrix((prefix_data.ravel(), prefix_indices.ravel(), prefix_indptr), shape=shape)
