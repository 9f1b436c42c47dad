"""Placement objectives and constraints (Sections 5.2-5.3).

The placement algorithms optimize over *model predictions*: a candidate
placement is scored by predicting every instance's normalized execution
time and aggregating.  Two aggregates appear in the paper:

* the **sum of normalized runtimes weighted by VM count** (Figure 10's
  right-hand axis), minimized by both placers; and
* **QoS feasibility**: a mission-critical application must retain a
  fraction of its solo performance (80% in the experiments, i.e.
  normalized time <= 1/0.8 = 1.25).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.errors import PlacementError
from repro.placement.assignment import Placement


def predict_placement(model, placement: Placement) -> Dict[str, float]:
    """Predicted normalized time per instance under a placement.

    ``model`` may be the interference-aware model or the naive
    proportional model — both expose ``predict_under_corunners``.
    Models exposing ``predict_corunners_batch`` (the interference-aware
    family) score every instance in a single vectorized batch, reading
    co-runner lists off one pass over the placement's residents;
    results are bit-identical to :func:`predict_placement_scalar`,
    which remains the reference oracle.
    """
    batch = getattr(model, "predict_corunners_batch", None)
    if batch is None:
        return predict_placement_scalar(model, placement)
    # Per node, each resident's co-runner workloads in assignment
    # order (what ``co_runner_workloads`` reports), built in one pass:
    # an instance has one unit per node, so its co-runners there are
    # the other positions of the node's resident list.  Nodes of the
    # paper's testbed hold one or two units, the cases spelled out.
    views = {}
    for node, units in placement.node_residents().items():
        if len(units) == 1:
            views[node] = {units[0][0]: ()}
        elif len(units) == 2:
            (key_a, work_a), (key_b, work_b) = units
            views[node] = {key_a: (work_b,), key_b: (work_a,)}
        else:
            names = tuple([work for _, work in units])
            views[node] = {
                key: names[:i] + names[i + 1:]
                for i, (key, _) in enumerate(units)
            }
    items = [
        (
            spec.workload,
            [
                views[node][spec.instance_key]
                for node in placement.spanned_nodes(spec.instance_key)
            ],
        )
        for spec in placement.instances
    ]
    return {
        spec.instance_key: float(value)
        for spec, value in zip(placement.instances, batch(items))
    }


def predict_placement_scalar(model, placement: Placement) -> Dict[str, float]:
    """One-instance-at-a-time reference path of :func:`predict_placement`."""
    predictions: Dict[str, float] = {}
    for spec in placement.instances:
        key = spec.instance_key
        predictions[key] = model.predict_under_corunners(
            spec.workload,
            placement.spanned_nodes(key),
            placement.co_runner_workloads(key),
        )
    return predictions


def weighted_total_time(
    predictions: Mapping[str, float], placement: Placement
) -> float:
    """Sum of normalized runtimes, weighted by instance weight."""
    total = 0.0
    for spec in placement.instances:
        total += spec.weight * predictions[spec.instance_key]
    return total


def weighted_average_speedup(
    times: Mapping[str, float],
    reference_times: Mapping[str, float],
    placement: Placement,
) -> float:
    """Weighted mean of per-instance speedups over reference times.

    The paper's Figure 11 metric: each application's performance is the
    speedup of its execution time over the same application's time in
    the worst placement; the overall figure is the VM-weighted average.
    """
    total_weight = 0.0
    total = 0.0
    for spec in placement.instances:
        key = spec.instance_key
        reference = reference_times[key]
        if times[key] <= 0:
            raise PlacementError(f"non-positive time for {key}")
        total += spec.weight * (reference / times[key])
        total_weight += spec.weight
    return total / total_weight


@dataclass(frozen=True)
class QoSConstraint:
    """A mission-critical instance's latency bound.

    Parameters
    ----------
    instance_key:
        The protected instance.
    max_normalized_time:
        Largest admissible normalized execution time; the paper's
        "80% of solo performance" is ``1 / 0.8 = 1.25``.
    """

    instance_key: str
    max_normalized_time: float = 1.25

    def __post_init__(self) -> None:
        if self.max_normalized_time < 1.0:
            raise PlacementError(
                "max_normalized_time below 1.0 is unsatisfiable even solo"
            )

    def satisfied_by(self, predictions: Mapping[str, float]) -> bool:
        """Whether the constraint holds under the given predictions."""
        return predictions[self.instance_key] <= self.max_normalized_time

    def violation(self, predictions: Mapping[str, float]) -> float:
        """How far beyond the bound the prediction is (0 if satisfied)."""
        return max(0.0, predictions[self.instance_key] - self.max_normalized_time)


def qos_energy(
    predictions: Mapping[str, float],
    placement: Placement,
    constraints: Sequence[QoSConstraint],
    *,
    penalty: float = 1000.0,
) -> float:
    """Lexicographic QoS-then-throughput energy for annealing.

    Constraint violations dominate (scaled by ``penalty``) so the
    search first finds feasibility, then minimizes total weighted
    runtime among feasible placements — the acceptance order of
    Section 5.2.
    """
    energy = weighted_total_time(predictions, placement)
    for constraint in constraints:
        energy += penalty * constraint.violation(predictions)
    return energy


def qos_status(
    times: Mapping[str, float], constraints: Sequence[QoSConstraint]
) -> List[bool]:
    """Per-constraint satisfaction flags for measured times."""
    return [c.satisfied_by(times) for c in constraints]


# ----------------------------------------------------------------------
# Incremental (delta) evaluation
# ----------------------------------------------------------------------
#
# The annealing search proposes *unit swaps*: one unit of instance A
# trades nodes with one unit of instance B.  Only the two touched nodes
# change hands, so the only instances whose predicted time can move are
# those with a unit on either node — everyone else keeps the same
# spanned-node set and the same co-runners.  The protocol below lets
# the search re-predict just that handful while carrying the rest of
# the per-instance prediction table forward unchanged, which is what
# turns an O(instances) energy evaluation into an O(slots-per-node)
# one.


#: Per-node ``(instance_key, workload)`` of every resident unit, in
#: assignment order — the shape of :meth:`Placement.node_residents`.
ResidentIndex = Dict[int, List[Tuple[str, str]]]


def co_runners_of(
    residents: ResidentIndex, key: str, nodes: Iterable[int]
) -> Dict[int, List[str]]:
    """``Placement.co_runner_workloads(key)`` read off a resident index.

    ``nodes`` are the nodes ``key`` spans; each list keeps assignment
    order, so pressures combine in the same float summation order.
    """
    return {
        node: [workload for other, workload in residents[node] if other != key]
        for node in nodes
    }


@dataclass
class EnergyState:
    """A placement with its per-instance prediction table and energy.

    ``predictions`` is the cached table delta evaluation carries
    forward; ``energy`` is always re-aggregated from the full table so
    incremental and full evaluation agree bit-for-bit (no running-sum
    drift).  ``residents`` is the placement's resident index (equal to
    ``placement.node_residents()``) and ``rank`` each instance key's
    position in assignment order; :class:`PredictionEnergy` keeps both
    current so a swap touches only the two nodes that changed.
    """

    placement: Placement
    predictions: Dict[str, float]
    energy: float
    residents: ResidentIndex = field(default_factory=dict)
    rank: Dict[str, int] = field(default_factory=dict)


class IncrementalEnergy:
    """Protocol for placement energies that support delta evaluation.

    Implementations provide :meth:`full_state` (evaluate a placement
    from scratch) and :meth:`swap_state` (re-evaluate after a unit
    swap given the previous state).  Instances are also plain energy
    callables, so every consumer of ``EnergyFunction`` keeps working
    — :class:`~repro.placement.annealing.SimulatedAnnealingPlacer`
    simply takes the fast path when it detects the protocol.
    """

    def full_state(self, placement: Placement) -> EnergyState:
        """Evaluate ``placement`` from scratch."""
        raise NotImplementedError

    def swap_state(
        self,
        state: EnergyState,
        new_placement: Placement,
        touched_nodes: Iterable[int],
    ) -> EnergyState:
        """Evaluate ``new_placement``, reusing ``state`` where valid.

        ``touched_nodes`` are the nodes whose residents changed (the
        two endpoints of a unit swap).
        """
        raise NotImplementedError

    def __call__(self, placement: Placement) -> float:
        return self.full_state(placement).energy


class PredictionEnergy(IncrementalEnergy):
    """Base class for model-prediction-driven incremental energies.

    Subclasses implement :meth:`aggregate` (prediction table ->
    scalar energy); this class owns the expensive part — maintaining
    the per-instance prediction table and resident index across swaps
    — plus a memo of per-instance predictions keyed by the instance's
    *co-runner layout*: its workload and, per spanned node in sorted
    node order, the co-runner workloads in assignment order.  Node ids
    are not part of the key, so relabelled placements share entries,
    and the memo is bounded by the number of distinct layouts.

    The model must therefore predict from the layout alone, which
    ``predict_under_corunners`` of every model here does: it walks the
    nodes in order and reads only each node's co-runner list.

    Parameters
    ----------
    model:
        Prediction model exposing ``predict_under_corunners``.
    """

    def __init__(self, model) -> None:
        self.model = model
        self._memo: Dict[Tuple, float] = {}

    # -- subclass surface ---------------------------------------------
    def aggregate(
        self, predictions: Mapping[str, float], placement: Placement
    ) -> float:
        """Scalar energy of a full prediction table (cheap)."""
        raise NotImplementedError

    def aggregate_indexed(
        self,
        predictions: Mapping[str, float],
        placement: Placement,
        residents: ResidentIndex,
    ) -> float:
        """:meth:`aggregate` with the state's resident index at hand.

        Energies that read co-runners beyond the prediction table
        override this instead of rebuilding the index per evaluation.
        """
        return self.aggregate(predictions, placement)

    # -- prediction table maintenance ---------------------------------
    def _predict(
        self,
        key: str,
        workload: str,
        nodes: Iterable[int],
        residents: ResidentIndex,
    ) -> float:
        """Memoized prediction of one instance from the resident index."""
        nodes = sorted(nodes)
        # Co-runners keep assignment order, NOT sorted: pressures sum in
        # list order, so a reordered key could replay different bits.
        layout = tuple(
            tuple([w for other, w in residents[node] if other != key])
            for node in nodes
        )
        memo_key = (workload, layout)
        value = self._memo.get(memo_key)
        if value is None:
            value = self.model.predict_under_corunners(
                workload, nodes, co_runners_of(residents, key, nodes)
            )
            self._memo[memo_key] = value
        return value

    def full_state(self, placement: Placement) -> EnergyState:
        assignment = placement._assignment
        residents = placement.node_residents()
        predictions = {
            spec.instance_key: self._predict(
                spec.instance_key,
                spec.workload,
                assignment[spec.instance_key],
                residents,
            )
            for spec in placement.instances
        }
        return EnergyState(
            placement,
            predictions,
            self.aggregate_indexed(predictions, placement, residents),
            residents,
            {key: position for position, key in enumerate(assignment)},
        )

    def swap_state(
        self,
        state: EnergyState,
        new_placement: Placement,
        touched_nodes: Iterable[int],
    ) -> EnergyState:
        # Only instances resident on a touched node can change their
        # co-runners, and a swap only moves them between touched nodes:
        # those two index entries are rebuilt (in assignment order) and
        # the rest of the index and prediction table carries forward.
        touched = list(touched_nodes)
        moved: Dict[str, str] = {}
        for node in touched:
            moved.update(state.residents[node])
        rank = state.rank
        changed = sorted(moved.items(), key=lambda item: rank[item[0]])
        assignment = new_placement._assignment
        residents = dict(state.residents)
        for node in touched:
            residents[node] = [
                item for item in changed if node in assignment[item[0]]
            ]
        predictions = dict(state.predictions)
        for key, workload in changed:
            predictions[key] = self._predict(
                key, workload, assignment[key], residents
            )
        return EnergyState(
            new_placement,
            predictions,
            self.aggregate_indexed(predictions, new_placement, residents),
            residents,
            rank,
        )

    def __getstate__(self) -> dict:
        # The memo is a per-process accelerator, not state: shipping it
        # to fan-out workers would be pure pickling weight.
        state = dict(self.__dict__)
        state["_memo"] = {}
        return state


class WeightedTimeEnergy(PredictionEnergy):
    """Total weighted normalized runtime (Section 5.3's objective).

    ``sign=-1`` turns the minimizer into the *worst-placement* search
    of Figure 11.
    """

    def __init__(self, model, *, sign: float = 1.0) -> None:
        super().__init__(model)
        if sign not in (1.0, -1.0):
            raise PlacementError("sign must be +1.0 or -1.0")
        self.sign = sign

    def aggregate(
        self, predictions: Mapping[str, float], placement: Placement
    ) -> float:
        return self.sign * weighted_total_time(predictions, placement)
