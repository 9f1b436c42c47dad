"""QoS-aware placement (Section 5.2).

Finds a placement that keeps a mission-critical distributed
application within its latency bound (80% of solo performance in the
paper's experiments) while minimizing the total weighted runtime of
everything else.  The paper's acceptance rule is lexicographic —
"the placement algorithm attempts to reduce the overall execution time
while meeting the QoS constraint first" — which this implementation
realizes as two annealing phases:

1. **Feasibility phase** — minimize the predicted constraint violation
   (with the constrained applications' mean co-runner pressure as a
   plateau-breaking tiebreaker: heterogeneity policies make the
   predicted time piecewise-constant, so the raw violation alone gives
   the search no gradient while a loud unit is still adjacent).
2. **Throughput phase** — from the feasible placement, minimize total
   weighted runtime, rejecting any move the model predicts to violate
   a constraint.

Model predictions drive both phases; ground-truth evaluation afterwards
tells whether the QoS actually held — which is exactly the comparison
Figure 10 makes between the proposed model and the naive model.

Both phase energies extend
:class:`~repro.placement.objectives.PredictionEnergy`, so the annealing
search evaluates swaps incrementally (only instances on the two touched
nodes are re-predicted).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro._util import mean
from repro.cluster.cluster import ClusterSpec
from repro.cluster.contention import ContentionDomain
from repro.placement.annealing import (
    AnnealingSchedule,
    SearchResult,
    SimulatedAnnealingPlacer,
)
from repro.placement.assignment import InstanceSpec, Placement
from repro.placement.objectives import (
    PredictionEnergy,
    QoSConstraint,
    ResidentIndex,
    co_runners_of,
    predict_placement,
    weighted_total_time,
)

#: Weight of the mean-pressure tiebreaker in the feasibility phase.
PRESSURE_TIEBREAK = 0.05

#: Energy assigned to any infeasible placement in the throughput phase.
INFEASIBLE_ENERGY = 1e6


class ConstrainedEnergy(PredictionEnergy):
    """Shared shape of both QoS phase energies.

    Feasible placements score their total weighted runtime; infeasible
    ones score ``infeasible_base + violation`` plus a mean-pressure
    tiebreaker (heterogeneity policies make the predicted time
    piecewise-constant, so the violation alone often has no gradient
    while a loud unit is still adjacent to the target).
    """

    def __init__(
        self,
        model,
        constraints: Sequence[QoSConstraint],
        *,
        infeasible_base: float,
    ) -> None:
        super().__init__(model)
        self.constraints = list(constraints)
        self.infeasible_base = infeasible_base

    def _target_pressure(
        self, placement: Placement, residents: ResidentIndex
    ) -> float:
        """Mean predicted co-runner pressure on the constrained apps.

        When the model carries the NETWORK contention domain the mean
        runs over *both* per-domain vectors: a co-runner that is quiet
        on the compute dimension but saturates the target's uplinks
        must not win the infeasible-plateau tiebreak.  Flat-network
        models take the scalar-era path unchanged.
        """
        pressures: List[float] = []
        network = getattr(self.model, "has_network", False)
        for constraint in self.constraints:
            key = constraint.instance_key
            nodes = placement.spanned_nodes(key)
            coworkers = co_runners_of(residents, key, nodes)
            vector = self.model.pressure_vector(nodes, coworkers)
            pressures.extend(vector)
            if network:
                pressures.extend(
                    self.model.pressure_vector(
                        nodes, coworkers, domain=ContentionDomain.NETWORK
                    )
                )
        return mean(pressures) if pressures else 0.0

    def aggregate(
        self, predictions: Mapping[str, float], placement: Placement
    ) -> float:
        return self.aggregate_indexed(
            predictions, placement, placement.node_residents()
        )

    def aggregate_indexed(
        self,
        predictions: Mapping[str, float],
        placement: Placement,
        residents: ResidentIndex,
    ) -> float:
        violation = sum(c.violation(predictions) for c in self.constraints)
        if violation > 0:
            return (
                self.infeasible_base
                + violation
                + PRESSURE_TIEBREAK * self._target_pressure(placement, residents)
            )
        return weighted_total_time(predictions, placement)


class FeasibilityEnergy(ConstrainedEnergy):
    """Phase-1 energy: head toward feasibility, then optimize.

    Once the model predicts feasibility the search optimizes throughput
    immediately.  A model that *underestimates* propagation stops
    cleaning the target's neighbourhood here and starts trading its
    headroom for total time — the failure mode Figure 10 demonstrates
    for the naive proportional model.
    """

    def __init__(self, model, constraints: Sequence[QoSConstraint]) -> None:
        super().__init__(model, constraints, infeasible_base=INFEASIBLE_ENERGY / 2)


class ConstrainedThroughputEnergy(ConstrainedEnergy):
    """Phase-2 energy: throughput among feasible placements.

    Infeasible placements keep the violation gradient: without it the
    throughput phase would random-walk on a flat infeasible plateau and
    destroy whatever the feasibility phase achieved when no
    predicted-feasible placement exists at all.
    """

    def __init__(self, model, constraints: Sequence[QoSConstraint]) -> None:
        super().__init__(model, constraints, infeasible_base=INFEASIBLE_ENERGY)


@dataclass
class QoSPlacementResult:
    """Outcome of a QoS-aware placement search."""

    placement: Placement
    predictions: Dict[str, float]
    constraints: Sequence[QoSConstraint]
    search: SearchResult

    @property
    def predicted_feasible(self) -> bool:
        """Whether the model predicts every constraint satisfied."""
        return all(c.satisfied_by(self.predictions) for c in self.constraints)


class QoSAwarePlacer:
    """Two-phase simulated-annealing placer with QoS-first objective.

    Parameters
    ----------
    model:
        Prediction model (interference-aware or naive); must expose
        ``predict_under_corunners`` and ``profile``-style bubble
        scores via ``pressure_vector`` (both models share these).
    cluster_spec:
        Cluster shape.
    constraints:
        QoS constraints to enforce.
    schedule:
        Annealing schedule (used for both phases).
    seed:
        Search randomness.
    max_workers:
        Fan phase-1 annealing restarts out over worker processes
        (results stay bit-identical to the serial search).
    """

    def __init__(
        self,
        model,
        cluster_spec: ClusterSpec,
        constraints: Sequence[QoSConstraint],
        *,
        schedule: Optional[AnnealingSchedule] = None,
        seed: object = 0,
        max_workers: Optional[int] = None,
    ) -> None:
        self.model = model
        self.cluster_spec = cluster_spec
        self.constraints = list(constraints)
        self.schedule = schedule or AnnealingSchedule()
        self.seed = seed
        self.max_workers = max_workers

    # ------------------------------------------------------------------
    def place(self, instances: Sequence[InstanceSpec]) -> QoSPlacementResult:
        """Search for the best QoS-satisfying placement of ``instances``."""
        feasibility = SimulatedAnnealingPlacer(
            FeasibilityEnergy(self.model, self.constraints),
            schedule=self.schedule,
            seed=self.seed,
        )
        phase1 = feasibility.search(
            lambda seed: Placement.random(self.cluster_spec, instances, seed=seed),
            max_workers=self.max_workers,
        )
        throughput = SimulatedAnnealingPlacer(
            ConstrainedThroughputEnergy(self.model, self.constraints),
            schedule=self.schedule,
            seed=self.seed,
        )
        phase2 = throughput.search_from(phase1.placement)
        predictions = predict_placement(self.model, phase2.placement)
        return QoSPlacementResult(
            placement=phase2.placement,
            predictions=predictions,
            constraints=self.constraints,
            search=phase2,
        )
