"""QoS admission control (the service's gatekeeper).

Admission answers one question: *can this job be placed right now
without breaking anybody's QoS bound?*  The controller never migrates
existing tenants — that is the rescheduler's prerogative — so the
decision reduces to choosing nodes for the new job's units among the
free unit slots and predicting the resulting normalized times with the
interference model (the :class:`~repro.core.online.OnlineModel`).

A job is admitted only if some candidate keeps **every** co-resident
tenant inside its QoS bound *and* satisfies the job's own bound; among
feasible candidates the one minimizing total weighted predicted time
wins (ties broken by node order, so decisions are deterministic).

Candidates are scored by delta (:class:`CandidateWave`): adding the job
to a node set changes the predictions of the job and of the tenants on
those nodes only, so each decision predicts the current placement once
and re-predicts just the touched instances per candidate.  Only the
winner is materialized as a :class:`~repro.placement.assignment.Placement`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from typing import Collection, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.cluster.cluster import ClusterSpec
from repro.errors import ServiceError
from repro.faults.degradation import (
    conservative_prediction,
    supports_degradation,
)
from repro.obs import recorder as _obs
from repro.placement.assignment import Placement
from repro.placement.objectives import (
    QoSConstraint,
    predict_placement_scalar,
    weighted_total_time,
)
from repro.service.jobs import Job

#: Admission decision reasons.
ADMITTED = "admitted"
NO_CAPACITY = "no-capacity"
NO_DURABLE_CAPACITY = "no-durable-capacity"
QOS_INFEASIBLE = "qos-infeasible"


def placement_with_job(
    placement: Optional[Placement],
    cluster_spec: ClusterSpec,
    job: Job,
    nodes: Sequence[int],
    *,
    unit_slots_per_node: int = 2,
) -> Placement:
    """The current placement extended with ``job`` on ``nodes``.

    Raises
    ------
    PlacementError
        If the extension violates capacity or co-location constraints.
    """
    instances = list(placement.instances) if placement is not None else []
    assignment: Dict[str, Tuple[int, ...]] = {
        spec.instance_key: placement.nodes_of(spec.instance_key)
        for spec in instances
    } if placement is not None else {}
    if job.job_id in assignment:
        raise ServiceError(f"job {job.job_id!r} is already placed")
    instances.append(job.instance_spec())
    assignment[job.job_id] = tuple(int(n) for n in nodes)
    return Placement(
        cluster_spec,
        instances,
        assignment,
        unit_slots_per_node=(
            placement.unit_slots_per_node
            if placement is not None
            else unit_slots_per_node
        ),
    )


def placement_without_job(placement: Placement, job_id: str) -> Optional[Placement]:
    """The placement with ``job_id`` evicted (``None`` if it empties)."""
    remaining = [
        spec for spec in placement.instances if spec.instance_key != job_id
    ]
    if len(remaining) == len(placement.instances):
        raise ServiceError(f"job {job_id!r} is not placed")
    if not remaining:
        return None
    assignment = {
        spec.instance_key: placement.nodes_of(spec.instance_key)
        for spec in remaining
    }
    return Placement(
        placement.cluster_spec,
        remaining,
        assignment,
        unit_slots_per_node=placement.unit_slots_per_node,
    )


class CandidateWave:
    """One job arriving into one placement, scored over many node sets.

    The delta scorer behind admission and the scale router.  In the
    paper's model (Section 4, Figure 5) an instance's prediction
    depends only on the pressure on the nodes it spans, so extending
    the placement with the job on node set ``S`` changes the
    predictions of the job and of the tenants with a unit on ``S``
    only.  Every other tenant keeps its spanned nodes and co-runner
    lists, hence its prediction, bit for bit.

    The wave reads the placement's resident index once.
    :meth:`predict` sends each distinct (workload, co-runner layout)
    through one model batch and scatters the values into the
    ``(candidates x instances)`` matrix whose row ``c`` equals
    :func:`~repro.placement.objectives.predict_placement` of the
    materialized candidate ``c``; :meth:`fits` rejects
    exactly the node sets :func:`placement_with_job` would, so only the
    winner needs materializing (:meth:`placement_for`).

    Raises
    ------
    ServiceError
        If ``job`` is already placed.
    """

    def __init__(
        self,
        placement: Optional[Placement],
        job: Job,
        cluster_spec: ClusterSpec,
        *,
        unit_slots_per_node: int = 2,
    ) -> None:
        self.placement = placement
        self.job = job
        self.cluster_spec = cluster_spec
        base = placement.instances if placement is not None else ()
        if any(spec.instance_key == job.job_id for spec in base):
            raise ServiceError(f"job {job.job_id!r} is already placed")
        self.unit_slots_per_node = (
            placement.unit_slots_per_node
            if placement is not None
            else unit_slots_per_node
        )
        #: The candidates' instance list: the tenants, then the job.
        self.instances = tuple(base) + (job.instance_spec(),)
        # Per node, ``(column, workload)`` of each resident unit in
        # instance order — the assignment order placement_with_job
        # builds — so co-runner lists, and the float sums combining
        # their pressures, match the materialized candidates'.
        self._residents: Dict[int, List[Tuple[int, str]]] = {}
        self._spans: List[List[int]] = []
        for column, spec in enumerate(base):
            nodes = placement.nodes_of(spec.instance_key)
            self._spans.append(sorted(nodes))
            for node in nodes:
                self._residents.setdefault(node, []).append(
                    (column, spec.workload)
                )
        # Units of one instance occupy distinct nodes, so a node's unit
        # count equals its count of distinct resident instances, which
        # is what Placement._validate limits by
        # ``max_workloads_per_node``: one bound covers both that limit
        # and the slot capacity.
        self._node_limit = min(
            self.unit_slots_per_node, cluster_spec.max_workloads_per_node
        )
        self._base_fits = all(
            0 <= node < cluster_spec.num_nodes
            and len(units) <= self._node_limit
            for node, units in self._residents.items()
        )

    def fits(self, nodes: Sequence[int]) -> bool:
        """Whether :func:`placement_with_job` accepts the job on ``nodes``."""
        if not self._base_fits or len(nodes) != self.job.num_units:
            return False
        if len(set(nodes)) != len(nodes):
            return False
        for node in nodes:
            if not 0 <= node < self.cluster_spec.num_nodes:
                return False
            if len(self._residents.get(node, ())) >= self._node_limit:
                return False
        return True

    def candidates(
        self, free: Sequence[int], limit: int
    ) -> List[Tuple[int, ...]]:
        """The node sets among the first ``limit`` combinations that fit.

        Combinations of ``free`` are enumerated in sorted order and the
        cap applies before the fit check, so the cut is deterministic.
        """
        return [
            nodes
            for nodes in islice(
                combinations(free, self.job.num_units), limit
            )
            if self.fits(nodes)
        ]

    def placement_for(self, nodes: Sequence[int]) -> Placement:
        """The candidate on ``nodes``, fully validated."""
        return placement_with_job(
            self.placement,
            self.cluster_spec,
            self.job,
            nodes,
            unit_slots_per_node=self.unit_slots_per_node,
        )

    def predict(
        self,
        model,
        node_sets: Sequence[Sequence[int]],
        *,
        degraded: Collection[str] = frozenset(),
    ) -> np.ndarray:
        """Per-candidate, per-instance predictions, by delta.

        Row ``c`` holds candidate ``node_sets[c]``'s predictions in
        :attr:`instances` order, every float equal to
        :func:`~repro.placement.objectives.predict_placement` of the
        materialized candidate.  ``model`` must offer
        ``predict_corunners_batch``.
        Instances of a ``degraded`` workload get the conservative
        ALL-max prediction where it is higher
        (:func:`~repro.faults.degradation.conservative_prediction`),
        counted per raised cell in ``fault.degraded_prediction``.
        """
        base_count = len(self.instances) - 1
        if not node_sets:
            return np.empty((0, base_count + 1), dtype=float)
        workload = self.job.workload
        residents = self._residents
        spans = self._spans
        # Requests, one per distinct (workload, co-runner layout): the
        # prediction reads only the co-runner workloads per spanned node
        # in node order, so instances sharing a layout share a value.
        items: List[Tuple[str, Tuple[Tuple[str, ...], ...]]] = []
        positions: Dict[tuple, int] = {}

        def request(name: str, layout: Tuple[Tuple[str, ...], ...]) -> int:
            position = positions.get((name, layout))
            if position is None:
                position = positions[(name, layout)] = len(items)
                items.append((name, layout))
            return position

        tenant_items: Dict[Tuple[int, Tuple[int, ...]], int] = {}

        def tenant_item(column: int, chosen: Collection[int]) -> int:
            """Item position of ``column`` with the job on ``chosen``."""
            shared = tuple(node for node in spans[column] if node in chosen)
            position = tenant_items.get((column, shared))
            if position is None:
                position = tenant_items[(column, shared)] = request(
                    self.instances[column].workload,
                    tuple(
                        tuple(
                            other for resident, other in residents[node]
                            if resident != column
                        ) + ((workload,) if node in shared else ())
                        for node in spans[column]
                    ),
                )
            return position

        # The job's co-runners on a node: every resident there.
        job_views = {
            node: tuple(other for _, other in units)
            for node, units in residents.items()
        }

        def job_item(nodes: Sequence[int]) -> int:
            return request(
                workload, tuple(job_views.get(node, ()) for node in sorted(nodes))
            )

        rows = np.empty((len(node_sets), base_count + 1), dtype=np.intp)
        # Candidate 0's items come first, in instance order, so an
        # anomaly's scalar replay (item order) walks candidate 0 the way
        # predict_placement_scalar does and raises the same error.
        first = set(node_sets[0])
        for column in range(base_count):
            rows[0, column] = tenant_item(column, first)
        rows[0, base_count] = job_item(node_sets[0])
        rows[1:, :base_count] = [
            tenant_item(column, ()) for column in range(base_count)
        ]
        for row, nodes in enumerate(node_sets[1:], start=1):
            chosen = set(nodes)
            for column in {
                column
                for node in nodes
                for column, _ in residents.get(node, ())
            }:
                rows[row, column] = tenant_item(column, chosen)
            rows[row, base_count] = job_item(nodes)

        values = model.predict_corunners_batch(items)
        if degraded:
            raised = np.zeros(len(items), dtype=bool)
            for position, (name, layout) in enumerate(items):
                if name not in degraded:
                    continue
                conservative = conservative_prediction(
                    model, name, range(len(layout)), dict(enumerate(layout))
                )
                # Degradation only ever raises a prediction: the model's
                # own estimate still applies when it is already worse.
                if conservative > values[position]:
                    values[position] = conservative
                    raised[position] = True
            count = int(raised[rows].sum())
            if count:
                _obs.RECORDER.count("fault.degraded_prediction", count)
        return values[rows]


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission attempt.

    ``placement``/``predictions`` are populated only when admitted;
    ``candidates_evaluated`` counts the candidate node sets the
    controller predicted before deciding (its work measure).
    """

    job: Job
    admitted: bool
    reason: str
    placement: Optional[Placement] = None
    predictions: Optional[Dict[str, float]] = None
    candidates_evaluated: int = 0


class AdmissionController:
    """Predictive admission control over free unit slots.

    Parameters
    ----------
    model:
        Prediction model exposing ``predict_under_corunners`` (the
        static :class:`~repro.core.model.InterferenceModel` or the
        learning :class:`~repro.core.online.OnlineModel`).
    cluster_spec:
        Cluster shape.
    unit_slots_per_node:
        Units per host (2 on the paper's testbed); used when admitting
        into an empty cluster.
    max_candidates:
        Cap on node combinations evaluated per decision, so admission
        latency stays bounded on large clusters.  Combinations are
        enumerated in sorted node order, so the cap cuts the tail
        deterministically.
    degraded_workloads:
        Live set of workloads whose profiles rest on measurement
        fallbacks (shared with
        :attr:`~repro.sim.runner.ClusterRunner.faulted_workloads`).
        Predictions for these fall back to the conservative ALL-max
        mapping (:func:`repro.faults.degradation.conservative_prediction`),
        so a workload the profiler could not measure reliably is never
        the reason a QoS bound is optimistically waved through.
    capacity:
        Optional :class:`~repro.providers.base.CapacityProvider`.  When
        set, admission is *capacity-aware*: only the provider's
        schedulable (live, non-draining) nodes count as free, and
        mission-critical jobs are additionally restricted to durable
        nodes — a tenant with a QoS bound can never land on spot
        capacity that might be preempted out from under it.  ``None``
        (the default, and any non-elastic provider's effective
        behaviour) reproduces the fixed-pool decisions bit for bit.
    """

    def __init__(
        self,
        model,
        cluster_spec: ClusterSpec,
        *,
        unit_slots_per_node: int = 2,
        max_candidates: int = 4096,
        degraded_workloads: Optional[Set[str]] = None,
        capacity=None,
    ) -> None:
        if max_candidates <= 0:
            raise ServiceError("max_candidates must be positive")
        self.model = model
        self.cluster_spec = cluster_spec
        self.unit_slots_per_node = unit_slots_per_node
        self.max_candidates = max_candidates
        self.degraded_workloads = (
            degraded_workloads if degraded_workloads is not None else set()
        )
        self.capacity = capacity

    def _predict(self, candidate: Placement) -> Dict[str, float]:
        """Per-instance predictions, conservatively for degraded workloads.

        The scalar reference path: :meth:`try_admit` scores candidate
        waves by delta (:class:`CandidateWave`) instead whenever the
        model supports it, with bit-identical results.
        """
        predictions = predict_placement_scalar(self.model, candidate)
        if not self.degraded_workloads or not supports_degradation(self.model):
            return predictions
        for spec in candidate.instances:
            if spec.workload not in self.degraded_workloads:
                continue
            key = spec.instance_key
            conservative = conservative_prediction(
                self.model,
                spec.workload,
                candidate.spanned_nodes(key),
                candidate.co_runner_workloads(key),
            )
            # Degradation only ever raises a prediction: the model's
            # own estimate still applies when it is already worse.
            if conservative > predictions[key]:
                predictions[key] = conservative
                _obs.RECORDER.count("fault.degraded_prediction")
        return predictions

    # ------------------------------------------------------------------
    def free_slots(self, placement: Optional[Placement]) -> Dict[int, int]:
        """Free unit slots per schedulable node, in sorted node order.

        Nodes without a free slot are left out.  Only schedulable nodes
        count: units on a draining node hold capacity that admission
        can no longer grant anyway.  The scale layer's
        :class:`~repro.scale.router.HeadroomRouter` probes and ranks
        cells over this same inventory.
        """
        load: Dict[int, int] = {}
        if placement is not None:
            for spec in placement.instances:
                for node in placement.nodes_of(spec.instance_key):
                    load[node] = load.get(node, 0) + 1
        slots = (
            placement.unit_slots_per_node
            if placement is not None
            else self.unit_slots_per_node
        )
        if self.capacity is not None:
            pool = self.capacity.schedulable_nodes()
        else:
            pool = range(self.cluster_spec.num_nodes)
        return {
            node: slots - load.get(node, 0)
            for node in pool
            if load.get(node, 0) < slots
        }

    @staticmethod
    def _constraints(
        tenants: Sequence[Job], job: Job
    ) -> List[QoSConstraint]:
        constraints = [
            tenant.qos_constraint()
            for tenant in tenants
            if tenant.mission_critical
        ]
        if job.mission_critical:
            constraints.append(job.qos_constraint())
        return [c for c in constraints if c is not None]

    # ------------------------------------------------------------------
    def try_admit(
        self,
        placement: Optional[Placement],
        tenants: Sequence[Job],
        job: Job,
    ) -> AdmissionDecision:
        """Decide whether ``job`` can join the current placement.

        Parameters
        ----------
        placement:
            Where the tenants currently sit (``None`` for an empty
            cluster).
        tenants:
            The resident jobs, in placement order.
        job:
            The candidate.
        """
        free = list(self.free_slots(placement))
        if len(free) < job.num_units:
            return AdmissionDecision(job, False, NO_CAPACITY)
        if self.capacity is not None and job.mission_critical:
            durable = set(self.capacity.durable_nodes())
            free = [node for node in free if node in durable]
            if len(free) < job.num_units:
                return AdmissionDecision(job, False, NO_DURABLE_CAPACITY)
        constraints = self._constraints(tenants, job)
        wave = CandidateWave(
            placement,
            job,
            self.cluster_spec,
            unit_slots_per_node=self.unit_slots_per_node,
        )
        node_sets = wave.candidates(free, self.max_candidates)
        evaluated = len(node_sets)
        if not node_sets:
            return AdmissionDecision(
                job, False, NO_CAPACITY, candidates_evaluated=0
            )
        if hasattr(self.model, "predict_corunners_batch"):
            best = self._select_wave(wave, node_sets, constraints)
        else:
            best = self._select_scalar(
                [wave.placement_for(nodes) for nodes in node_sets],
                constraints,
            )
        if best is None:
            return AdmissionDecision(
                job, False, QOS_INFEASIBLE, candidates_evaluated=evaluated
            )
        chosen, predictions = best
        return AdmissionDecision(
            job,
            True,
            ADMITTED,
            placement=chosen,
            predictions=predictions,
            candidates_evaluated=evaluated,
        )

    def decision_still_valid(self, decision: AdmissionDecision) -> bool:
        """Whether an admitted decision's nodes are still schedulable.

        An elastic pool can lose a node between the admission
        prediction and the commit (a preemption reclaim racing the
        admit phase).  The service checks here before binding the job;
        a stale decision is requeued rather than raising deep inside
        the epoch body.  Always ``True`` without a capacity hook — the
        fixed pool cannot vanish.
        """
        if self.capacity is None or not decision.admitted:
            return True
        nodes = set(
            decision.placement.nodes_of(decision.job.job_id)
        )
        if not nodes <= set(self.capacity.schedulable_nodes()):
            return False
        if decision.job.mission_critical:
            return nodes <= set(self.capacity.durable_nodes())
        return True

    def _select_scalar(
        self,
        candidates: Sequence[Placement],
        constraints: Sequence[QoSConstraint],
    ) -> Optional[Tuple[Placement, Dict[str, float]]]:
        """Reference selection: predict candidates one at a time."""
        best: Optional[Tuple[float, Placement, Dict[str, float]]] = None
        for candidate in candidates:
            predictions = self._predict(candidate)
            if any(not c.satisfied_by(predictions) for c in constraints):
                continue
            total = weighted_total_time(predictions, candidate)
            if best is None or total < best[0]:
                best = (total, candidate, predictions)
        if best is None:
            return None
        return best[1], best[2]

    def _select_wave(
        self,
        wave: CandidateWave,
        node_sets: Sequence[Sequence[int]],
        constraints: Sequence[QoSConstraint],
    ) -> Optional[Tuple[Placement, Dict[str, float]]]:
        """Score the whole candidate wave by delta, as one matrix.

        Bit-identical to :meth:`_select_scalar`: predictions replay the
        scalar float operations (see :mod:`repro.core.kernel`), the
        degraded-workload conservative ALL-max override applies
        per cell with the same replacement rule, and the winner is the
        *first* feasible candidate attaining the minimum total — the
        same deterministic sorted-enumeration tie-break as the scalar
        ``total < best`` scan.
        """
        predictions = wave.predict(
            self.model,
            node_sets,
            degraded=(
                self.degraded_workloads
                if supports_degradation(self.model)
                else frozenset()
            ),
        )
        keys = [spec.instance_key for spec in wave.instances]
        feasible = np.ones(len(node_sets), dtype=bool)
        for constraint in constraints:
            column = keys.index(constraint.instance_key)
            feasible &= (
                predictions[:, column] <= constraint.max_normalized_time
            )
        chosen = np.flatnonzero(feasible)
        if chosen.size == 0:
            return None
        # Same summation order as ``weighted_total_time``: one
        # instance-weight term at a time, accumulated left to right.
        totals = np.zeros(len(node_sets), dtype=float)
        for column, spec in enumerate(wave.instances):
            totals = totals + spec.weight * predictions[:, column]
        winner = int(chosen[np.argmin(totals[chosen])])
        return wave.placement_for(node_sets[winner]), {
            key: float(value)
            for key, value in zip(keys, predictions[winner])
        }
