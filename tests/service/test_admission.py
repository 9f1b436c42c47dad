"""Tests for the QoS admission controller."""

import pytest

from repro.cluster.cluster import ClusterSpec
from repro.errors import ServiceError
from repro.service.admission import (
    ADMITTED,
    NO_CAPACITY,
    QOS_INFEASIBLE,
    AdmissionController,
    placement_with_job,
    placement_without_job,
)
from repro.service.jobs import Job

from tests.service._fake import FakeModel

SPEC_4 = ClusterSpec(num_nodes=4)
SPEC_8 = ClusterSpec(num_nodes=8)


def admit_all(controller, jobs):
    """Admit a sequence of jobs, returning (placement, tenants)."""
    placement, tenants = None, []
    for job in jobs:
        decision = controller.try_admit(placement, tenants, job)
        assert decision.admitted, f"{job.job_id}: {decision.reason}"
        placement = decision.placement
        tenants.append(job)
    return placement, tenants


class TestPlacementSurgery:
    def test_with_then_without_roundtrip(self):
        job_a = Job("a", "wl", num_units=2)
        job_b = Job("b", "wl", num_units=2)
        placed_a = placement_with_job(None, SPEC_4, job_a, [0, 1])
        both = placement_with_job(placed_a, SPEC_4, job_b, [2, 3])
        assert both.nodes_of("a") == (0, 1)
        assert both.nodes_of("b") == (2, 3)
        only_a = placement_without_job(both, "b")
        assert only_a is not None
        assert only_a.nodes_of("a") == (0, 1)
        assert placement_without_job(only_a, "a") is None

    def test_duplicate_job_rejected(self):
        job = Job("a", "wl", num_units=2)
        placement = placement_with_job(None, SPEC_4, job, [0, 1])
        with pytest.raises(ServiceError):
            placement_with_job(placement, SPEC_4, job, [2, 3])

    def test_unknown_eviction_rejected(self):
        placement = placement_with_job(None, SPEC_4, Job("a", "wl"), [0, 1, 2, 3])
        with pytest.raises(ServiceError):
            placement_without_job(placement, "ghost")


class TestCapacity:
    def test_admits_into_empty_cluster(self):
        controller = AdmissionController(FakeModel(), SPEC_4)
        decision = controller.try_admit(None, [], Job("a", "wl", num_units=4))
        assert decision.admitted and decision.reason == ADMITTED
        assert decision.placement is not None
        assert decision.predictions == {"a": 1.0}

    def test_rejects_when_full(self):
        controller = AdmissionController(FakeModel(), SPEC_4)
        placement, tenants = admit_all(
            controller,
            [Job("a", "wl", num_units=4), Job("b", "wl", num_units=4)],
        )
        decision = controller.try_admit(
            placement, tenants, Job("c", "wl", num_units=4)
        )
        assert not decision.admitted
        assert decision.reason == NO_CAPACITY
        assert decision.placement is None

    def test_rejects_oversized_job(self):
        controller = AdmissionController(FakeModel(), SPEC_4)
        decision = controller.try_admit(None, [], Job("a", "wl", num_units=5))
        assert not decision.admitted and decision.reason == NO_CAPACITY

    def test_never_moves_existing_tenants(self):
        controller = AdmissionController(FakeModel(), SPEC_8)
        placement, tenants = admit_all(
            controller, [Job("a", "wl", num_units=4)]
        )
        before = placement.nodes_of("a")
        decision = controller.try_admit(
            placement, tenants, Job("b", "wl", num_units=4)
        )
        assert decision.admitted
        assert decision.placement.nodes_of("a") == before


class TestQoSGate:
    def test_prefers_interference_free_nodes(self):
        controller = AdmissionController(FakeModel(penalty=0.2), SPEC_8)
        placement, tenants = admit_all(
            controller, [Job("a", "wl", num_units=4)]
        )
        decision = controller.try_admit(
            placement, tenants, Job("b", "wl", num_units=4)
        )
        assert decision.admitted
        occupied = set(placement.nodes_of("a"))
        assert not occupied & set(decision.placement.nodes_of("b"))
        assert decision.predictions == {"a": 1.0, "b": 1.0}

    def test_rejects_job_that_would_break_tenant_bound(self):
        # The tenant spans every node, so any arrival must share one;
        # sharing predicts the tenant at 1.2, beyond its 1.1 bound.
        controller = AdmissionController(FakeModel(penalty=0.2), SPEC_4)
        tenant = Job("critical", "wl", num_units=4, qos_target=1.1)
        placement, tenants = admit_all(controller, [tenant])
        decision = controller.try_admit(
            placement, tenants, Job("b", "wl", num_units=2)
        )
        assert not decision.admitted
        assert decision.reason == QOS_INFEASIBLE
        assert decision.candidates_evaluated > 0

    def test_rejects_job_whose_own_bound_cannot_hold(self):
        controller = AdmissionController(FakeModel(penalty=0.2), SPEC_4)
        placement, tenants = admit_all(
            controller, [Job("a", "wl", num_units=4)]
        )
        decision = controller.try_admit(
            placement, tenants, Job("b", "wl", num_units=2, qos_target=1.1)
        )
        assert not decision.admitted
        assert decision.reason == QOS_INFEASIBLE

    def test_admits_when_bound_is_loose_enough(self):
        controller = AdmissionController(FakeModel(penalty=0.2), SPEC_4)
        tenant = Job("critical", "wl", num_units=4, qos_target=1.25)
        placement, tenants = admit_all(controller, [tenant])
        decision = controller.try_admit(
            placement, tenants, Job("b", "wl", num_units=2, qos_target=1.25)
        )
        assert decision.admitted
        # The invariant the service relies on: predicted times of every
        # mission-critical resident stay inside their bounds.
        for job in [tenant, decision.job]:
            constraint = job.qos_constraint()
            assert constraint.satisfied_by(decision.predictions)

    def test_decisions_are_deterministic(self):
        def decide():
            controller = AdmissionController(FakeModel(penalty=0.1), SPEC_8)
            placement, tenants = admit_all(
                controller,
                [Job("a", "wl", num_units=4), Job("b", "wl", num_units=3)],
            )
            return controller.try_admit(
                placement, tenants, Job("c", "wl", num_units=3)
            )

        first, second = decide(), decide()
        assert first.admitted == second.admitted
        assert first.placement.nodes_of("c") == second.placement.nodes_of("c")


class TestValidation:
    def test_max_candidates_positive(self):
        with pytest.raises(ServiceError):
            AdmissionController(FakeModel(), SPEC_4, max_candidates=0)

    def test_candidate_cap_bounds_work(self):
        controller = AdmissionController(FakeModel(), SPEC_8, max_candidates=3)
        decision = controller.try_admit(None, [], Job("a", "wl", num_units=2))
        assert decision.admitted
        assert decision.candidates_evaluated <= 3


# ----------------------------------------------------------------------
# Batch-vs-scalar identity (the vectorized admission wave)
# ----------------------------------------------------------------------
#
# With a real InterferenceModel the controller scores whole candidate
# waves through the batch kernel; a model stripped of the batch
# interface forces the scalar reference path.  Decisions must be
# bit-identical either way — including the degraded-workload
# conservative override and its fault counter.

import random

import numpy as np

from repro.core.curves import PropagationMatrix
from repro.core.model import InterferenceModel, InterferenceProfile
from repro.obs.recorder import recording


class _ScalarOnlyModel:
    _HIDDEN = frozenset(
        {
            "predict_batch",
            "predict_placements_batch",
            "prediction_kernel",
        }
    )

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        if name in _ScalarOnlyModel._HIDDEN:
            raise AttributeError(name)
        return getattr(self._model, name)


def _real_model(rng, num_workloads=3):
    policies = ("N MAX", "N+1 MAX", "ALL MAX", "INTERPOLATE")
    profiles = {}
    for i in range(num_workloads):
        name = f"app{i}"
        counts = list(range(rng.randint(3, 5)))
        pressures = sorted(rng.uniform(1.0, 9.0) for _ in range(3))
        values = np.array(
            [
                [1.0 + rng.random() * p * (c + 1) / 10.0 for c in counts]
                for p in pressures
            ]
        )
        profiles[name] = InterferenceProfile(
            workload=name,
            matrix=PropagationMatrix(pressures, counts, values),
            policy_name=policies[i % len(policies)],
            bubble_score=rng.uniform(0.5, 8.0),
        )
    return InterferenceModel(profiles)


def _decisions_equal(batch, scalar):
    assert batch.admitted == scalar.admitted
    assert batch.reason == scalar.reason
    assert batch.candidates_evaluated == scalar.candidates_evaluated
    assert batch.predictions == scalar.predictions
    if batch.placement is None:
        assert scalar.placement is None
    else:
        assert {
            s.instance_key: batch.placement.nodes_of(s.instance_key)
            for s in batch.placement.instances
        } == {
            s.instance_key: scalar.placement.nodes_of(s.instance_key)
            for s in scalar.placement.instances
        }


class TestBatchScalarIdentity:
    def _wave(self, seed, *, degraded=frozenset()):
        """Admit a stream of jobs twice (batch model vs scalar-only)."""
        rng = random.Random(seed)
        model = _real_model(rng)
        workloads = sorted(model.workloads)
        spec = ClusterSpec(num_nodes=rng.randint(8, 14))
        jobs = [
            Job(
                job_id=f"job-{i}",
                workload=rng.choice(workloads),
                num_units=rng.randint(1, 4),
                qos_target=rng.choice([None, 2.0, 3.5]),
            )
            for i in range(rng.randint(4, 8))
        ]
        outcomes = []
        for wrapped in (model, _ScalarOnlyModel(model)):
            controller = AdmissionController(
                wrapped, spec, degraded_workloads=set(degraded)
            )
            placement, tenants, decisions = None, [], []
            with recording() as rec:
                for job in jobs:
                    decision = controller.try_admit(placement, tenants, job)
                    decisions.append(decision)
                    if decision.admitted:
                        placement = decision.placement
                        tenants.append(job)
            outcomes.append((decisions, rec.counter("fault.degraded_prediction")))
        return outcomes

    @pytest.mark.parametrize("seed", range(6))
    def test_admission_stream_identical(self, seed):
        (batch, _), (scalar, _) = self._wave(seed)
        assert len(batch) == len(scalar)
        for b, s in zip(batch, scalar):
            _decisions_equal(b, s)

    @pytest.mark.parametrize("seed", range(4))
    def test_degraded_override_identical(self, seed):
        (batch, batch_count), (scalar, scalar_count) = self._wave(
            50 + seed, degraded={"app0", "app2"}
        )
        for b, s in zip(batch, scalar):
            _decisions_equal(b, s)
        # The conservative-override counter totals must also agree:
        # both paths raise exactly the same predictions.
        assert batch_count == scalar_count

    def test_degraded_override_counts_something(self):
        # Sanity: the degraded sweep actually exercises the override.
        totals = [
            self._wave(50 + seed, degraded={"app0", "app2"})[0][1]
            for seed in range(4)
        ]
        assert any(total > 0 for total in totals)


# ----------------------------------------------------------------------
# Capacity-aware admission (the elastic provider hook)
# ----------------------------------------------------------------------

from repro.faults import FaultConfig, FaultPlan
from repro.providers import ElasticProvider
from repro.service.admission import NO_DURABLE_CAPACITY


def _elastic(spot_reclaimed=False):
    """A 4-node pool: durable {0, 1}, spot {2, 3} (optionally reclaimed)."""
    churn = FaultPlan(FaultConfig(
        seed=0,
        preemption_rate=1.0 if spot_reclaimed else 0.0,
        preemption_warning_epochs=0,
    ))
    provider = ElasticProvider(
        4, initial_nodes=4, spot_fraction=0.5, churn=churn,
    )
    if spot_reclaimed:
        provider.poll(0)
    return provider


class TestCapacityAwareness:
    def test_free_nodes_exclude_nonschedulable_capacity(self):
        provider = _elastic(spot_reclaimed=True)
        controller = AdmissionController(FakeModel(), SPEC_4,
                                         capacity=provider)
        assert controller.free_nodes(None) == [0, 1]

    def test_mission_critical_only_on_durable_nodes(self):
        controller = AdmissionController(FakeModel(), SPEC_4,
                                         capacity=_elastic())
        decision = controller.try_admit(
            None, [], Job("mc", "wl", num_units=2, qos_target=2.0)
        )
        assert decision.admitted
        assert set(decision.placement.nodes_of("mc")) <= {0, 1}

    def test_mission_critical_rejected_when_only_spot_remains(self):
        controller = AdmissionController(FakeModel(), SPEC_4,
                                         capacity=_elastic())
        decision = controller.try_admit(
            None, [], Job("mc", "wl", num_units=3, qos_target=2.0)
        )
        assert not decision.admitted
        assert decision.reason == NO_DURABLE_CAPACITY

    def test_batch_jobs_may_use_spot_capacity(self):
        controller = AdmissionController(FakeModel(), SPEC_4,
                                         capacity=_elastic())
        decision = controller.try_admit(
            None, [], Job("batch", "wl", num_units=4)
        )
        assert decision.admitted
        assert set(decision.placement.nodes_of("batch")) == {0, 1, 2, 3}


class TestVanishedNodeRace:
    """A reclaim racing the admit phase must requeue, never raise."""

    def test_decision_still_valid_tracks_pool_loss(self):
        provider = _elastic()
        controller = AdmissionController(FakeModel(), SPEC_4,
                                         capacity=provider)
        decision = controller.try_admit(
            None, [], Job("batch", "wl", num_units=4)
        )
        assert decision.admitted
        assert controller.decision_still_valid(decision)
        provider.churn = FaultPlan(FaultConfig(
            seed=0, preemption_rate=1.0, preemption_warning_epochs=0,
        ))
        provider.poll(0)  # spot nodes 2, 3 vanish under the decision
        assert not controller.decision_still_valid(decision)

    def test_without_capacity_decisions_never_go_stale(self):
        controller = AdmissionController(FakeModel(), SPEC_4)
        decision = controller.try_admit(
            None, [], Job("batch", "wl", num_units=4)
        )
        assert controller.decision_still_valid(decision)

    def test_unadmitted_decisions_are_trivially_valid(self):
        controller = AdmissionController(FakeModel(), SPEC_4,
                                         capacity=_elastic())
        decision = controller.try_admit(
            None, [], Job("big", "wl", num_units=5)
        )
        assert not decision.admitted
        assert controller.decision_still_valid(decision)

    def test_mission_critical_decision_stales_if_durable_drains(self):
        provider = _elastic()
        controller = AdmissionController(FakeModel(), SPEC_4,
                                         capacity=provider)
        decision = controller.try_admit(
            None, [], Job("mc", "wl", num_units=2, qos_target=2.0)
        )
        assert decision.admitted
        # A durable node can never drain in production; simulate the
        # defensive branch by shrinking it out from under the decision.
        provider.shrink([0], epoch=0)
        assert not controller.decision_still_valid(decision)

    def test_service_requeues_instead_of_raising(self):
        # White-box replay of the race at the service layer: a queued
        # job's admission decision goes stale between prediction and
        # commit.  The service logs job_requeue (reason node-vanished)
        # and keeps the job queued without burning a retry.
        from repro.service.loop import ConsolidationService, _QueuedJob
        from repro.service.stream import FixedStream
        from tests._synthetic import quiet_runner

        provider = _elastic()
        runner = quiet_runner(num_nodes=4)
        service = ConsolidationService(
            runner, FakeModel(), FixedStream(), provider=provider,
        )
        # The scalar FakeModel lacks the batch interface the OnlineModel
        # wrapper advertises; point the controller at it directly.
        service.admission.model = FakeModel()
        job = Job("batch", "A", num_units=4)
        service._queue.append(_QueuedJob(job))

        original = service.admission.decision_still_valid
        race = {"armed": True}

        def stale_once(decision):
            if race.pop("armed", False):
                provider.churn = FaultPlan(FaultConfig(
                    seed=0, preemption_rate=1.0,
                    preemption_warning_epochs=0,
                ))
                provider.poll(0)  # the reclaim lands mid-admit
                return original(decision)
            return original(decision)

        service.admission.decision_still_valid = stale_once
        service._admit(0)

        requeues = service.log.of_kind("job_requeue")
        assert len(requeues) == 1
        payload = dict(requeues[0].payload)
        assert payload["job"] == "batch"
        assert payload["reason"] == "node-vanished"
        assert service.queue_depth == 1
        assert service._queue[0].failures == 0
        assert service.requeued_total == 1
        assert service.tenants == []
