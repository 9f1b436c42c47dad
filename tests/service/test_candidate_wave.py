"""Differential tests for the delta scorer (:class:`CandidateWave`).

The wave re-predicts only the arriving job and the tenants on its
candidate nodes, and carries every other prediction over from the
current placement.  These tests pin it, by ``==``, to the full path
over materialized candidates (the batch
:func:`~repro.placement.objectives.predict_placement` and the scalar
:func:`~repro.placement.objectives.predict_placement_scalar` walk, plus
the scalar conservative override), and pin admission and router
decisions to the scalar oracle, over generated configurations: static
and online models, NETWORK profiles, degraded workloads, 3-slot nodes,
empty placements and unknown workloads.
"""

import random
from itertools import combinations, islice
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.cluster import ClusterSpec
from repro.core.curves import PropagationMatrix
from repro.core.model import InterferenceModel, InterferenceProfile
from repro.core.online import OnlineModel
from repro.errors import ModelError, PlacementError, ServiceError
from repro.faults.degradation import conservative_prediction
from repro.obs.recorder import recording
from repro.placement.assignment import InstanceSpec, Placement
from repro.placement.objectives import (
    predict_placement,
    predict_placement_scalar,
)
from repro.scale.router import HeadroomRouter
from repro.service.admission import (
    AdmissionController,
    CandidateWave,
    placement_with_job,
)
from repro.service.jobs import Job

from tests.service.test_admission import _ScalarOnlyModel, _decisions_equal

POLICIES = ("N MAX", "N+1 MAX", "ALL MAX", "INTERPOLATE")

#: Small example budget: each example builds a model and a wave.
WAVE_SETTINGS = settings(max_examples=30, deadline=None)


def _matrix(rng):
    counts = list(range(rng.randint(3, 5)))
    pressures = sorted(rng.uniform(0.5, 9.0) for _ in range(rng.randint(2, 4)))
    values = np.array(
        [
            [1.0 + rng.random() * p * (c + 1) / 8.0 for c in counts]
            for p in pressures
        ]
    )
    return PropagationMatrix(pressures, counts, values)


def _model(rng, *, network=False, num_workloads=4):
    profiles = {}
    for i in range(num_workloads):
        name = f"w{i}"
        # With ``network`` on, every other workload carries a NETWORK
        # profile, so combined and compute-only instances mix.
        networked = network and i % 2 == 0
        profiles[name] = InterferenceProfile(
            workload=name,
            matrix=_matrix(rng),
            policy_name=POLICIES[i % len(POLICIES)],
            bubble_score=rng.uniform(0.0, 8.0),
            network_matrix=_matrix(rng) if networked else None,
            network_score=rng.uniform(0.5, 6.0) if network else 0.0,
        )
    return InterferenceModel(profiles)


def _online(base, rng, observations):
    online = OnlineModel(base)
    for workload, predicted, measured in observations:
        online.observe(workload, predicted=predicted, measured=measured)
    return online


def _observations(rng, base):
    return [
        (
            rng.choice(base.workloads[1:]),
            rng.uniform(1.0, 3.0),
            rng.uniform(1.0, 3.0),
        )
        for _ in range(rng.randint(1, 5))
    ]


def _placement(rng, workloads, spec, slots, num_instances):
    """A random valid placement under ``slots`` and the spec's limit."""
    limit = min(slots, spec.max_workloads_per_node)
    load = {node: 0 for node in range(spec.num_nodes)}
    instances, assignment = [], {}
    for i in range(num_instances):
        units = rng.randint(1, 4)
        open_nodes = [node for node, used in load.items() if used < limit]
        if len(open_nodes) < units:
            break
        nodes = rng.sample(open_nodes, units)
        for node in nodes:
            load[node] += 1
        key = f"t{i}"
        instances.append(
            InstanceSpec(key, rng.choice(workloads), units, rng.choice([1.0, 2.0]))
        )
        assignment[key] = tuple(nodes)
    return Placement(spec, instances, assignment, unit_slots_per_node=slots)


def _scenario(seed, *, slots, max_workloads, network, empty):
    rng = random.Random(seed)
    base = _model(rng, network=network)
    spec = ClusterSpec(
        num_nodes=rng.randint(5, 12), max_workloads_per_node=max_workloads
    )
    placement = (
        None
        if empty
        else _placement(rng, base.workloads, spec, slots, rng.randint(1, 12))
    )
    job = Job("arrival", rng.choice(base.workloads), num_units=rng.randint(1, 4))
    wave = CandidateWave(placement, job, spec, unit_slots_per_node=slots)
    controller = AdmissionController(base, spec, unit_slots_per_node=slots)
    free = list(controller.free_slots(placement))
    node_sets = wave.candidates(free, rng.randint(1, 60))
    return rng, base, wave, node_sets


def _reference(model, wave, node_sets, degraded=frozenset()):
    """The full path: materialize, predict, override per cell."""
    candidates = [wave.placement_for(nodes) for nodes in node_sets]
    matrix = np.empty((len(candidates), len(wave.instances)), dtype=float)
    for row, candidate in enumerate(candidates):
        scalar = predict_placement_scalar(model, candidate)
        assert predict_placement(model, candidate) == scalar
        matrix[row] = [
            scalar[spec.instance_key] for spec in candidate.instances
        ]
    raised = 0
    for row, candidate in enumerate(candidates):
        for column, spec in enumerate(candidate.instances):
            if spec.workload not in degraded:
                continue
            conservative = conservative_prediction(
                model,
                spec.workload,
                candidate.spanned_nodes(spec.instance_key),
                candidate.co_runner_workloads(spec.instance_key),
            )
            if conservative > matrix[row, column]:
                matrix[row, column] = conservative
                raised += 1
    return matrix, raised


def _assert_same(got, expected):
    assert got.shape == expected.shape
    assert got.dtype == expected.dtype
    assert (got == expected).all()


flags = dict(
    seed=st.integers(0, 2**16),
    slots=st.sampled_from([2, 3]),
    max_workloads=st.sampled_from([2, 3]),
    network=st.booleans(),
    empty=st.booleans(),
)


class TestWaveMatchesMaterializedCandidates:
    @WAVE_SETTINGS
    @given(**flags)
    def test_static_model(self, seed, slots, max_workloads, network, empty):
        _, model, wave, node_sets = _scenario(
            seed, slots=slots, max_workloads=max_workloads,
            network=network, empty=empty,
        )
        if not node_sets:
            return
        expected, _ = _reference(model, wave, node_sets)
        _assert_same(wave.predict(model, node_sets), expected)

    @WAVE_SETTINGS
    @given(**flags)
    def test_online_model(self, seed, slots, max_workloads, network, empty):
        rng, base, wave, node_sets = _scenario(
            seed, slots=slots, max_workloads=max_workloads,
            network=network, empty=empty,
        )
        if not node_sets:
            return
        observations = _observations(rng, base)
        by_wave = _online(base, rng, observations)
        by_matrix = _online(base, rng, observations)
        expected, _ = _reference(by_matrix, wave, node_sets)
        _assert_same(wave.predict(by_wave, node_sets), expected)
        # Corrections scale the combined compute x network value, and
        # every column's workload (the job's included) has its
        # correction state touched exactly as the full path does.
        assert by_wave.state_dict() == by_matrix.state_dict()

    @WAVE_SETTINGS
    @given(**flags, online=st.booleans())
    def test_degraded_override_and_counter(
        self, seed, slots, max_workloads, network, empty, online
    ):
        rng, base, wave, node_sets = _scenario(
            seed, slots=slots, max_workloads=max_workloads,
            network=network, empty=empty,
        )
        if not node_sets:
            return
        model = _online(base, rng, _observations(rng, base)) if online else base
        degraded = set(rng.sample(base.workloads, 2)) | {wave.job.workload}
        expected, raised = _reference(model, wave, node_sets, degraded)
        with recording() as rec:
            got = wave.predict(model, node_sets, degraded=degraded)
        _assert_same(got, expected)
        assert rec.counter("fault.degraded_prediction") == raised

    def test_degraded_sweep_raises_something(self):
        # Sanity: the generated scenarios do exercise the override.
        total = 0
        for seed in range(20):
            _, model, wave, node_sets = _scenario(
                seed, slots=2, max_workloads=2, network=False, empty=False
            )
            if node_sets:
                total += _reference(
                    model, wave, node_sets, set(model.workloads)
                )[1]
        assert total > 0

    @WAVE_SETTINGS
    @given(**flags, picks=st.lists(st.integers(-1, 13), min_size=1, max_size=5))
    def test_fits_rejects_exactly_what_validation_rejects(
        self, seed, slots, max_workloads, network, empty, picks
    ):
        _, _, wave, _ = _scenario(
            seed, slots=slots, max_workloads=max_workloads,
            network=network, empty=empty,
        )
        nodes = tuple(picks[: wave.job.num_units])
        try:
            wave.placement_for(nodes)
            accepted = True
        except PlacementError:
            accepted = False
        assert wave.fits(nodes) == accepted

    def test_fits_on_full_and_crowded_nodes(self):
        spec = ClusterSpec(num_nodes=4, max_workloads_per_node=2)
        placement = Placement(
            spec,
            [InstanceSpec("a", "w0", 2), InstanceSpec("b", "w1", 2)],
            {"a": (0, 1), "b": (0, 2)},
            unit_slots_per_node=3,
        )
        wave = CandidateWave(
            placement, Job("j", "w2", num_units=1), spec
        )
        # Node 0 has a free slot but already hosts two workloads.
        assert not wave.fits((0,))
        assert wave.fits((1,)) and wave.fits((3,))
        assert not wave.fits((4,))
        with pytest.raises(PlacementError):
            wave.placement_for((0,))

    def test_already_placed_job_is_rejected(self):
        spec = ClusterSpec(num_nodes=4)
        placement = Placement(
            spec, [InstanceSpec("a", "w0", 2)], {"a": (0, 1)}
        )
        with pytest.raises(ServiceError, match="already placed"):
            CandidateWave(placement, Job("a", "w0", num_units=1), spec)


class TestUnknownWorkloads:
    """An anomaly raises the scalar walk's error, text included."""

    def _wave(self, job_workload, tenant_workloads):
        base = _model(random.Random(3))
        spec = ClusterSpec(num_nodes=6)
        instances = [
            InstanceSpec(f"t{i}", workload, 2)
            for i, workload in enumerate(tenant_workloads)
        ]
        assignment = {
            spec_.instance_key: (2 * i, 2 * i + 1)
            for i, spec_ in enumerate(instances)
        }
        placement = Placement(spec, instances, assignment)
        wave = CandidateWave(
            placement, Job("j", job_workload, num_units=2), spec
        )
        return base, wave, wave.candidates(range(6), 10)

    @pytest.mark.parametrize("online", [False, True])
    @pytest.mark.parametrize(
        "job_workload, tenants",
        [
            ("ghost", ["w0", "w1"]),
            # Candidate 0 shares t0's nodes, so the scalar walk meets
            # the job's unknown workload before t1's.
            ("ghost", ["w0", "phantom"]),
            ("w1", ["w0", "phantom"]),
        ],
    )
    def test_error_text_matches_scalar_walk(self, online, job_workload, tenants):
        base, wave, node_sets = self._wave(job_workload, tenants)
        model = OnlineModel(base) if online else base
        with pytest.raises(ModelError) as scalar:
            predict_placement_scalar(model, wave.placement_for(node_sets[0]))
        with pytest.raises(ModelError) as delta:
            wave.predict(model, node_sets)
        assert str(delta.value) == str(scalar.value)


# ----------------------------------------------------------------------
# Decisions against the scalar oracle
# ----------------------------------------------------------------------

def _stream(rng, workloads, count):
    return [
        Job(
            job_id=f"job-{i}",
            workload=rng.choice(workloads),
            num_units=rng.randint(1, 4),
            qos_target=rng.choice([None, 1.6, 2.5, 4.0]),
            weight=rng.choice([1.0, 2.0]),
        )
        for i in range(count)
    ]


@WAVE_SETTINGS
@given(
    seed=st.integers(0, 2**16),
    slots=st.sampled_from([2, 3]),
    network=st.booleans(),
    online=st.booleans(),
    degraded=st.booleans(),
)
def test_admission_decisions_match_scalar_oracle(
    seed, slots, network, online, degraded
):
    rng = random.Random(seed)
    base = _model(rng, network=network)
    model = _online(base, rng, _observations(rng, base)) if online else base
    spec = ClusterSpec(
        num_nodes=rng.randint(6, 12), max_workloads_per_node=slots
    )
    marked = set(rng.sample(base.workloads, 2)) if degraded else set()
    jobs = _stream(rng, base.workloads, rng.randint(3, 7))
    cap = rng.choice([4, 64, 4096])
    outcomes = []
    for wrapped in (model, _ScalarOnlyModel(model)):
        controller = AdmissionController(
            wrapped, spec, unit_slots_per_node=slots, max_candidates=cap,
            degraded_workloads=set(marked),
        )
        placement, tenants, decisions = None, [], []
        with recording() as rec:
            for job in jobs:
                decision = controller.try_admit(placement, tenants, job)
                decisions.append(decision)
                if decision.admitted:
                    placement, tenants = decision.placement, tenants + [job]
        outcomes.append((decisions, rec.counter("fault.degraded_prediction")))
    (delta, delta_raised), (scalar, scalar_raised) = outcomes
    for d, s in zip(delta, scalar):
        _decisions_equal(d, s)
    assert delta_raised == scalar_raised


def _oracle_score(cell, job, probes):
    """The router's score over materialized candidates, predicted scalar."""
    service = cell.service
    admission = service.admission
    free = list(admission.free_slots(service.placement))
    if len(free) < job.num_units:
        return None
    candidates = []
    for nodes in islice(combinations(free, job.num_units), probes):
        try:
            candidates.append(
                placement_with_job(
                    service.placement, admission.cluster_spec, job, nodes,
                    unit_slots_per_node=admission.unit_slots_per_node,
                )
            )
        except PlacementError:
            continue
    if not candidates:
        return None
    constraints = HeadroomRouter._constraints(service.tenants, job)
    best = None
    for candidate in candidates:
        predictions = predict_placement_scalar(service.model, candidate)
        margin = min(
            c.max_normalized_time - predictions[c.instance_key]
            for c in constraints
        )
        if best is None or margin > best[0]:
            best = (margin, predictions[job.job_id])
    return best


@WAVE_SETTINGS
@given(
    seed=st.integers(0, 2**16),
    slots=st.sampled_from([2, 3]),
    network=st.booleans(),
    online=st.booleans(),
    probes=st.integers(1, 8),
)
def test_router_scores_match_scalar_oracle(seed, slots, network, online, probes):
    rng = random.Random(seed)
    base = _model(rng, network=network)
    model = _online(base, rng, _observations(rng, base)) if online else base
    spec = ClusterSpec(num_nodes=rng.randint(6, 12), max_workloads_per_node=slots)
    controller = AdmissionController(model, spec, unit_slots_per_node=slots)
    placement, tenants = None, []
    for job in _stream(rng, base.workloads, rng.randint(0, 6)):
        decision = controller.try_admit(placement, tenants, job)
        if decision.admitted:
            placement, tenants = decision.placement, tenants + [job]
    cell = SimpleNamespace(
        cell_id=0,
        service=SimpleNamespace(
            placement=placement, admission=controller, model=model,
            tenants=tenants,
        ),
    )
    router = HeadroomRouter(probe_candidates=probes)
    for probe in _stream(rng, base.workloads, 3):
        probe = Job(f"probe-{probe.job_id}", probe.workload,
                    num_units=probe.num_units, qos_target=probe.qos_target)
        score = router.score(cell, probe)
        expected = _oracle_score(cell, probe, probes)
        if expected is None:
            assert score is None
        else:
            assert (score.headroom, score.predicted_time) == expected
