"""Placement-level bit-identity of the batch prediction path.

``predict_placement`` scores a placement as a wave of one through the
vectorized
:meth:`~repro.core.model.InterferenceModel.predict_placements_batch`
whenever the model offers it; these tests pin that route to the scalar
reference (:func:`predict_placement_scalar`) bit for bit — values,
errors and the empty placement — including through a whole annealing
search.
"""

import random

import numpy as np
import pytest

from repro.cluster.cluster import ClusterSpec
from repro.core.curves import PropagationMatrix
from repro.core.model import InterferenceModel, InterferenceProfile
from repro.core.online import OnlineModel
from repro.errors import ModelError
from repro.placement.annealing import AnnealingSchedule, SimulatedAnnealingPlacer
from repro.placement.assignment import InstanceSpec, Placement
from repro.placement.objectives import (
    WeightedTimeEnergy,
    predict_placement,
    predict_placement_scalar,
)

POLICIES = ("N MAX", "N+1 MAX", "ALL MAX", "INTERPOLATE")


class ScalarOnly:
    """Model proxy hiding the batch interface.

    Forces every consumer down the scalar reference path, which is how
    the tests compare whole search trajectories batch-vs-scalar.
    """

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
        if name in ScalarOnly._HIDDEN:
            raise AttributeError(name)
        return getattr(self._model, name)


def random_model(rng, num_workloads=4):
    profiles = {}
    for i in range(num_workloads):
        name = f"w{i}"
        counts = list(range(rng.randint(3, 6)))
        pressures = sorted(
            rng.uniform(0.5, 10.0) for _ in range(rng.randint(2, 4))
        )
        values = np.array(
            [
                [1.0 + rng.random() * p * (c + 1) / 8.0 for c in counts]
                for p in pressures
            ]
        )
        profiles[name] = InterferenceProfile(
            workload=name,
            matrix=PropagationMatrix(pressures, counts, values),
            policy_name=POLICIES[i % len(POLICIES)],
            bubble_score=rng.uniform(0.0, 9.0),
        )
    return InterferenceModel(profiles)


def random_placement(rng, model, num_instances, num_nodes):
    kinds = sorted(model.workloads)
    spec = ClusterSpec(num_nodes=num_nodes)
    instances, assignment = [], {}
    free = {node: 2 for node in range(num_nodes)}
    for i in range(num_instances):
        units = rng.randint(1, 4)
        open_nodes = [node for node, slots in free.items() if slots > 0]
        if len(open_nodes) < units:
            break
        nodes = rng.sample(open_nodes, units)
        for node in nodes:
            free[node] -= 1
        key = f"job-{i}"
        instances.append(InstanceSpec(key, rng.choice(kinds), units))
        assignment[key] = tuple(nodes)
    return Placement(spec, instances, assignment, unit_slots_per_node=2)


class TestPlacementIdentity:
    @pytest.mark.parametrize("seed", range(8))
    def test_full_placement_matches_scalar_bitwise(self, seed):
        rng = random.Random(seed)
        model = random_model(rng)
        placement = random_placement(
            rng, model, rng.randint(2, 20), rng.randint(8, 44)
        )
        assert predict_placement(model, placement) == (
            predict_placement_scalar(model, placement)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_online_model_matches_scalar_bitwise(self, seed):
        rng = random.Random(100 + seed)
        base = random_model(rng)
        online = OnlineModel(base)
        for _ in range(rng.randint(1, 5)):
            online.observe(
                rng.choice(sorted(base.workloads)),
                predicted=rng.uniform(1.0, 3.0),
                measured=rng.uniform(1.0, 3.0),
            )
        placement = random_placement(rng, base, 10, 24)
        assert predict_placement(online, placement) == (
            predict_placement_scalar(online, placement)
        )

    @pytest.mark.parametrize("online", [False, True])
    def test_unknown_co_runner_raises_the_scalar_error(self, online):
        rng = random.Random(21)
        base = random_model(rng)
        model = OnlineModel(base) if online else base
        known = sorted(base.workloads)[0]
        spec = ClusterSpec(num_nodes=4)
        placement = Placement(
            spec,
            [InstanceSpec("a", known, 2), InstanceSpec("b", "ghost", 2)],
            {"a": (0, 1), "b": (1, 2)},
            unit_slots_per_node=2,
        )
        with pytest.raises(ModelError) as scalar:
            predict_placement_scalar(model, placement)
        with pytest.raises(ModelError) as batch:
            predict_placement(model, placement)
        assert "'ghost'" in str(scalar.value)
        assert str(batch.value) == str(scalar.value)

    @pytest.mark.parametrize("online", [False, True])
    def test_empty_placement_predicts_nothing(self, online):
        base = random_model(random.Random(22))
        model = OnlineModel(base) if online else base
        placement = Placement(
            ClusterSpec(num_nodes=4), [], {}, unit_slots_per_node=2
        )
        assert predict_placement(model, placement) == {}
        assert predict_placement_scalar(model, placement) == {}

    def test_table_preserves_instance_order(self):
        rng = random.Random(7)
        model = random_model(rng)
        placement = random_placement(rng, model, 8, 20)
        table = predict_placement(model, placement)
        assert list(table) == [
            spec.instance_key for spec in placement.instances
        ]


class TestAnnealingIdentity:
    @pytest.mark.parametrize("seed", range(3))
    def test_search_trajectory_identical(self, seed):
        rng = random.Random(40 + seed)
        model = random_model(rng)
        kinds = sorted(model.workloads)
        spec = ClusterSpec(num_nodes=16)
        instances = [
            InstanceSpec(f"{kinds[i % len(kinds)]}#{i}", kinds[i % len(kinds)], 3)
            for i in range(8)
        ]
        initial = Placement.random(spec, instances, seed=seed + 1)
        schedule = AnnealingSchedule(iterations=250, restarts=1)
        batch = SimulatedAnnealingPlacer(
            WeightedTimeEnergy(model), schedule=schedule, seed=seed
        ).search_from(initial)
        scalar = SimulatedAnnealingPlacer(
            WeightedTimeEnergy(ScalarOnly(model)), schedule=schedule, seed=seed
        ).search_from(initial)
        assert batch.energy == scalar.energy
        assert batch.energy_trajectory == scalar.energy_trajectory
        assert {
            s.instance_key: batch.placement.nodes_of(s.instance_key)
            for s in batch.placement.instances
        } == {
            s.instance_key: scalar.placement.nodes_of(s.instance_key)
            for s in scalar.placement.instances
        }


def relabelled(placement, mapping, num_nodes):
    """``placement`` moved onto ``num_nodes`` nodes through ``mapping``."""
    return Placement(
        ClusterSpec(num_nodes=num_nodes),
        placement.instances,
        {
            spec.instance_key: tuple(
                mapping[node] for node in placement.nodes_of(spec.instance_key)
            )
            for spec in placement.instances
        },
        unit_slots_per_node=placement.unit_slots_per_node,
    )


class TestLayoutMemo:
    def test_relabelled_placements_share_memo_entries(self):
        rng = random.Random(55)
        model = random_model(rng)
        energy = WeightedTimeEnergy(model)
        placement = random_placement(rng, model, 8, 20)
        first = energy.full_state(placement)
        entries = dict(energy._memo)
        # An order-preserving relabelling (shift and stretch) keeps every
        # instance's sorted-node sequence, hence every co-runner layout.
        moved = relabelled(
            placement, {node: 2 * node + 3 for node in range(20)}, 43
        )
        second = energy.full_state(moved)
        assert energy._memo == entries
        assert second.predictions == first.predictions
        assert second.predictions == predict_placement_scalar(model, moved)

    def test_memo_keeps_results_correct(self):
        rng = random.Random(56)
        model = random_model(rng)
        energy = WeightedTimeEnergy(model)
        for _ in range(3):
            placement = random_placement(rng, model, 6, 16)
            reference = predict_placement_scalar(model, placement)
            assert energy.full_state(placement).predictions == reference
