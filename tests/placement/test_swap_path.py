"""The annealing swap path: draw replica, resident index and layout memo.

The search's fast path must stay *exact*: the draw replica consumes the
bit generator exactly as the NumPy calls it replaces (values and final
state), and the swap-maintained resident index and memoized prediction
table always equal a from-scratch evaluation.
"""

import random

import numpy as np
import pytest

from repro._util import bounded_draws, draw_pair
from repro.cluster.cluster import ClusterSpec
from repro.errors import PlacementError
from repro.placement.assignment import InstanceSpec, Placement
from repro.placement.objectives import (
    QoSConstraint,
    WeightedTimeEnergy,
    predict_placement_scalar,
)
from repro.placement.qos import FeasibilityEnergy
from tests.placement.test_batch_identity import ScalarOnly, random_model


class TestDrawReplica:
    @pytest.mark.parametrize("block", range(4))
    def test_matches_numpy_choice_and_integers(self, block):
        for seed in range(block * 60, block * 60 + 60):
            reference = np.random.default_rng(seed)
            replica = np.random.default_rng(seed)
            draw = bounded_draws(replica)
            script = random.Random(seed)
            for _ in range(40):
                n = script.randint(2, 64)
                pair = tuple(
                    int(i) for i in reference.choice(n, size=2, replace=False)
                )
                assert draw_pair(draw, n) == pair
                for _ in range(2):
                    units = script.randint(1, 8)
                    assert draw(units - 1) == int(reference.integers(units))
                if script.random() < 0.5:
                    assert replica.random() == reference.random()
            assert replica.bit_generator.state == reference.bit_generator.state

    def test_zero_range_consumes_nothing(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        assert bounded_draws(rng)(0) == 0
        assert rng.bit_generator.state == before

    def test_wide_range_defers_to_numpy(self):
        reference = np.random.default_rng(5)
        replica = np.random.default_rng(5)
        draw = bounded_draws(replica)
        for high in (2**32 - 1, 2**32, 2**40 + 7):
            assert draw(high) == int(reference.integers(high + 1))
        assert replica.bit_generator.state == reference.bit_generator.state


def random_walk(rng, placement, steps):
    """Yield ``(placement, touched_nodes)`` after each valid unit swap."""
    specs = placement.instances
    while steps:
        spec_a, spec_b = rng.sample(specs, 2)
        unit_a = rng.randrange(spec_a.num_units)
        unit_b = rng.randrange(spec_b.num_units)
        node_a = placement.nodes_of(spec_a.instance_key)[unit_a]
        node_b = placement.nodes_of(spec_b.instance_key)[unit_b]
        if node_a == node_b:
            continue
        try:
            placement = placement.swap_units(
                spec_a.instance_key, unit_a, spec_b.instance_key, unit_b
            )
        except PlacementError:
            continue
        steps -= 1
        yield placement, (node_a, node_b)


def walk_start(rng, model, slots):
    kinds = sorted(model.workloads)
    instances = [
        InstanceSpec(f"job-{i}", rng.choice(kinds), rng.randint(2, 4))
        for i in range(rng.randint(5, 8))
    ]
    # Swaps never change a node's unit count, so start with the nodes
    # (nearly) full: at least ten units over ceil(units / slots) nodes.
    units = sum(spec.num_units for spec in instances)
    spec = ClusterSpec(
        num_nodes=-(-units // slots), max_workloads_per_node=slots
    )
    return Placement.random(
        spec, instances, unit_slots_per_node=slots, seed=rng.randint(0, 999)
    )


class TestResidentIndex:
    @pytest.mark.parametrize("slots", (2, 3))
    @pytest.mark.parametrize("seed", range(6))
    def test_walk_matches_fresh_evaluation(self, seed, slots):
        rng = random.Random(1000 * slots + seed)
        model = random_model(rng)
        placement = walk_start(rng, model, slots)
        energy = WeightedTimeEnergy(model)
        state = energy.full_state(placement)
        shared_nodes = 0
        for placement, touched in random_walk(rng, placement, 60):
            state = energy.swap_state(state, placement, touched)
            residents = placement.node_residents()
            assert state.residents == residents
            assert state.predictions == predict_placement_scalar(
                model, placement
            )
            assert state.energy == energy.full_state(placement).energy
            shared_nodes += sum(len(units) >= 3 for units in residents.values())
        if slots == 3:
            # Co-runner order only matters with two or more co-runners.
            assert shared_nodes > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_constrained_energy_reads_the_index(self, seed):
        rng = random.Random(70 + seed)
        model = random_model(rng)
        placement = walk_start(rng, model, 3)
        constraints = [
            QoSConstraint(spec.instance_key, 1.0)
            for spec in placement.instances[:2]
        ]
        energy = FeasibilityEnergy(model, constraints)
        scalar = FeasibilityEnergy(ScalarOnly(model), constraints)
        state = energy.full_state(placement)
        for placement, touched in random_walk(rng, placement, 40):
            state = energy.swap_state(state, placement, touched)
            assert state.energy == energy.aggregate(state.predictions, placement)
            assert state.energy == scalar(placement)
