"""Tests for the naive proportional model."""

import numpy as np
import pytest

from repro.core.curves import PropagationMatrix
from repro.core.model import InterferenceModel, InterferenceProfile
from repro.core.naive import NaiveProportionalModel


def setup_models():
    pressures = [4.0, 8.0]
    counts = [0.0, 1.0, 2.0, 3.0, 4.0]
    values = np.array(
        [
            [1.0, 1.30, 1.35, 1.38, 1.40],  # high propagation shape
            [1.0, 1.70, 1.75, 1.78, 1.80],
        ]
    )
    profile = InterferenceProfile(
        workload="app",
        matrix=PropagationMatrix(pressures, counts, values),
        policy_name="N+1 MAX",
        bubble_score=4.0,
    )
    model = InterferenceModel({"app": profile})
    return model, NaiveProportionalModel(model)


class TestNaiveHomogeneous:
    def test_full_overlap_matches_model(self):
        # At all-nodes interference the proportional estimate equals
        # the profiled all-nodes value (Figure 2's anchor).
        model, naive = setup_models()
        assert naive.predict_homogeneous("app", 8.0, 4.0) == pytest.approx(1.8)

    def test_proportional_scaling(self):
        # 1 of 4 nodes -> a quarter of the all-nodes degradation,
        # badly underestimating the real 1.70.
        model, naive = setup_models()
        assert naive.predict_homogeneous("app", 8.0, 1.0) == pytest.approx(1.2)
        assert model.predict("app", (8.0, 1.0)) == pytest.approx(1.7)

    def test_no_interference(self):
        _, naive = setup_models()
        assert naive.predict_homogeneous("app", 0.0, 2.0) == 1.0
        assert naive.predict_homogeneous("app", 8.0, 0.0) == 1.0


class TestNaiveHeterogeneous:
    def test_fixed_n_plus_one_conversion(self):
        # [8, 2, 0, 0] -> N+1 max -> (8, 2) -> 1 + (2/4) * 0.8 = 1.4.
        _, naive = setup_models()
        assert naive.predict_heterogeneous("app", [8, 2, 0, 0]) == pytest.approx(1.4)

    def test_fraction_over_deployment_span(self):
        # A 2-node deployment: [8, 0] -> (8, 1) -> 1 + (1/2) * 0.8.
        _, naive = setup_models()
        assert naive.predict_heterogeneous("app", [8, 0]) == pytest.approx(1.4)

    def test_under_corunners(self):
        _, naive = setup_models()
        predicted = naive.predict_under_corunners(
            "app", [0, 1, 2, 3], {0: ["app"]}
        )
        # Co-runner score 4.0 on one node, clean elsewhere: no milder
        # interfering nodes, so N+1 max keeps count 1 -> 1 + 0.25*0.4.
        assert predicted == pytest.approx(1.1)

    def test_workloads_delegated(self):
        model, naive = setup_models()
        assert naive.workloads == model.workloads

    def test_pressure_vector_delegated(self):
        _, naive = setup_models()
        assert naive.pressure_vector([0, 1], {0: ["app"]}) == [4.0, 0.0]
