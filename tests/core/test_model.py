"""Tests for the interference-aware performance model."""

import json

import numpy as np
import pytest

from repro.core.curves import PropagationMatrix
from repro.core.model import InterferenceModel, InterferenceProfile
from repro.errors import ModelError


def matrix_4nodes():
    """Counts 0..4, linear-ish in both axes for easy expectations."""
    pressures = [2.0, 4.0, 8.0]
    counts = [0.0, 1.0, 2.0, 3.0, 4.0]
    values = np.array(
        [
            [1.0, 1.05, 1.10, 1.15, 1.20],
            [1.0, 1.10, 1.20, 1.30, 1.40],
            [1.0, 1.20, 1.40, 1.60, 1.80],
        ]
    )
    return PropagationMatrix(pressures, counts, values)


def profile(policy="N+1 MAX", score=3.0, workload="app"):
    return InterferenceProfile(
        workload=workload,
        matrix=matrix_4nodes(),
        policy_name=policy,
        bubble_score=score,
    )


def model_with(*profiles):
    return InterferenceModel({p.workload: p for p in profiles})


class TestProfile:
    def test_policy_instantiation(self):
        assert profile("N MAX").policy.name == "N MAX"

    def test_invalid_policy(self):
        with pytest.raises(ModelError):
            profile(policy="BOGUS")

    def test_negative_score(self):
        with pytest.raises(ModelError):
            profile(score=-1.0)

    @pytest.mark.parametrize("score", [float("nan"), float("inf")])
    def test_non_finite_score(self, score):
        with pytest.raises(ModelError, match="bubble_score must be finite"):
            profile(score=score)

    @pytest.mark.parametrize("field", ["bubble_score", "network_score"])
    def test_non_finite_score_in_model_file(self, field):
        # ``json`` writes and parses NaN, so a model file can carry it.
        entry = profile().to_dict()
        entry[field] = float("nan")
        payload = json.loads(json.dumps({"app": entry}))
        with pytest.raises(ModelError, match=f"{field} must be finite"):
            InterferenceModel.from_dict(payload)

    def test_serialization_roundtrip(self):
        original = profile()
        clone = InterferenceProfile.from_dict(original.to_dict())
        assert clone.workload == original.workload
        assert clone.policy_name == original.policy_name
        assert clone.bubble_score == original.bubble_score
        assert np.array_equal(clone.matrix.values, original.matrix.values)


class TestPredictions:
    def test_homogeneous_grid_point(self):
        model = model_with(profile())
        assert model.predict("app", (4.0, 2.0)) == pytest.approx(1.2)

    def test_heterogeneous_applies_policy(self):
        # [8, 2, 0, 0] under N+1 MAX -> (8, 2) -> 1.40.
        model = model_with(profile("N+1 MAX"))
        assert model.predict("app", [8, 2, 0, 0]) == pytest.approx(1.4)

    def test_heterogeneous_interpolate_policy(self):
        # [8, 0, 0, 0] under INTERPOLATE -> (2, 4) -> 1.20.
        model = model_with(profile("INTERPOLATE"))
        assert model.predict("app", [8, 0, 0, 0]) == pytest.approx(1.2)

    def test_span_rescaling(self):
        # A 2-node vector on a 4-count matrix: 1 interfering node out
        # of 2 spans scales to 2 of 4.
        model = model_with(profile("N MAX"))
        assert model.predict("app", [8, 0]) == pytest.approx(1.4)

    def test_unknown_workload(self):
        model = model_with(profile())
        with pytest.raises(ModelError, match="no interference profile"):
            model.predict("ghost", (4.0, 1.0))


class TestUnifiedPredict:
    """`predict` dispatches on the interference description's type."""

    def test_homogeneous_setting_object(self):
        from repro.core.curves import HomogeneousSetting

        model = model_with(profile())
        assert model.predict(
            "app", HomogeneousSetting(4.0, 2.0)
        ) == pytest.approx(1.2)

    def test_pair_tuple_is_homogeneous(self):
        model = model_with(profile())
        assert model.predict("app", (4.0, 2.0)) == pytest.approx(1.2)

    def test_list_is_a_per_node_vector(self):
        model = model_with(profile("N+1 MAX"))
        assert model.predict("app", [8, 2, 0, 0]) == pytest.approx(1.4)

    def test_two_element_list_is_a_two_node_vector(self):
        # The deliberate asymmetry: (8, 0) is pressure 8 on 0 nodes;
        # [8, 0] is a 2-node vector (rescaled to the 4-count matrix).
        model = model_with(profile("N MAX"))
        assert model.predict("app", (8.0, 0.0)) == pytest.approx(1.0)
        assert model.predict("app", [8.0, 0.0]) == pytest.approx(1.4)

    def test_numpy_array_is_a_vector(self):
        model = model_with(profile("N+1 MAX"))
        assert model.predict(
            "app", np.array([8.0, 2.0, 0.0, 0.0])
        ) == pytest.approx(1.4)

    def test_wrong_arity_tuple_rejected(self):
        model = model_with(profile())
        with pytest.raises(ModelError, match="pressure, count"):
            model.predict("app", (8.0, 2.0, 0.0))

    def test_non_interference_types_rejected(self):
        model = model_with(profile())
        with pytest.raises(ModelError, match="interference must be"):
            model.predict("app", "8,2")
        with pytest.raises(ModelError, match="interference must be"):
            model.predict("app", 8.0)

    def test_call_forms_agree_with_private_paths(self):
        # A tuple is the homogeneous lookup and a list the per-node
        # vector; both are the same arithmetic as the private paths.
        model = model_with(profile("N+1 MAX"))
        assert model.predict("app", (4.0, 2.0)) == (
            model._predict_homogeneous("app", 4.0, 2.0)
        )
        assert model.predict("app", [8, 2, 0, 0]) == (
            model._predict_heterogeneous("app", [8.0, 2.0, 0.0, 0.0])
        )


class TestPressureVector:
    def test_combines_scores(self):
        model = model_with(profile(workload="a", score=3.0),
                           profile(workload="b", score=3.0))
        vector = model.pressure_vector([0, 1], {0: ["a"], 1: ["a", "b"]})
        assert vector[0] == 3.0
        # Two equal scores combine to S+1 without surcharge (the model
        # cannot observe the hardware's collision surcharge).
        assert vector[1] == pytest.approx(4.0)

    def test_empty_node(self):
        model = model_with(profile(workload="a"))
        assert model.pressure_vector([0, 1], {0: ["a"]}) == [3.0, 0.0]

    def test_predict_under_corunners(self):
        model = model_with(profile(workload="a", score=8.0, policy="N MAX"),
                           profile(workload="t", policy="N MAX"))
        predicted = model.predict_under_corunners(
            "t", [0, 1, 2, 3], {0: ["a"]}
        )
        assert predicted == pytest.approx(1.2)


class TestModelManagement:
    def test_workloads_sorted(self):
        model = model_with(profile(workload="b"), profile(workload="a"))
        assert model.workloads == ["a", "b"]

    def test_add_profile(self):
        model = model_with(profile(workload="a"))
        model.add_profile(profile(workload="c"))
        assert "c" in model.workloads

    def test_serialization_roundtrip(self):
        model = model_with(profile(workload="a"), profile(workload="b"))
        clone = InterferenceModel.from_dict(model.to_dict())
        assert clone.workloads == model.workloads
        assert clone.predict("a", (4.0, 2.0)) == pytest.approx(1.2)
