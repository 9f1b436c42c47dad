"""Property-based tests for model-layer invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.curves import HomogeneousSetting, PropagationMatrix
from repro.core.model import InterferenceModel, InterferenceProfile
from repro.core.policies import all_policies

vectors = st.lists(
    st.floats(min_value=0.0, max_value=8.0), min_size=2, max_size=8
)


def monotone_matrix():
    pressures = [2.0, 4.0, 6.0, 8.0]
    counts = [0.0, 1.0, 2.0, 3.0, 4.0]
    values = np.array(
        [
            [1.0 + 0.1 * p * c / 8.0 for c in counts]
            for p in pressures
        ]
    )
    values[:, 0] = 1.0
    return PropagationMatrix(pressures, counts, values)


class TestLookupProperties:
    @given(
        pressure=st.floats(min_value=0.0, max_value=8.0),
        count=st.floats(min_value=0.0, max_value=4.0),
    )
    @settings(max_examples=100)
    def test_lookup_at_least_one(self, pressure, count):
        value = monotone_matrix().lookup(HomogeneousSetting(pressure, count))
        assert value >= 1.0 - 1e-12

    @given(
        p1=st.floats(min_value=0.0, max_value=8.0),
        p2=st.floats(min_value=0.0, max_value=8.0),
        count=st.floats(min_value=0.0, max_value=4.0),
    )
    @settings(max_examples=100)
    def test_lookup_monotone_in_pressure(self, p1, p2, count):
        matrix = monotone_matrix()
        lo, hi = sorted([p1, p2])
        assert matrix.lookup(HomogeneousSetting(lo, count)) <= (
            matrix.lookup(HomogeneousSetting(hi, count)) + 1e-9
        )

    @given(
        pressure=st.floats(min_value=0.0, max_value=8.0),
        c1=st.floats(min_value=0.0, max_value=4.0),
        c2=st.floats(min_value=0.0, max_value=4.0),
    )
    @settings(max_examples=100)
    def test_lookup_monotone_in_count(self, pressure, c1, c2):
        matrix = monotone_matrix()
        lo, hi = sorted([c1, c2])
        assert matrix.lookup(HomogeneousSetting(pressure, lo)) <= (
            matrix.lookup(HomogeneousSetting(pressure, hi)) + 1e-9
        )


class TestModelProperties:
    def _model(self, policy):
        profile = InterferenceProfile(
            workload="app",
            matrix=monotone_matrix(),
            policy_name=policy,
            bubble_score=3.0,
        )
        return InterferenceModel({"app": profile})

    @given(vector=vectors)
    @settings(max_examples=60)
    def test_prediction_at_least_one_for_all_policies(self, vector):
        for policy in all_policies():
            model = self._model(policy.name)
            assert model.predict("app", vector) >= 1.0 - 1e-9

    @given(vector=vectors)
    @settings(max_examples=60)
    def test_all_max_upper_bounds_other_policies(self, vector):
        # ALL MAX converts to the most pessimistic setting, so on a
        # monotone matrix it dominates every other policy's prediction.
        predictions = {
            policy.name: self._model(policy.name).predict(
                "app", vector
            )
            for policy in all_policies()
        }
        for name, value in predictions.items():
            assert value <= predictions["ALL MAX"] + 1e-9, name

    @given(vector=vectors)
    @settings(max_examples=60)
    def test_homogeneous_vector_policy_agreement(self, vector):
        # When every node carries the same nonzero pressure, the three
        # max-family policies agree exactly (peak == everything).
        level = max(vector)
        if level == 0:
            return
        uniform = [level] * len(vector)
        values = {
            policy.name: self._model(policy.name).predict(
                "app", uniform
            )
            for policy in all_policies()
        }
        assert values["N MAX"] == pytest.approx(values["ALL MAX"])
        assert values["N+1 MAX"] == pytest.approx(values["ALL MAX"])
        assert values["INTERPOLATE"] == pytest.approx(values["ALL MAX"])
