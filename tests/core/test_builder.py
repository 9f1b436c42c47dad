"""Tests for end-to-end model construction."""

import pytest

from repro.core.builder import (
    MATRIX_PROFILERS,
    build_batch_profiles,
    build_model,
    default_counts,
    default_pressures,
)
from repro.errors import ProfilingError
from tests._synthetic import quiet_runner, synthetic_factory


@pytest.fixture(scope="module")
def runner():
    return quiet_runner(
        num_nodes=4,
        factory=synthetic_factory(appA={"score": 4.0}, appB={"score": 1.0}),
    )


@pytest.fixture(scope="module")
def report(runner):
    return build_model(runner, ["appA", "appB"], policy_samples=8, seed=1)


class TestDefaults:
    def test_pressures_one_to_eight(self):
        assert default_pressures() == [1, 2, 3, 4, 5, 6, 7, 8]

    def test_counts_zero_to_n(self):
        assert default_counts(4) == [0, 1, 2, 3, 4]


class TestBuildModel:
    def test_profiles_present(self, report):
        assert set(report.model.workloads) == {"appA", "appB"}

    def test_scores_recovered(self, report):
        assert report.bubble_scores["appA"] == pytest.approx(4.0, abs=0.2)
        assert report.bubble_scores["appB"] == pytest.approx(1.0, abs=0.2)

    def test_selections_and_outcomes_reported(self, report):
        assert set(report.policy_selections) == {"appA", "appB"}
        assert set(report.profiling_outcomes) == {"appA", "appB"}
        for outcome in report.profiling_outcomes.values():
            assert outcome.matrix.is_complete()

    def test_model_predicts(self, report):
        assert report.model.predict("appA", (8.0, 4)) > 1.0

    def test_unknown_algorithm(self, runner):
        with pytest.raises(ProfilingError, match="unknown profiling algorithm"):
            build_model(runner, ["appA"], algorithm="magic")

    def test_registered_profilers(self):
        assert set(MATRIX_PROFILERS) == {
            "binary-optimized", "binary-brute", "random-30%", "random-50%",
        }

    def test_random_profiler_builds_complete_model(self, runner):
        report = build_model(
            runner, ["appA"], algorithm="random-30%", policy_samples=4, seed=2
        )
        outcome = report.profiling_outcomes["appA"]
        assert outcome.algorithm == "random-30%"
        assert outcome.matrix.is_complete()

    def test_random_profiler_deterministic(self, runner):
        first = build_model(
            runner, ["appA"], algorithm="random-50%", policy_samples=4, seed=2
        )
        second = build_model(
            runner, ["appA"], algorithm="random-50%", policy_samples=4, seed=2
        )
        assert (
            first.profiling_outcomes["appA"].settings_measured
            == second.profiling_outcomes["appA"].settings_measured
        )

    def test_span_limits_counts(self, runner):
        small = build_model(
            runner, ["appA"], policy_samples=4, seed=2, span=2
        )
        matrix = small.model.profile("appA").matrix
        assert matrix.max_count == 2.0


class TestBatchProfiles:
    def test_adds_profiles(self, runner, report):
        build_batch_profiles(runner, report.model, ["appB2"])
        profile = report.model.profile("appB2")
        assert profile.policy_name == "INTERPOLATE"
        assert profile.matrix.is_complete()
