"""End-to-end integration: profile -> model -> predict -> place.

Uses the real catalog on the real 8-node environment but with reduced
sampling so the whole pipeline stays fast.
"""

import pytest

from repro.core.builder import build_batch_profiles, build_model
from repro.core.naive import NaiveProportionalModel
from repro.core.profile_store import load_model, save_model
from repro.placement.annealing import AnnealingSchedule
from repro.placement.assignment import InstanceSpec
from repro.placement.objectives import predict_placement, weighted_total_time
from repro.placement.throughput import ThroughputPlacer
from repro.sim.runner import ClusterRunner

WORKLOADS = ["M.lmps", "M.Gems", "H.KM"]


@pytest.fixture(scope="module")
def built(catalog_runner_module):
    report = build_model(
        catalog_runner_module, WORKLOADS, policy_samples=12, seed=3
    )
    build_batch_profiles(catalog_runner_module, report.model, ["C.libq"])
    return report


@pytest.fixture(scope="module")
def catalog_runner_module():
    return ClusterRunner(base_seed=123)


class TestModelConstruction:
    def test_profiles_all_workloads(self, built):
        assert set(built.model.workloads) == set(WORKLOADS) | {"C.libq"}

    def test_bubble_scores_ordered_like_table4(self, built):
        scores = built.bubble_scores
        # Table 4 ordering: Gems (2.4) > lammps (1.0) > K-means (0.2).
        assert scores["M.Gems"] > scores["M.lmps"] > scores["H.KM"]

    def test_profiling_cost_below_exhaustive(self, built):
        for outcome in built.profiling_outcomes.values():
            assert outcome.cost_percent < 50.0

    def test_matrices_complete(self, built):
        for abbrev in WORKLOADS:
            assert built.model.profile(abbrev).matrix.is_complete()


class TestPredictionQuality:
    def test_homogeneous_prediction_close_to_fresh_run(
        self, built, catalog_runner_module
    ):
        predicted = built.model.predict("M.lmps", (6.0, 4))
        actual = catalog_runner_module.measure("M.lmps", 6.0, 4, rep=77)
        assert predicted == pytest.approx(actual, rel=0.12)

    def test_pairwise_corun_prediction(self, built, catalog_runner_module):
        score = built.model.profile("C.libq").bubble_score
        predicted = built.model.predict("M.lmps", [score] * 8)
        actual = catalog_runner_module.corun_pair("M.lmps", "C.libq", rep=7)[
            "M.lmps#0"
        ]
        assert predicted == pytest.approx(actual, rel=0.2)


class TestStoreRoundtrip:
    def test_save_load_predicts_identically(self, built, tmp_path):
        path = tmp_path / "model.json"
        save_model(built.model, path)
        loaded = load_model(path)
        assert loaded.predict("M.Gems", (5.0, 3)) == pytest.approx(
            built.model.predict("M.Gems", (5.0, 3))
        )


class TestPlacementPipeline:
    def test_best_beats_worst_in_prediction(self, built, catalog_runner_module):
        instances = [
            InstanceSpec("M.lmps#0", "M.lmps"),
            InstanceSpec("M.Gems#1", "M.Gems"),
            InstanceSpec("H.KM#2", "H.KM"),
            InstanceSpec("C.libq#3", "C.libq"),
        ]
        placer = ThroughputPlacer(
            built.model,
            catalog_runner_module.spec,
            schedule=AnnealingSchedule(iterations=400, restarts=2),
            seed=5,
        )
        best = placer.best(instances)
        worst = placer.worst(instances)
        best_total = weighted_total_time(best.predictions, best.placement)
        worst_total = weighted_total_time(worst.predictions, worst.placement)
        assert best_total < worst_total

    def test_naive_shares_profiles(self, built):
        naive = NaiveProportionalModel(built.model)
        assert naive.workloads == built.model.workloads
        full = built.model.profile("M.lmps").matrix.max_count
        assert naive.predict_homogeneous("M.lmps", 8.0, full) == pytest.approx(
            built.model.predict("M.lmps", (8.0, full))
        )
