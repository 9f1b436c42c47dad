"""Bit-identity tests for the vectorized prediction kernel.

The batch path (:mod:`repro.core.kernel`) promises results that are
*bit-identical* to the scalar reference, not merely close — so every
comparison here is ``==``, never ``pytest.approx``.
"""

import random

import numpy as np
import pytest

from repro.core.curves import HomogeneousSetting, PropagationMatrix
from repro.core.kernel import PredictionRequest
from repro.core.model import InterferenceModel, InterferenceProfile
from repro.core.online import OnlineModel
from repro.errors import ModelError

POLICIES = ("N MAX", "N+1 MAX", "ALL MAX", "INTERPOLATE")

#: The paper's EC2 study samples node counts sparsely (Section 5.2).
EC2_COUNTS = [0, 1, 2, 4, 8, 16, 24, 32]


def random_model(rng, num_workloads=5, *, ec2=False):
    profiles = {}
    for i in range(num_workloads):
        name = f"w{i}"
        counts = EC2_COUNTS if ec2 else list(range(rng.randint(3, 6)))
        pressures = sorted(
            rng.uniform(0.5, 10.0) for _ in range(rng.randint(2, 5))
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


def random_request(rng, workloads):
    workload = rng.choice(workloads)
    form = rng.randrange(4)
    if form == 0:
        return workload, HomogeneousSetting(
            rng.uniform(0.0, 9.0), rng.uniform(0.0, 5.0)
        )
    if form == 1:
        return workload, (rng.uniform(0.0, 9.0), rng.uniform(0.0, 5.0))
    length = rng.randint(1, 5)
    if form == 2 and rng.random() < 0.3:
        return workload, [0.0] * length  # idle vector
    vector = [rng.uniform(0.0, 9.0) for _ in range(length)]
    if rng.random() < 0.2:
        vector = [p * 0.37 for p in vector]  # exercise fractional values
    return workload, vector


class TestBatchIdentity:
    @pytest.mark.parametrize("seed", range(6))
    def test_mixed_requests_match_scalar_bitwise(self, seed):
        rng = random.Random(seed)
        model = random_model(rng, ec2=(seed % 2 == 0))
        workloads = sorted(model.workloads)
        requests = [random_request(rng, workloads) for _ in range(40)]
        scalar = [model.predict(w, arg) for w, arg in requests]
        batch = model.predict_batch(requests)
        assert list(batch) == scalar

    def test_small_and_large_batches_identical(self):
        # Small per-workload groups run the scalar ops directly, large
        # ones the array path; both must agree with the reference.
        rng = random.Random(99)
        model = random_model(rng, num_workloads=2)
        workloads = sorted(model.workloads)
        for size in (1, 2, 5, 30, 80):
            requests = [
                random_request(rng, workloads) for _ in range(size)
            ]
            scalar = [model.predict(w, arg) for w, arg in requests]
            assert list(model.predict_batch(requests)) == scalar

    def test_prediction_request_objects_accepted(self):
        rng = random.Random(3)
        model = random_model(rng)
        requests = [
            PredictionRequest("w0", [1.5, 2.5]),
            PredictionRequest("w1", HomogeneousSetting(4.0, 2.0)),
            PredictionRequest("w2", (3.0, 1.0)),
        ]
        scalar = [
            model.predict(r.workload, r.interference) for r in requests
        ]
        assert list(model.predict_batch(requests)) == scalar

    def test_float64_ndarray_fast_path(self):
        rng = random.Random(5)
        model = random_model(rng)
        vector = np.array([1.25, 0.0, 3.5], dtype=np.float64)
        assert model.predict("w0", vector) == model.predict(
            "w0", [float(p) for p in vector]
        )
        batch = model.predict_batch([("w0", vector), ("w1", vector)])
        assert list(batch) == [
            model.predict("w0", vector),
            model.predict("w1", vector),
        ]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_policy_matches_scalar(self, policy):
        rng = random.Random(hash(policy) % 1000)
        counts = list(range(5))
        pressures = [2.0, 4.0, 8.0]
        values = np.array(
            [[1.0 + 0.05 * p * c for c in counts] for p in pressures]
        )
        model = InterferenceModel(
            {
                "app": InterferenceProfile(
                    workload="app",
                    matrix=PropagationMatrix(pressures, counts, values),
                    policy_name=policy,
                    bubble_score=2.0,
                )
            }
        )
        requests = [
            ("app", [rng.uniform(0.0, 9.0) for _ in range(rng.randint(1, 4))])
            for _ in range(25)
        ]
        scalar = [model.predict(w, arg) for w, arg in requests]
        assert list(model.predict_batch(requests)) == scalar

    def test_ec2_sparse_count_axis(self):
        rng = random.Random(11)
        model = random_model(rng, ec2=True)
        # Fractional converted counts land between the sparse knots.
        requests = [
            ("w0", [rng.uniform(0.0, 9.0) for _ in range(3)])
            for _ in range(30)
        ]
        scalar = [model.predict(w, arg) for w, arg in requests]
        assert list(model.predict_batch(requests)) == scalar

    def test_online_model_corrections_applied(self):
        rng = random.Random(21)
        base = random_model(rng)
        online = OnlineModel(base)
        online.observe("w0", predicted=1.2, measured=1.5)
        online.observe("w2", predicted=1.4, measured=1.1)
        requests = [
            ("w0", [2.0, 3.0]),
            ("w2", [1.0]),
            ("w1", [4.0, 0.5, 2.0]),
        ]
        scalar = [
            online.predict(w, arg) for w, arg in requests
        ]
        assert list(online.predict_batch(requests)) == scalar


class TestSnapshotInvalidation:
    def test_add_profile_rebuilds_kernel(self):
        rng = random.Random(7)
        model = random_model(rng)
        first = model.prediction_kernel()
        assert model.prediction_kernel() is first  # cached snapshot
        counts = [0, 1, 2]
        matrix = PropagationMatrix(
            [2.0, 4.0], counts, np.array([[1.0, 1.1, 1.2], [1.0, 1.3, 1.5]])
        )
        model.add_profile(
            InterferenceProfile(
                workload="fresh",
                matrix=matrix,
                policy_name="N MAX",
                bubble_score=1.0,
            )
        )
        rebuilt = model.prediction_kernel()
        assert rebuilt is not first
        assert rebuilt.knows("fresh")
        assert not first.knows("fresh")
        # Predictions through the new snapshot see the new profile.
        assert model.predict_batch([("fresh", [1.0])])[0] == model.predict(
            "fresh", [1.0]
        )

    def test_kernel_snapshot_is_frozen(self):
        # Mutating the live model's matrix after the snapshot must not
        # leak into the old kernel (matrices are deep-copied).
        rng = random.Random(13)
        model = random_model(rng)
        kernel = model.prediction_kernel()
        before = kernel.lookup_settings(
            "w0", np.array([4.0]), np.array([2.0])
        )[0]
        model.profile("w0").matrix.values[:] += 0.5
        after = kernel.lookup_settings(
            "w0", np.array([4.0]), np.array([2.0])
        )[0]
        assert before == after


class TestErrorParity:
    def test_unknown_workload_raises_scalar_error(self):
        rng = random.Random(17)
        model = random_model(rng)
        with pytest.raises(ModelError) as scalar_err:
            model.predict("nope", [1.0, 2.0])
        with pytest.raises(ModelError) as batch_err:
            model.predict_batch([("w0", [1.0]), ("nope", [1.0, 2.0])])
        assert str(batch_err.value) == str(scalar_err.value)

    def test_empty_vector_raises_scalar_error(self):
        rng = random.Random(19)
        model = random_model(rng)
        with pytest.raises(ModelError) as scalar_err:
            model.predict("w0", [])
        with pytest.raises(ModelError) as batch_err:
            model.predict_batch([("w1", [1.0]), ("w0", [])])
        assert str(batch_err.value) == str(scalar_err.value)

    def test_negative_pressure_raises_scalar_error(self):
        rng = random.Random(23)
        model = random_model(rng)
        with pytest.raises(Exception) as scalar_err:
            model.predict("w0", [1.0, -2.0])
        with pytest.raises(Exception) as batch_err:
            model.predict_batch([("w0", [1.0, -2.0])])
        assert type(batch_err.value) is type(scalar_err.value)
        assert str(batch_err.value) == str(scalar_err.value)

    def test_nan_pressure_raises_scalar_error(self):
        rng = random.Random(29)
        model = random_model(rng)
        with pytest.raises(Exception) as scalar_err:
            model.predict("w0", [float("nan")])
        with pytest.raises(Exception) as batch_err:
            model.predict_batch([("w0", [float("nan")])])
        assert type(batch_err.value) is type(scalar_err.value)
        assert str(batch_err.value) == str(scalar_err.value)
