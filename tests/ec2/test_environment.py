"""Tests for the EC2 validation environment."""

from repro.providers.ec2 import (
    EC2_COUNTS,
    EC2_NUM_INSTANCES,
    EC2_POLICY_SAMPLES,
    EC2_WORKLOADS,
    EC2Provider,
    ec2_cluster_spec,
    ec2_counts,
    make_ec2_runner,
)
from repro.sim.noise import EC2_NOISE


class TestEC2Spec:
    def test_32_instances(self):
        spec = ec2_cluster_spec()
        assert spec.num_nodes == 32
        assert spec.cores_per_node == 8  # c4.2xlarge vCPUs

    def test_pairwise_colocation(self):
        assert ec2_cluster_spec().max_workloads_per_node == 2


class TestEC2Constants:
    def test_figure12_counts(self):
        assert EC2_COUNTS == (0, 1, 2, 4, 8, 16, 24, 32)
        assert ec2_counts()[0] == 0.0

    def test_four_short_workloads(self):
        assert EC2_WORKLOADS == ("M.milc", "M.Gems", "M.zeus", "M.lu")

    def test_hundred_policy_samples(self):
        assert EC2_POLICY_SAMPLES == 100


class TestEC2Runner:
    def test_noise_profile(self):
        runner = make_ec2_runner()
        assert runner.noise is EC2_NOISE
        assert runner.num_nodes == 32

    def test_measurement_has_ambient_noise(self):
        # Normalized EC2 times can land below 1.0 because the solo
        # baseline itself carries tenant noise — the paper's
        # "unmeasured interference" caveat.
        runner = make_ec2_runner()
        value = runner.measure("M.zeus", 1.0, 1)
        assert 0.5 < value < 2.0


class TestEC2Provider:
    def test_registered_fixed_pool(self):
        from repro.providers import make_provider

        provider = make_provider("ec2")
        assert isinstance(provider, EC2Provider)
        assert not provider.elastic
        assert provider.live_nodes() == list(range(EC2_NUM_INSTANCES))
        assert provider.durable_nodes() == provider.schedulable_nodes()

