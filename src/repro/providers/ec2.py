"""Amazon EC2 validation environment (Section 6), as a provider.

The paper re-validates the modeling method on 32 ``c4.2xlarge``
instances: each VM runs the application on 4 vCPUs and reserves the
other 4 for bubble programs (or a co-running application).  Two things
distinguish EC2 from the private testbed and are reproduced here:

* **unmeasured tenant interference** — other customers' VMs share the
  physical hosts, adding background pressure nobody can observe or
  control (the :data:`~repro.sim.noise.EC2_NOISE` profile's ambient
  term, redrawn per run to model silent VM relocation); and
* **scale** — 32 "nodes" (VMs) instead of 8, with the sparse
  interfering-VM counts of Figure 12: 0, 1, 2, 4, 8, 16, 24, 32.

The module also registers the pool as the ``ec2`` capacity provider
(a fixed, fully durable 32-instance
:class:`~repro.providers.static.StaticProvider` — the paper's
validation never resizes), so ``make_provider("ec2")`` stands up the
same environment the Section 6 experiments measure against.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.cluster.cluster import ClusterSpec
from repro.providers.base import register_provider
from repro.providers.static import StaticProvider
from repro.sim.noise import EC2_NOISE
from repro.sim.runner import ClusterRunner

#: Interfering-VM counts profiled on EC2 (Figure 12's x axis).
EC2_COUNTS: Tuple[int, ...] = (0, 1, 2, 4, 8, 16, 24, 32)

#: The four short-running workloads the paper validates on EC2.
EC2_WORKLOADS: Tuple[str, ...] = ("M.milc", "M.Gems", "M.zeus", "M.lu")

#: Heterogeneous configurations sampled for policy selection on EC2.
EC2_POLICY_SAMPLES: int = 100

#: c4.2xlarge: 8 vCPUs, 15 GiB.
EC2_INSTANCE_VCPUS: int = 8
EC2_NUM_INSTANCES: int = 32


def ec2_cluster_spec() -> ClusterSpec:
    """Cluster spec treating each EC2 VM as a node.

    Each VM carries the application (4 vCPUs, one unit) plus at most
    one co-runner/bubble (the other 4 vCPUs) — the paper's forced
    intra-VM co-location, hence 2 workloads per "node".
    """
    return ClusterSpec(
        num_nodes=EC2_NUM_INSTANCES,
        cores_per_node=EC2_INSTANCE_VCPUS,
        memory_gb_per_node=15,
        max_workloads_per_node=2,
    )


def make_ec2_runner(*, base_seed: int = 26016) -> ClusterRunner:
    """A measurement environment configured like the EC2 deployment."""
    return ClusterRunner(ec2_cluster_spec(), noise=EC2_NOISE, base_seed=base_seed)


def ec2_counts() -> List[float]:
    """Figure 12's count axis as floats (matrix column values)."""
    return [float(count) for count in EC2_COUNTS]


@register_provider("ec2")
class EC2Provider(StaticProvider):
    """The Section 6 validation pool as a (fixed) capacity provider."""

    name = "ec2"

    def __init__(self) -> None:
        super().__init__(EC2_NUM_INSTANCES)
