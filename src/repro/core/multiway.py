"""Beyond-pairwise co-location (Section 4.4's "Pairwise Interaction").

The published model restricts each node to two distinct applications;
Section 4.4 sketches the extension: combine co-runner bubble scores
through the logarithmic rule ("each score increase by 1 corresponds to
the doubling of LLC misses", so two equal scores ``S`` combine to
``S + 1`` plus a collision term).  This module makes the sketch
concrete and usable:

* :func:`combined_score` — the score-combination rule with an optional
  collision surcharge estimate.
* :class:`MultiwayPredictor` — predicts a workload's normalized time
  when *several* applications share its nodes, by combining their
  scores per node before heterogeneity conversion.
* :func:`relaxed_cluster_spec` — a cluster spec allowing ``k``-way
  co-location so placements can exercise the extension.

Ground truth for >2-way sharing already exists in the simulator (the
pressure field combines any number of sources), so the extension's
prediction error is measurable — see
``benchmarks/bench_ablation_multiway.py``.
"""

from __future__ import annotations

import math
from typing import List, Mapping, Sequence

from repro.cluster.cluster import ClusterSpec
from repro.core.model import InterferenceModel
from repro.errors import ModelError
from repro.units import MAX_PRESSURE


def combined_score(
    scores: Sequence[float], *, collision_surcharge: float = 0.0
) -> float:
    """Combine several co-runners' bubble scores into one pressure.

    ``log2`` of the summed miss traffic, plus ``collision_surcharge``
    per additional active source (the "extra pressure by collision"
    Section 4.4 mentions but leaves unestimated — callers wanting the
    conservative published rule pass 0).
    """
    values = [float(s) for s in scores]
    if any(s < 0 for s in values):
        raise ModelError("scores must be non-negative")
    active = [s for s in values if s > 0.0]
    if not active:
        return 0.0
    if len(active) == 1:
        return min(active[0], MAX_PRESSURE)
    total = math.log2(sum(2.0**s for s in active))
    total += collision_surcharge * (len(active) - 1)
    return min(total, MAX_PRESSURE)


class MultiwayPredictor:
    """Predicts interference from multiple co-located applications.

    Parameters
    ----------
    model:
        A profiled pairwise model (scores + matrices + policies).
    collision_surcharge:
        Score-combination surcharge per extra co-runner; 0 reproduces
        the paper's conservative rule, ~0.15 matches this simulator's
        ground-truth collision term.
    """

    def __init__(
        self, model: InterferenceModel, *, collision_surcharge: float = 0.0
    ) -> None:
        if collision_surcharge < 0:
            raise ModelError("collision_surcharge must be non-negative")
        self.model = model
        self.collision_surcharge = collision_surcharge

    def node_pressure(self, co_runners: Sequence[str]) -> float:
        """Effective pressure from any number of co-located workloads."""
        scores = [self.model.profile(name).bubble_score for name in co_runners]
        return combined_score(
            scores, collision_surcharge=self.collision_surcharge
        )

    def pressure_vector(
        self,
        workload_nodes: Sequence[int],
        co_runners_by_node: Mapping[int, Sequence[str]],
    ) -> List[float]:
        """Per-node combined pressures for a multiway placement."""
        return [
            self.node_pressure(co_runners_by_node.get(node, ()))
            for node in workload_nodes
        ]

    def predict_under_corunners(
        self,
        workload: str,
        workload_nodes: Sequence[int],
        co_runners_by_node: Mapping[int, Sequence[str]],
    ) -> float:
        """Normalized time under arbitrary-way co-location."""
        vector = self.pressure_vector(workload_nodes, co_runners_by_node)
        return self.model.predict(workload, vector)


def relaxed_cluster_spec(
    base: ClusterSpec | None = None, *, max_workloads: int = 3
) -> ClusterSpec:
    """A cluster spec permitting ``max_workloads``-way co-location.

    The testbed's cores still bound how many units fit; this only
    relaxes the *distinct workload* limit the pairwise model imposed.
    """
    base = base or ClusterSpec()
    if max_workloads < 2:
        raise ModelError("max_workloads must be at least 2")
    return ClusterSpec(
        num_nodes=base.num_nodes,
        cores_per_node=base.cores_per_node,
        memory_gb_per_node=base.memory_gb_per_node,
        max_workloads_per_node=max_workloads,
    )
