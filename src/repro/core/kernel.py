"""Frozen batch-prediction kernel for the placement/admission hot loop.

The scalar :meth:`~repro.core.model.InterferenceModel.predict` path is
the reference the paper's Figure-5 procedure is tested against, but it
pays Python dispatch, profile lookups, and policy instantiation per
call.  This module flattens a model into a :class:`PredictionKernel` —
a frozen snapshot holding each profile's propagation matrix,
heterogeneity policy, and bubble score behind contiguous NumPy arrays.
The model's two batch entry points run on it:
:meth:`~repro.core.model.InterferenceModel.predict_batch` scores a list
of requests, and
:meth:`~repro.core.model.InterferenceModel.predict_placements_batch`
scores a wave of candidate placements (a single placement is a wave of
one) in a handful of array operations.

**Bit-identity contract.**  The batch path must be a pure accelerator:
every float it produces is bit-identical to the scalar path's.  Three
rules make that hold:

* Pressure combination (:func:`~repro.cluster.contention.combine_pressures`)
  uses transcendentals whose vectorized rounding is not guaranteed to
  match ``math.log2``; the kernel therefore never vectorizes it — it
  calls the scalar function once per distinct co-runner score tuple and
  memoizes (placements reuse a handful of local configurations, so the
  cache hit rate is high).
* Policy conversion and matrix lookup use only elementwise ``+ - * /``,
  ``min``/``max``, and comparisons, replayed in the scalar operation
  order (see :meth:`HeterogeneityPolicy.convert_batch
  <repro.core.policies.HeterogeneityPolicy.convert_batch>` and
  :meth:`PropagationMatrix.lookup_batch
  <repro.core.curves.PropagationMatrix.lookup_batch>`).
* Anything anomalous — unknown workload, empty vector, NaN or negative
  pressure — drops the whole batch back onto the scalar path, which
  raises the exact scalar exception in request order.

The kernel is a *snapshot*: matrices are deep-copied at build time, and
:class:`~repro.core.model.InterferenceModel` rebuilds it whenever
``add_profile`` bumps the model's version counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.contention import combine_pressures
from repro.core.curves import HomogeneousSetting, PropagationMatrix
from repro.core.policies import HeterogeneityPolicy, get_policy
from repro.errors import ModelError

#: Below this many rows in a per-workload group, the array machinery
#: costs more than it saves; such groups run the scalar conversion and
#: lookup directly (which is trivially bit-identical — it *is* the
#: scalar computation).  Crossover measured on 2-5 level matrices.
SMALL_GROUP = 12

#: What one batched prediction asks for; ``interference`` takes the
#: same forms :meth:`InterferenceModel.predict` accepts (a
#: ``HomogeneousSetting``, a ``(pressure, count)`` tuple, or a per-node
#: pressure vector).
@dataclass(frozen=True)
class PredictionRequest:
    """One entry of a :meth:`InterferenceModel.predict_batch` call."""

    workload: str
    interference: object


@dataclass(frozen=True)
class _WorkloadTable:
    """Flattened per-workload profile data inside a kernel snapshot."""

    workload: str
    matrix: PropagationMatrix
    max_count: float
    policy: HeterogeneityPolicy
    bubble_score: float


class PredictionKernel:
    """Immutable vectorized view over one model version's profiles.

    Built by :meth:`InterferenceModel.prediction_kernel
    <repro.core.model.InterferenceModel.prediction_kernel>`; consumers
    should obtain it there so snapshot invalidation (on
    ``add_profile``) is handled for them.
    """

    def __init__(
        self,
        profiles: Mapping[str, "InterferenceProfile"],  # noqa: F821
        *,
        version: int = 0,
    ) -> None:
        self.version = version
        self._workload_names = sorted(profiles)
        self._tables: Dict[str, _WorkloadTable] = {}
        self._scores: Dict[str, float] = {}
        for name in self._workload_names:
            profile = profiles[name]
            self._tables[name] = _WorkloadTable(
                workload=name,
                matrix=profile.matrix.copy(),
                max_count=profile.matrix.max_count,
                policy=get_policy(profile.policy_name),
                bubble_score=profile.bubble_score,
            )
            self._scores[name] = profile.bubble_score
        # Distinct co-runner score tuple -> combined pressure, computed
        # by the scalar combine (see module docstring).
        self._combine_cache: Dict[Tuple[float, ...], float] = {}
        # Single-score shortcut (score -> combined of its 1-tuple):
        # two-unit-per-node clusters hit this for every co-runner.
        self._single_cache: Dict[float, float] = {}

    # ------------------------------------------------------------------
    # Pressure-vector extraction
    # ------------------------------------------------------------------
    def combined_pressure(self, scores: Tuple[float, ...]) -> float:
        """Memoized scalar :func:`combine_pressures` (surcharge-free)."""
        value = self._combine_cache.get(scores)
        if value is None:
            value = combine_pressures(scores, collision_surcharge=0.0)
            self._combine_cache[scores] = value
        return value

    def _score_of(self, workload: str) -> float:
        try:
            return self._scores[workload]
        except KeyError:
            raise ModelError(
                f"no interference profile for {workload!r}; "
                f"profiled: {', '.join(self._workload_names)}"
            ) from None

    def pressure_vector(
        self,
        workload_nodes: Sequence[int],
        co_runners_by_node: Mapping[int, Sequence[str]],
    ) -> List[float]:
        """Mirror of :meth:`InterferenceModel.pressure_vector`."""
        return [
            self.combined_pressure(
                tuple(
                    self._score_of(name)
                    for name in co_runners_by_node.get(node, ())
                )
            )
            for node in workload_nodes
        ]

    def placement_vectors(
        self, placement: "Placement"  # noqa: F821
    ) -> List[Tuple[str, str, List[float]]]:
        """``(instance_key, workload, pressure_vector)`` per instance.

        Equivalent to calling ``placement.co_runner_workloads`` plus
        :meth:`pressure_vector` per instance, but built from a single
        pass over the placement's per-node residents — the scalar
        route is quadratic in the instance count.  The co-runner order
        within a node is the placement's assignment order, exactly as
        ``co_runner_workloads`` reports it, so the memoized combine
        replays the scalar summation order.
        """
        scores = self._scores
        single = self._single_cache
        residents = placement.node_residents()
        empty = self.combined_pressure(())
        # Per node, the combined co-runner pressure seen by each of its
        # resident instances (excluding that instance's own units).
        # Nodes host at most ``unit_slots_per_node`` units, so the one-
        # and two-unit cases below cover real clusters; the generic
        # branch keeps larger nodes exact (assignment-order tuples).
        excluding: Dict[int, Dict[str, float]] = {}
        try:
            for node, units in residents.items():
                if len(units) == 1:
                    excluding[node] = {units[0][0]: empty}
                    continue
                if len(units) == 2:
                    (key_a, work_a), (key_b, work_b) = units
                    if key_a == key_b:
                        excluding[node] = {key_a: empty}
                        continue
                    score_a = scores[work_a]
                    score_b = scores[work_b]
                    seen_by_a = single.get(score_b)
                    if seen_by_a is None:
                        seen_by_a = self.combined_pressure((score_b,))
                        single[score_b] = seen_by_a
                    seen_by_b = single.get(score_a)
                    if seen_by_b is None:
                        seen_by_b = self.combined_pressure((score_a,))
                        single[score_a] = seen_by_b
                    excluding[node] = {key_a: seen_by_a, key_b: seen_by_b}
                    continue
                scored = [(key, scores[workload]) for key, workload in units]
                views: Dict[str, float] = {}
                for key, _ in scored:
                    if key not in views:
                        views[key] = self.combined_pressure(
                            tuple(
                                [s for other, s in scored if other != key]
                            )
                        )
                excluding[node] = views
        except KeyError:
            # An unknown workload somewhere: replay the scalar walk
            # (instance order, then node order) so the error names the
            # workload the scalar path would have hit first.
            for spec in placement.instances:
                key = spec.instance_key
                for node in placement.spanned_nodes(key):
                    for other_key, workload in residents.get(node, ()):
                        if other_key != key:
                            self._score_of(workload)
                self._score_of(spec.workload)
            raise  # pragma: no cover - unknowns always reachable above
        out: List[Tuple[str, str, List[float]]] = []
        for spec in placement.instances:
            key = spec.instance_key
            out.append(
                (
                    key,
                    spec.workload,
                    [
                        excluding[node][key]
                        for node in placement.spanned_nodes(key)
                    ],
                )
            )
        return out

    # ------------------------------------------------------------------
    # Vectorized prediction
    # ------------------------------------------------------------------
    def knows(self, workload: str) -> bool:
        """Whether the snapshot carries a profile for ``workload``."""
        return workload in self._tables

    def predict_vectors(
        self,
        workloads: Sequence[str],
        vectors: Sequence[Sequence[float]],
        *,
        policy_override: Optional[HeterogeneityPolicy] = None,
    ) -> Optional[np.ndarray]:
        """Heterogeneous predictions for parallel workload/vector lists.

        Returns ``None`` when the batch contains an anomaly (unknown
        workload, empty vector, NaN or negative pressure) so the caller
        can replay the scalar path and surface the scalar error.
        ``policy_override`` substitutes one policy for every profile's
        own — the degraded-workload conservative ALL-max path.
        """
        size = len(workloads)
        out = np.empty(size, dtype=float)
        if size == 0:
            return out
        lengths = np.fromiter(
            (len(vector) for vector in vectors), dtype=np.intp, count=size
        )
        if (lengths == 0).any():
            return None
        width = int(lengths.max())
        try:
            if int(lengths.min()) == width:
                # Uniform span widths (the common placement case):
                # build the matrix in one C-level pass, no padding.
                padded = np.asarray(vectors, dtype=float)
                if padded.shape != (size, width):
                    return None
            else:
                padded = np.zeros((size, width), dtype=float)
                for i, vector in enumerate(vectors):
                    padded[i, : lengths[i]] = vector
        except (TypeError, ValueError):
            return None
        if np.isnan(padded).any() or (padded < 0.0).any():
            return None
        groups: Dict[str, List[int]] = {}
        for i, workload in enumerate(workloads):
            if workload not in self._tables:
                return None
            groups.setdefault(workload, []).append(i)
        for workload, indices in groups.items():
            table = self._tables[workload]
            policy = policy_override or table.policy
            if len(indices) < SMALL_GROUP:
                matrix = table.matrix
                for i in indices:
                    vector = padded[i, : lengths[i]]
                    setting = policy.convert(vector)
                    scale = table.max_count / len(vector)
                    out[i] = matrix.lookup(
                        HomogeneousSetting(
                            setting.pressure, setting.count * scale
                        )
                    )
                continue
            rows = np.asarray(indices, dtype=np.intp)
            group_lengths = lengths[rows]
            pressure, count = policy.convert_batch(
                padded[rows], group_lengths
            )
            # Same operation order as the scalar path: the profiled
            # span rescale divides max_count by the true vector length,
            # then scales the converted count.
            scale = table.max_count / group_lengths
            out[rows] = table.matrix.lookup_batch(pressure, count * scale)
        return out

    def lookup_settings(
        self, workload: str, pressures: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Vectorized homogeneous lookups for one workload."""
        return self._tables[workload].matrix.lookup_batch(pressures, counts)
