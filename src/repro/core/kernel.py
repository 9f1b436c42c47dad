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
:meth:`~repro.core.model.InterferenceModel.predict_corunners_batch`
scores many instances given their co-runners per node (a placement, or
the instances an admission candidate touches) in a handful of array
operations.

**Bit-identity contract.**  The batch path must be a pure accelerator:
every float it produces is bit-identical to the scalar path's.  Three
rules make that hold:

* Pressure combination (:func:`~repro.cluster.contention.combine_pressures`)
  uses transcendentals whose vectorized rounding is not guaranteed to
  match ``math.log2``; the kernel therefore never vectorizes it — it
  calls the scalar function once per distinct co-runner workload tuple
  and memoizes (placements reuse a handful of local configurations, so the
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
        # Distinct co-runner workload tuple -> combined pressure,
        # computed by the scalar combine (see module docstring).
        self._combine_cache: Dict[Tuple[str, ...], float] = {}

    # ------------------------------------------------------------------
    # Pressure-vector extraction
    # ------------------------------------------------------------------
    def _score_of(self, workload: str) -> float:
        try:
            return self._scores[workload]
        except KeyError:
            raise ModelError(
                f"no interference profile for {workload!r}; "
                f"profiled: {', '.join(self._workload_names)}"
            ) from None

    def layout_vectors(
        self, layouts: Sequence[Sequence[Sequence[str]]]
    ) -> List[List[float]]:
        """Per-node pressure vectors for co-runner workloads per node.

        ``layouts[j][i]`` holds the co-runners on the ``i``-th spanned
        node of instance ``j``, so vector ``j`` mirrors
        :meth:`InterferenceModel.pressure_vector` over
        ``co_runners_by_node[node]`` for each of its nodes in order.
        Each node's combined pressure is memoized per co-runner
        workload tuple: the scalar combine runs once per distinct local
        configuration.
        """
        cache = self._combine_cache
        try:
            return [[cache[names] for names in layout] for layout in layouts]
        except (KeyError, TypeError):  # a new configuration, or lists
            pass
        vectors: List[List[float]] = []
        for layout in layouts:
            vector: List[float] = []
            for names in layout:
                names = tuple(names)
                value = cache.get(names)
                if value is None:
                    value = cache[names] = combine_pressures(
                        [self._score_of(name) for name in names],
                        collision_surcharge=0.0,
                    )
                vector.append(value)
            vectors.append(vector)
        return vectors

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
    ) -> Optional[np.ndarray]:
        """Heterogeneous predictions for parallel workload/vector lists.

        Returns ``None`` when the batch contains an anomaly (unknown
        workload, empty vector, NaN or negative pressure) so the caller
        can replay the scalar path and surface the scalar error.
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
            policy = table.policy
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
