"""The interference-aware performance model (Sections 3.4 and 4).

An :class:`InterferenceProfile` bundles everything profiling produces
for one application:

1. its propagation matrix (sensitivity curves over homogeneous
   interference),
2. its best heterogeneity mapping policy, and
3. its bubble score (the pressure it exerts on co-runners).

The :class:`InterferenceModel` holds profiles for a set of applications
and predicts normalized execution times — for explicit interference
settings (used in validation) and for *placements*, where each
application's per-node pressure vector is derived from the bubble
scores of whatever shares its nodes (Figure 5's procedure).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.contention import ContentionDomain, combine_pressures
from repro.core.curves import HomogeneousSetting, PropagationMatrix
from repro.core.kernel import PredictionKernel, PredictionRequest
from repro.core.policies import HeterogeneityPolicy, get_policy
from repro.errors import ModelError
from repro.obs import recorder as _obs

#: What :meth:`InterferenceModel.predict` accepts as an interference
#: description: a homogeneous ``(pressure, count)`` setting (a
#: :class:`HomogeneousSetting` or a plain 2-tuple) or a per-node
#: pressure vector (a list/array, one entry per spanned node).
Interference = Union[HomogeneousSetting, Tuple[float, float], Sequence[float]]

#: Heterogeneity mapping of the NETWORK domain.  Collectives are gated
#: by the bottleneck link — the slowest uplink serializes the whole
#: exchange — so the worst per-node link pressure propagates to the
#: entire span regardless of the workload's compute-domain policy.
NETWORK_POLICY = "ALL MAX"


def _count_batch(size: int) -> None:
    """Batch-size counters for ``repro trace summarize`` rollups."""
    _obs.RECORDER.count("model.predict.batch.calls")
    _obs.RECORDER.count("model.predict.batch.requests", size)


@dataclass(frozen=True)
class InterferenceProfile:
    """Profiled interference behaviour of one application.

    The scalar-era fields describe the COMPUTE contention domain
    (LLC + memory bandwidth).  ``network_matrix``/``network_score``
    describe the NETWORK domain and stay at their defaults for every
    profile built without network profiling — serialization omits them
    entirely in that case, so existing model files round-trip
    byte-identically.
    """

    workload: str
    matrix: PropagationMatrix
    policy_name: str
    bubble_score: float
    #: Propagation matrix over NETWORK-domain (link-noise) settings;
    #: ``None`` means the workload was not profiled for the network
    #: dimension and its predictions are compute-only.
    network_matrix: Optional[PropagationMatrix] = None
    #: Link pressure the workload exerts on co-runners' uplinks (its
    #: network bubble score).
    network_score: float = 0.0

    def __post_init__(self) -> None:
        # ``json`` parses NaN/Infinity, so a model file can smuggle in
        # scores that would otherwise fail only at the first prediction.
        for name in ("bubble_score", "network_score"):
            score = getattr(self, name)
            if not math.isfinite(score) or score < 0:
                raise ModelError(
                    f"{name} must be finite and non-negative; got {score!r}"
                )
        get_policy(self.policy_name)  # validates the name

    @property
    def policy(self) -> HeterogeneityPolicy:
        """Instantiate the profile's heterogeneity policy."""
        return get_policy(self.policy_name)

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        payload = {
            "workload": self.workload,
            "matrix": self.matrix.to_dict(),
            "policy": self.policy_name,
            "bubble_score": self.bubble_score,
        }
        if self.network_matrix is not None:
            payload["network_matrix"] = self.network_matrix.to_dict()
        if self.network_score:
            payload["network_score"] = self.network_score
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "InterferenceProfile":
        """Inverse of :meth:`to_dict`."""
        network_matrix = payload.get("network_matrix")
        return cls(
            workload=payload["workload"],
            matrix=PropagationMatrix.from_dict(payload["matrix"]),
            policy_name=payload["policy"],
            bubble_score=payload["bubble_score"],
            network_matrix=(
                None if network_matrix is None
                else PropagationMatrix.from_dict(network_matrix)
            ),
            network_score=payload.get("network_score", 0.0),
        )


class InterferenceModel:
    """Predicts distributed applications' performance under interference.

    Parameters
    ----------
    profiles:
        One :class:`InterferenceProfile` per application the model
        knows about.
    """

    def __init__(self, profiles: Mapping[str, InterferenceProfile]) -> None:
        self._profiles = dict(profiles)
        #: Bumped on every profile registration; the cached
        #: :class:`PredictionKernel` snapshot is keyed on it.
        self._version = 0
        self._kernel: PredictionKernel | None = None
        self._net_kernel: PredictionKernel | None = None
        self._net_version = -1
        self._net_predictable: frozenset = frozenset()

    @property
    def workloads(self) -> List[str]:
        """Workloads the model can predict for."""
        return sorted(self._profiles)

    def profile(self, workload: str) -> InterferenceProfile:
        """The profile of ``workload``.

        Raises
        ------
        ModelError
            If the workload was never profiled.
        """
        try:
            return self._profiles[workload]
        except KeyError:
            raise ModelError(
                f"no interference profile for {workload!r}; "
                f"profiled: {', '.join(sorted(self._profiles))}"
            ) from None

    def add_profile(self, profile: InterferenceProfile) -> None:
        """Register (or replace) a workload profile.

        Invalidates the cached :meth:`prediction_kernel` snapshot.
        """
        self._profiles[profile.workload] = profile
        self._version += 1

    def prediction_kernel(self) -> PredictionKernel:
        """The frozen batch-prediction snapshot of this model.

        Rebuilt lazily whenever :meth:`add_profile` has registered or
        replaced a profile since the last build; see
        :mod:`repro.core.kernel` for the bit-identity contract.
        """
        kernel = self._kernel
        if kernel is None or kernel.version != self._version:
            kernel = PredictionKernel(self._profiles, version=self._version)
            self._kernel = kernel
        return kernel

    def _network_predictable(self) -> frozenset:
        """Workloads holding a network matrix (version-cached)."""
        if self._net_version != self._version:
            self._net_predictable = frozenset(
                name
                for name, profile in self._profiles.items()
                if profile.network_matrix is not None
            )
            self._net_kernel = None
            self._net_version = self._version
        return self._net_predictable

    @property
    def has_network(self) -> bool:
        """Whether any profile carries the NETWORK contention domain.

        False for every model built without network profiling; all
        combined-prediction branches gate on it, so such models execute
        exactly the scalar-era code paths.
        """
        return bool(self._network_predictable())

    def network_kernel(self) -> PredictionKernel:
        """The batch-prediction snapshot of the NETWORK domain.

        Built from a *view* of the profiles in which each workload's
        matrix is its network matrix and its bubble score is its
        network score, so the full kernel machinery — and its
        bit-identity contract — applies unchanged to the network
        dimension.  Workloads without a network matrix appear in the
        view only as pressure sources (their compute matrix is a
        placeholder that is never consulted; prediction for them is
        guarded at the model level).

        Every view profile carries the ALL-max heterogeneity policy:
        a collective is gated by its *bottleneck* link (the slowest
        uplink serializes the whole exchange), so the worst link
        pressure anywhere on the span is what the network matrix must
        be read at — see :data:`NETWORK_POLICY`.
        """
        self._network_predictable()
        if self._net_kernel is None or self._net_kernel.version != self._version:
            view = {
                name: InterferenceProfile(
                    workload=profile.workload,
                    matrix=(
                        profile.network_matrix
                        if profile.network_matrix is not None
                        else profile.matrix
                    ),
                    policy_name=NETWORK_POLICY,
                    bubble_score=profile.network_score,
                )
                for name, profile in self._profiles.items()
            }
            self._net_kernel = PredictionKernel(view, version=self._version)
        return self._net_kernel

    # ------------------------------------------------------------------
    # Predictions
    # ------------------------------------------------------------------
    def predict(
        self,
        workload: str,
        interference: Interference,
        *,
        domain: ContentionDomain = ContentionDomain.COMPUTE,
    ) -> float:
        """Normalized time of ``workload`` under ``interference``.

        The single prediction entry point; dispatches on the type of
        ``interference``:

        * a :class:`HomogeneousSetting` or a plain **tuple**
          ``(pressure, count)`` — the homogeneous lookup (``count``
          nodes all interfering at ``pressure``);
        * any other sequence (list, array) — a per-node pressure
          vector, one entry per node the deployment spans, mapped
          through the workload's heterogeneity policy (Figure 5).

        The tuple/list distinction is deliberate: a 2-tuple is always
        the homogeneous pair, a 2-element list is always a 2-node
        vector.

        ``domain`` selects the contention resource: COMPUTE (the
        default, and exactly the scalar-era behaviour) reads the
        propagation matrix over cache/memory-bandwidth settings;
        NETWORK reads the per-link matrix and raises
        :class:`~repro.errors.ModelError` for workloads without a
        network profile.

        >>> model.predict("M.lmps", (5.0, 3))          # homogeneous
        >>> model.predict("M.lmps", [6.0, 3.0, 0, 0])  # heterogeneous
        """
        if domain is not ContentionDomain.COMPUTE:
            domain = ContentionDomain.parse(domain)
        if isinstance(interference, HomogeneousSetting):
            return self._predict_homogeneous(
                workload, interference.pressure, interference.count,
                domain=domain,
            )
        if isinstance(interference, tuple):
            if len(interference) != 2:
                raise ModelError(
                    "a homogeneous interference tuple must be "
                    f"(pressure, count); got {len(interference)} elements"
                )
            pressure, count = interference
            return self._predict_homogeneous(
                workload, float(pressure), float(count), domain=domain
            )
        if isinstance(interference, np.ndarray):
            # Float64 vectors pass through uncopied — the per-element
            # ``float()`` round-trip below is a pure identity for them
            # and a measurable allocation on the heterogeneous hot path.
            if interference.dtype == np.float64 and interference.ndim == 1:
                return self._predict_heterogeneous(
                    workload, interference, domain=domain
                )
            return self._predict_heterogeneous(
                workload, [float(p) for p in interference], domain=domain
            )
        if isinstance(interference, list) or (
            isinstance(interference, Sequence)
            and not isinstance(interference, (str, bytes))
        ):
            return self._predict_heterogeneous(
                workload, [float(p) for p in interference], domain=domain
            )
        raise ModelError(
            "interference must be a (pressure, count) pair or a per-node "
            f"pressure vector; got {type(interference).__name__}"
        )

    def _domain_matrix(
        self, profile: InterferenceProfile, domain: ContentionDomain
    ) -> PropagationMatrix:
        if domain is ContentionDomain.COMPUTE:
            return profile.matrix
        if profile.network_matrix is None:
            raise ModelError(
                f"no network profile for {profile.workload!r}; "
                "build one with build_network_profiles"
            )
        return profile.network_matrix

    def _predict_homogeneous(
        self, workload: str, pressure: float, count: float,
        *, domain: ContentionDomain = ContentionDomain.COMPUTE,
    ) -> float:
        profile = self.profile(workload)
        matrix = self._domain_matrix(profile, domain)
        return matrix.lookup(HomogeneousSetting(pressure, count))

    def _predict_heterogeneous(
        self, workload: str, pressures: Sequence[float],
        *, domain: ContentionDomain = ContentionDomain.COMPUTE,
    ) -> float:
        """Normalized time under a per-node pressure vector.

        Applies the workload's heterogeneity policy (ALL max in the
        NETWORK domain) and then looks up the propagation matrix —
        exactly Figure 5's procedure.

        The pressure vector has one entry per node the *deployment*
        spans.  The matrix was profiled on a fixed span (all 8 hosts in
        Section 3.1), so when the deployment spans fewer nodes —
        Section 5 runs each application on 4 hosts — the converted
        node count is rescaled to the profiled span: ``k`` interfering
        nodes out of 4 correspond to ``2k`` out of the profiled 8.
        """
        profile = self.profile(workload)
        matrix = self._domain_matrix(profile, domain)
        if domain is ContentionDomain.COMPUTE:
            policy = profile.policy
        else:
            policy = get_policy(NETWORK_POLICY)
        setting = policy.convert(pressures)
        scale = matrix.max_count / len(pressures)
        scaled = HomogeneousSetting(setting.pressure, setting.count * scale)
        return matrix.lookup(scaled)

    def pressure_vector(
        self,
        workload_nodes: Sequence[int],
        co_runners_by_node: Mapping[int, Sequence[str]],
        *,
        domain: ContentionDomain = ContentionDomain.COMPUTE,
    ) -> List[float]:
        """Per-node pressures an application sees from its co-runners.

        Parameters
        ----------
        workload_nodes:
            Nodes the target application spans.
        co_runners_by_node:
            For each node, the workload names of *other* applications
            resident there (one name per resident VM unit; the same
            name may repeat if two units share the node).
        domain:
            COMPUTE (the default) combines the co-runners' bubble
            scores; NETWORK combines their network scores into per-node
            *link* pressures.

        Notes
        -----
        Pressures combine using the public scoring rule (one level per
        doubling of misses) without the collision surcharge — the model
        cannot observe the surcharge, which is one of its honest error
        sources.
        """
        if domain is not ContentionDomain.COMPUTE:
            domain = ContentionDomain.parse(domain)
        network = domain is ContentionDomain.NETWORK
        vector: List[float] = []
        for node in workload_nodes:
            scores = [
                self.profile(name).network_score
                if network
                else self.profile(name).bubble_score
                for name in co_runners_by_node.get(node, ())
            ]
            vector.append(combine_pressures(scores, collision_surcharge=0.0))
        return vector

    def _network_factor(
        self,
        workload: str,
        workload_nodes: Sequence[int],
        co_runners_by_node: Mapping[int, Sequence[str]],
    ) -> Optional[float]:
        """NETWORK-domain slowdown factor, or ``None`` if not applicable.

        ``None`` when the target has no network profile — combined
        predictions then degrade gracefully to compute-only, mirroring
        the scalar era.
        """
        profile = self.profile(workload)
        if profile.network_matrix is None:
            return None
        vector = self.pressure_vector(
            workload_nodes, co_runners_by_node,
            domain=ContentionDomain.NETWORK,
        )
        return self._predict_heterogeneous(
            workload, vector, domain=ContentionDomain.NETWORK
        )

    def predict_under_corunners(
        self,
        workload: str,
        workload_nodes: Sequence[int],
        co_runners_by_node: Mapping[int, Sequence[str]],
    ) -> float:
        """Normalized time of ``workload`` given its co-runners per node.

        When the model carries the NETWORK domain, the prediction is
        the *combined* per-resource estimate: the compute slowdown
        multiplied by the link-contention slowdown (slowdowns on
        independent resources compose multiplicatively, the standard
        independence assumption).  Models without network profiles run
        exactly the scalar-era code path.
        """
        vector = self.pressure_vector(workload_nodes, co_runners_by_node)
        value = self._predict_heterogeneous(workload, vector)
        if self.has_network:
            factor = self._network_factor(
                workload, workload_nodes, co_runners_by_node
            )
            if factor is not None:
                value = value * factor
        return value

    # ------------------------------------------------------------------
    # Batch predictions (the vectorized hot path)
    # ------------------------------------------------------------------
    def predict_batch(
        self,
        requests: Sequence[Union[PredictionRequest, Tuple[str, object]]],
        *,
        domain: ContentionDomain = ContentionDomain.COMPUTE,
    ) -> np.ndarray:
        """Vectorized :meth:`predict` over many requests at once.

        Each request is a :class:`~repro.core.kernel.PredictionRequest`
        or a plain ``(workload, interference)`` pair; ``interference``
        takes the same forms :meth:`predict` accepts.  ``domain``
        selects the contention resource exactly as in :meth:`predict`.
        Results are bit-identical to calling :meth:`predict` per
        request (see :mod:`repro.core.kernel`); any malformed request
        drops the whole batch onto the scalar path so the scalar
        exception is raised, in request order.
        """
        if domain is not ContentionDomain.COMPUTE:
            domain = ContentionDomain.parse(domain)
        unpacked: List[Tuple[str, object]] = []
        for request in requests:
            if isinstance(request, PredictionRequest):
                unpacked.append((request.workload, request.interference))
            else:
                workload, interference = request
                unpacked.append((workload, interference))
        _count_batch(len(unpacked))
        if domain is ContentionDomain.NETWORK:
            kernel = self.network_kernel()
            # The network view knows every workload as a pressure
            # source, but only these carry a network matrix.
            predictable = self._network_predictable()
        else:
            kernel = self.prediction_kernel()
            predictable = None
        het_indices: List[int] = []
        het_workloads: List[str] = []
        het_vectors: List[Sequence[float]] = []
        # Homogeneous settings grouped per workload: indices, pressures,
        # counts.
        hom: Dict[str, Tuple[List[int], List[float], List[float]]] = {}
        for i, (workload, interference) in enumerate(unpacked):
            if not kernel.knows(workload) or (
                predictable is not None and workload not in predictable
            ):
                break
            if isinstance(interference, tuple) and not isinstance(
                interference, HomogeneousSetting
            ):
                try:
                    pressure, count = interference
                    interference = HomogeneousSetting(
                        float(pressure), float(count)
                    )
                except (TypeError, ValueError):
                    break
            if isinstance(interference, HomogeneousSetting):
                bucket = hom.setdefault(workload, ([], [], []))
                bucket[0].append(i)
                bucket[1].append(interference.pressure)
                bucket[2].append(interference.count)
            elif isinstance(interference, (list, np.ndarray)) or (
                isinstance(interference, Sequence)
                and not isinstance(interference, (str, bytes))
            ):
                het_indices.append(i)
                het_workloads.append(workload)
                het_vectors.append(interference)
            else:
                break
        else:
            values = kernel.predict_vectors(het_workloads, het_vectors)
            if values is not None:
                out = np.empty(len(unpacked), dtype=float)
                out[het_indices] = values
                for workload, (indices, pressures, counts) in hom.items():
                    out[indices] = kernel.lookup_settings(
                        workload, np.asarray(pressures), np.asarray(counts)
                    )
                return out
        # A malformed request: replay the whole batch on the scalar
        # path, which raises the scalar error in request order.
        return np.array(
            [self.predict(workload, interference, domain=domain)
             for workload, interference in unpacked],
            dtype=float,
        )

    def predict_placements_batch(
        self, placements: Sequence["Placement"]  # noqa: F821
    ) -> np.ndarray:
        """Score a whole wave of candidate placements in one batch.

        All placements must share the same instance list in the same
        order (an admission wave extends one base placement with the
        same job; a single placement is a wave of one).  Returns a
        ``(num_placements, num_instances)`` array whose row ``c`` holds
        candidate ``c``'s per-instance predictions in instance order,
        bit-identical to
        :func:`repro.placement.objectives.predict_placement_scalar`.
        """
        if not placements:
            return np.empty((0, 0), dtype=float)
        keys = tuple(spec.instance_key for spec in placements[0].instances)
        for placement in placements[1:]:
            if tuple(
                spec.instance_key for spec in placement.instances
            ) != keys:
                raise ModelError(
                    "predict_placements_batch requires every placement "
                    "to share one instance list"
                )
        workloads: List[str] = []
        vectors: List[List[float]] = []
        kernel = self.prediction_kernel()
        for placement in placements:
            for _, workload, vector in kernel.placement_vectors(placement):
                workloads.append(workload)
                vectors.append(vector)
        _count_batch(len(workloads))
        values = kernel.predict_vectors(workloads, vectors)
        net_vectors: List[List[float]] = []
        predictable = self._network_predictable()
        if predictable:
            # Same placements, network view: vectors combine co-runner
            # *network* scores, in the same instance order.
            net_kernel = self.network_kernel()
            for placement in placements:
                for _, _, vector in net_kernel.placement_vectors(placement):
                    net_vectors.append(vector)
        if values is not None and predictable:
            indices = [
                i for i, workload in enumerate(workloads)
                if workload in predictable
            ]
            factors = net_kernel.predict_vectors(
                [workloads[i] for i in indices],
                [net_vectors[i] for i in indices],
            )
            if factors is None:
                values = None
            else:
                values[indices] = values[indices] * factors
        if values is None:
            # An anomaly (unknown workload, NaN pressure, ...): replay
            # the combined scalar path, which raises the scalar error.
            replay: List[float] = []
            for i, (workload, vector) in enumerate(zip(workloads, vectors)):
                value = self._predict_heterogeneous(workload, vector)
                if workload in predictable:
                    value = value * self._predict_heterogeneous(
                        workload, net_vectors[i],
                        domain=ContentionDomain.NETWORK,
                    )
                replay.append(value)
            values = np.array(replay, dtype=float)
        return values.reshape(len(placements), len(keys))

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-serializable representation of all profiles."""
        return {name: prof.to_dict() for name, prof in self._profiles.items()}

    @classmethod
    def from_dict(cls, payload: dict) -> "InterferenceModel":
        """Inverse of :meth:`to_dict`."""
        return cls(
            {name: InterferenceProfile.from_dict(p) for name, p in payload.items()}
        )
