"""Placement representation (Section 5.1).

A placement maps each application instance's VM *units* (4 VMs that
always travel together) onto physical nodes.  The paper's setup puts
four applications of four units each onto eight 16-core hosts: every
host carries exactly two units, so at most two distinct workloads share
a node — the pairwise co-location constraint the model requires.

:class:`Placement` is immutable; the annealing search produces new
placements through :meth:`Placement.swap_units`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro._util import make_rng
from repro.cluster.cluster import ClusterSpec
from repro.errors import PlacementError


@dataclass(frozen=True)
class InstanceSpec:
    """One application instance participating in a placement.

    Parameters
    ----------
    instance_key:
        Unique key, e.g. ``"M.Gems#2"`` (mix HM3 runs two instances of
        the same workload).
    workload:
        Catalog abbreviation.
    num_units:
        VM units the instance deploys (4 in Section 5's experiments).
    weight:
        Contribution to weighted objectives; the paper weights by VM
        count, equal for all instances in its mixes.
    """

    instance_key: str
    workload: str
    num_units: int = 4
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.num_units <= 0:
            raise PlacementError("num_units must be positive")
        if self.weight <= 0:
            raise PlacementError("weight must be positive")


class Placement:
    """An immutable assignment of instance units to nodes.

    Parameters
    ----------
    cluster_spec:
        Cluster shape and co-location limits.
    instances:
        Participating instances.
    assignment:
        For each instance key, the node id of each unit (a sequence of
        length ``num_units``).
    unit_slots_per_node:
        How many units fit on one host (2 on the paper's testbed:
        2 units x 4 VMs x 2 vCPUs = 16 cores).
    """

    def __init__(
        self,
        cluster_spec: ClusterSpec,
        instances: Sequence[InstanceSpec],
        assignment: Mapping[str, Sequence[int]],
        *,
        unit_slots_per_node: int = 2,
    ) -> None:
        self.cluster_spec = cluster_spec
        self.instances: Tuple[InstanceSpec, ...] = tuple(instances)
        self.unit_slots_per_node = unit_slots_per_node
        self._by_key: Dict[str, InstanceSpec] = {
            spec.instance_key: spec for spec in self.instances
        }
        if len(self._by_key) != len(self.instances):
            raise PlacementError("instance keys must be unique")
        self._assignment: Dict[str, Tuple[int, ...]] = {
            key: tuple(int(n) for n in nodes) for key, nodes in assignment.items()
        }
        self._validate()

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if set(self._assignment) != set(self._by_key):
            raise PlacementError(
                "assignment keys do not match the instance set: "
                f"{sorted(self._assignment)} vs {sorted(self._by_key)}"
            )
        load: Dict[int, int] = {}
        residents: Dict[int, set] = {}
        for key, nodes in self._assignment.items():
            spec = self._by_key[key]
            if len(nodes) != spec.num_units:
                raise PlacementError(
                    f"{key}: expected {spec.num_units} unit nodes, got {len(nodes)}"
                )
            if len(set(nodes)) != len(nodes):
                # A unit is defined as the 4 VMs of one application
                # co-scheduled on a host (Section 3.1), so a host never
                # carries two units of the same instance.
                raise PlacementError(
                    f"{key}: units must occupy distinct nodes, got {nodes}"
                )
            for node in nodes:
                if not 0 <= node < self.cluster_spec.num_nodes:
                    raise PlacementError(f"{key}: node {node} out of range")
                load[node] = load.get(node, 0) + 1
                residents.setdefault(node, set()).add(key)
        for node, count in load.items():
            if count > self.unit_slots_per_node:
                raise PlacementError(
                    f"node {node} holds {count} units; capacity is "
                    f"{self.unit_slots_per_node}"
                )
        for node, keys in residents.items():
            if len(keys) > self.cluster_spec.max_workloads_per_node:
                raise PlacementError(
                    f"node {node} hosts {len(keys)} distinct workloads; "
                    f"the pairwise limit is "
                    f"{self.cluster_spec.max_workloads_per_node}"
                )

    # ------------------------------------------------------------------
    #: Shuffle attempts before giving up on a random valid placement.
    _RANDOM_ATTEMPTS = 500

    @classmethod
    def random(
        cls,
        cluster_spec: ClusterSpec,
        instances: Sequence[InstanceSpec],
        *,
        unit_slots_per_node: int = 2,
        seed: object = 0,
    ) -> "Placement":
        """Uniformly random *valid* placement over the node unit-slots.

        Rejection-samples shuffles of the slot list until the
        distinct-nodes-per-instance constraint holds (a large fraction
        of shuffles do for the paper's shapes).
        """
        rng = make_rng(seed)
        slots: List[int] = [
            node
            for node in range(cluster_spec.num_nodes)
            for _ in range(unit_slots_per_node)
        ]
        total_units = sum(spec.num_units for spec in instances)
        if total_units > len(slots):
            raise PlacementError(
                f"{total_units} units exceed {len(slots)} unit slots"
            )
        last_error: PlacementError | None = None
        for _ in range(cls._RANDOM_ATTEMPTS):
            order = rng.permutation(len(slots))
            assignment: Dict[str, List[int]] = {}
            cursor = 0
            for spec in instances:
                nodes = [
                    slots[int(order[cursor + u])] for u in range(spec.num_units)
                ]
                assignment[spec.instance_key] = nodes
                cursor += spec.num_units
            try:
                return cls(
                    cluster_spec,
                    instances,
                    assignment,
                    unit_slots_per_node=unit_slots_per_node,
                )
            except PlacementError as exc:
                last_error = exc
        raise PlacementError(
            f"no valid random placement found in {cls._RANDOM_ATTEMPTS} "
            f"attempts; last error: {last_error}"
        )

    # ------------------------------------------------------------------
    def instance(self, key: str) -> InstanceSpec:
        """The instance spec behind ``key``."""
        try:
            return self._by_key[key]
        except KeyError:
            raise PlacementError(f"unknown instance {key!r}") from None

    def nodes_of(self, key: str) -> Tuple[int, ...]:
        """Node of each unit of ``key`` (index = unit index)."""
        try:
            return self._assignment[key]
        except KeyError:
            raise PlacementError(f"unknown instance {key!r}") from None

    def units_to_nodes(self, key: str) -> Dict[int, int]:
        """Unit-to-node mapping suitable for deployment."""
        return dict(enumerate(self.nodes_of(key)))

    def spanned_nodes(self, key: str) -> List[int]:
        """Sorted distinct nodes ``key`` occupies."""
        # Units occupy distinct nodes (validated), so no set() needed.
        return sorted(self.nodes_of(key))

    def co_runner_workloads(self, key: str) -> Dict[int, List[str]]:
        """Per-node workload names of other instances' resident units.

        This is the model-facing view: for each node the instance
        spans, which workloads (one entry per unit, repeats allowed)
        would pressure it there.
        """
        spanned = set(self.nodes_of(key))
        result: Dict[int, List[str]] = {node: [] for node in spanned}
        for other_key, nodes in self._assignment.items():
            if other_key == key:
                continue
            workload = self._by_key[other_key].workload
            for node in nodes:
                if node in spanned:
                    result[node].append(workload)
        return result

    def node_residents(self) -> Dict[int, List[Tuple[str, str]]]:
        """Per-node ``(instance_key, workload)`` of every resident unit.

        The single-pass complement of :meth:`co_runner_workloads`:
        filtering a node's residents by ``instance_key != key`` yields
        exactly that method's per-node co-runner list, in the same
        assignment order — which is what lets batch prediction extract
        every instance's pressure vector from one sweep instead of one
        quadratic pass per instance.
        """
        residents: Dict[int, List[Tuple[str, str]]] = {}
        for key, nodes in self._assignment.items():
            workload = self._by_key[key].workload
            for node in nodes:
                residents.setdefault(node, []).append((key, workload))
        return residents

    def swap_units(
        self, key_a: str, unit_a: int, key_b: str, unit_b: int
    ) -> "Placement":
        """New placement with two units' nodes exchanged.

        Raises
        ------
        PlacementError
            If indices are invalid or the swap violates constraints.
        """
        nodes_a = self.nodes_of(key_a)
        nodes_b = self.nodes_of(key_b)
        if not 0 <= unit_a < len(nodes_a):
            raise PlacementError(f"{key_a}: unit index {unit_a} out of range")
        if not 0 <= unit_b < len(nodes_b):
            raise PlacementError(f"{key_b}: unit index {unit_b} out of range")
        if key_a == key_b:
            raise PlacementError("swap requires two different instances")
        node_a, node_b = nodes_a[unit_a], nodes_b[unit_b]
        # A 1-for-1 exchange leaves every node's unit count (and, since
        # each resident unit belongs to a distinct instance, its
        # workload count) untouched, so the only rule a swap can break
        # is distinct-nodes-per-instance.  Checking just that keeps the
        # annealing search off the full O(units) validation pass.
        if node_b != node_a:
            if node_b in nodes_a:
                raise PlacementError(
                    f"{key_a}: units must occupy distinct nodes; "
                    f"already on node {node_b}"
                )
            if node_a in nodes_b:
                raise PlacementError(
                    f"{key_b}: units must occupy distinct nodes; "
                    f"already on node {node_a}"
                )
        swapped_a = list(nodes_a)
        swapped_b = list(nodes_b)
        swapped_a[unit_a], swapped_b[unit_b] = node_b, node_a
        assignment = dict(self._assignment)
        assignment[key_a] = tuple(swapped_a)
        assignment[key_b] = tuple(swapped_b)
        clone = Placement.__new__(Placement)
        clone.cluster_spec = self.cluster_spec
        clone.instances = self.instances
        clone.unit_slots_per_node = self.unit_slots_per_node
        clone._by_key = self._by_key
        clone._assignment = assignment
        return clone

    def deployments(self) -> List[Tuple[str, str, Dict[int, int]]]:
        """(instance key, workload, unit->node) triples for execution."""
        return [
            (spec.instance_key, spec.workload, self.units_to_nodes(spec.instance_key))
            for spec in self.instances
        ]

    def occupancy(self) -> Dict[int, List[str]]:
        """Sorted instance keys per node (diagnostics, reporting)."""
        result: Dict[int, List[str]] = {}
        for key, nodes in sorted(self._assignment.items()):
            for node in nodes:
                result.setdefault(node, []).append(key)
        return {node: sorted(keys) for node, keys in result.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return self._assignment == other._assignment

    def __hash__(self) -> int:
        return hash(tuple(sorted((k, v) for k, v in self._assignment.items())))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Placement({self._assignment})"
