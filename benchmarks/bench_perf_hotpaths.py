"""Before/after microbenchmarks for the three hot-path optimizations.

Covers the PR's fast paths, each against the slow path it replaces:

* **Incremental annealing energy** — delta evaluation re-predicts only
  the instances on the two swapped nodes, versus re-predicting the
  whole mix every proposal.  Same seeds, bit-identical results.
* **Parallel measurement fan-out** — a pairwise co-run sweep shipped
  through ``measure_many`` with worker processes, versus the serial
  loop.  (The speedup floor is only asserted on machines with >= 4
  cores; bit-identity is asserted everywhere.)
* **Persistent measurement cache** — a cold sweep that simulates and
  records, versus a warm sweep that replays the recorded times.
* **Batch prediction** — a full-placement evaluation and an admission
  candidate wave scored through the vectorized
  :class:`~repro.core.kernel.PredictionKernel` path, versus the scalar
  per-instance reference.  Bit-identical by construction (see the
  "Batch prediction" section of ``docs/performance.md``).
* **Flat-network gate** — the per-resource prediction API's only cost
  on models without network profiles: one ``has_network`` consultation
  per batch call.  The guard bounds the gate at 5% of an end-to-end
  placement prediction, so flat models stay within 1.05x of the
  scalar-era path they still execute.

Numbers land in ``benchmarks/results/perf_hotpaths.txt`` (plus a JSON
twin for tooling).  The tier-1 ``perf_smoke`` regression guard
(``tests/perf/``) checks a scaled-down version of the same paths
against the checked-in baseline.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

from repro.cluster.cluster import ClusterSpec
from repro.core.curves import PropagationMatrix
from repro.core.model import InterferenceModel, InterferenceProfile
from repro.placement.annealing import AnnealingSchedule, SimulatedAnnealingPlacer
from repro.placement.assignment import InstanceSpec, Placement
from repro.placement.objectives import (
    WeightedTimeEnergy,
    predict_placement,
    predict_placement_scalar,
    weighted_total_time,
)
from repro.service.admission import AdmissionController
from repro.service.jobs import Job
from repro.sim.cache import MeasurementCache
from repro.sim.runner import ClusterRunner, MeasurementRequest

#: Section 5-like shape, scaled up so the per-proposal win is visible:
#: 16 applications x 4 units on 32 two-slot nodes.  A full evaluation
#: re-predicts 16 instances; a swap touches 2 nodes, so delta
#: evaluation re-predicts at most 4.
NUM_NODES = 32
NUM_INSTANCES = 16
UNITS_PER_INSTANCE = 4
SEARCH_SCHEDULE = AnnealingSchedule(iterations=2000, restarts=1)

SWEEP_TARGETS = ("M.lmps", "M.Gems", "N.cg", "S.PR")
SWEEP_CO_RUNNERS = ("C.gcc", "C.mcf", "C.libq", "S.WC", "H.KM")


def _make_matrix(max_slowdown: float) -> PropagationMatrix:
    amplitude = max_slowdown - 1.0
    counts = list(range(UNITS_PER_INSTANCE + 1))
    pressures = [2.0, 4.0, 6.0, 8.0]
    values = np.array(
        [
            [
                1.0 + amplitude * (p / 8.0) * (c / UNITS_PER_INSTANCE) ** 0.5
                for c in counts
            ]
            for p in pressures
        ]
    )
    return PropagationMatrix(pressures, counts, values)


def make_search_model() -> InterferenceModel:
    kinds = [
        ("loud", 1.3, 8.0, "N+1 MAX"),
        ("quiet", 1.05, 0.5, "INTERPOLATE"),
        ("sensitive", 2.0, 2.0, "N+1 MAX"),
    ]
    profiles = {
        name: InterferenceProfile(
            workload=name,
            matrix=_make_matrix(slowdown),
            policy_name=policy,
            bubble_score=score,
        )
        for name, slowdown, score, policy in kinds
    }
    return InterferenceModel(profiles)


def search_instances():
    kinds = ("loud", "quiet", "sensitive")
    return [
        InstanceSpec(f"{kinds[i % 3]}#{i}", kinds[i % 3], UNITS_PER_INSTANCE)
        for i in range(NUM_INSTANCES)
    ]


def full_energy(model):
    def energy(placement: Placement) -> float:
        return weighted_total_time(predict_placement(model, placement), placement)

    return energy


def assignment_of(placement: Placement):
    return {
        spec.instance_key: tuple(placement.nodes_of(spec.instance_key))
        for spec in placement.instances
    }


def sweep_requests():
    return [
        MeasurementRequest.corun(target, co)
        for target in SWEEP_TARGETS
        for co in SWEEP_CO_RUNNERS
    ] + [
        MeasurementRequest.measure(target, pressure, 4)
        for target in SWEEP_TARGETS
        for pressure in (2.0, 4.0, 6.0, 8.0)
    ]


#: Consolidated-cluster shape for the batch-prediction benchmarks:
#: the vectorized path's advantage grows with the instance count (the
#: scalar route is quadratic in it), so these use a cluster an order
#: of magnitude beyond the annealing shape above.
BATCH_NUM_INSTANCES = 192
BATCH_NUM_NODES = 432

#: Admission-wave shape: 16 resident tenants leaving ten half-free
#: nodes, so one four-unit job enumerates C(10, 4) = 210 candidate
#: placements of 17 instances each.
WAVE_NUM_NODES = 37
WAVE_NUM_TENANTS = 16


def consolidated_placement(num_instances, num_nodes, seed=7):
    """A dense random spread of 4-unit instances over 2-slot nodes."""
    import random

    rng = random.Random(seed)
    kinds = ("loud", "quiet", "sensitive")
    spec = ClusterSpec(num_nodes=num_nodes)
    instances, assignment = [], {}
    free = {node: 2 for node in range(num_nodes)}
    for i in range(num_instances):
        key = f"{kinds[i % 3]}#{i}"
        instances.append(InstanceSpec(key, kinds[i % 3], UNITS_PER_INSTANCE))
        open_nodes = [node for node, slots in free.items() if slots > 0]
        nodes = rng.sample(open_nodes, UNITS_PER_INSTANCE)
        for node in nodes:
            free[node] -= 1
        assignment[key] = tuple(nodes)
    return Placement(spec, instances, assignment, unit_slots_per_node=2)


class _ScalarOnly:
    """Model proxy hiding the batch interface (scalar-reference timing)."""

    _HIDDEN = frozenset(
        {
            "predict_batch",
            "predict_placements_batch",
            "prediction_kernel",
        }
    )

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        if name in _ScalarOnly._HIDDEN:
            raise AttributeError(name)
        return getattr(self._model, name)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def _best_pair(slow_fn, fast_fn, reps: int, rounds: int = 7):
    """Best-of-``rounds`` seconds per call for two competing paths.

    The rounds interleave the two measurements so a transient load
    spike cannot land on only one side and skew the ratio; each side
    keeps its own minimum across rounds.
    """
    slow_best = fast_best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(reps):
            slow_fn()
        slow_best = min(slow_best, (time.perf_counter() - start) / reps)
        start = time.perf_counter()
        for _ in range(reps):
            fast_fn()
        fast_best = min(fast_best, (time.perf_counter() - start) / reps)
    return slow_best, fast_best


RESULTS: dict = {}


def _record_json(artifact_dir):
    (artifact_dir / "perf_hotpaths.json").write_text(
        json.dumps(RESULTS, indent=2) + "\n"
    )


def test_incremental_vs_full_search(record_artifact, artifact_dir):
    model = make_search_model()
    spec = ClusterSpec(num_nodes=NUM_NODES)
    initial = Placement.random(spec, search_instances(), seed=11)

    slow_placer = SimulatedAnnealingPlacer(
        full_energy(model), schedule=SEARCH_SCHEDULE, seed=3
    )
    slow, slow_s = _timed(lambda: slow_placer.search_from(initial))
    fast_placer = SimulatedAnnealingPlacer(
        WeightedTimeEnergy(model), schedule=SEARCH_SCHEDULE, seed=3
    )
    fast, fast_s = _timed(lambda: fast_placer.search_from(initial))

    assert fast.energy == slow.energy
    assert assignment_of(fast.placement) == assignment_of(slow.placement)
    assert fast.energy_trajectory == slow.energy_trajectory

    speedup = slow_s / fast_s
    RESULTS["search"] = {
        "full_s": slow_s, "incremental_s": fast_s, "speedup": speedup,
    }
    record_artifact(
        "perf_hotpaths_search",
        f"Annealing search ({SEARCH_SCHEDULE.iterations} proposals, "
        f"{NUM_INSTANCES}x{UNITS_PER_INSTANCE} units on {NUM_NODES} nodes)\n"
        f"  full evaluation:        {slow_s:8.3f} s\n"
        f"  incremental evaluation: {fast_s:8.3f} s\n"
        f"  speedup:                {speedup:8.2f}x (bit-identical result)",
    )
    _record_json(artifact_dir)
    # The full-evaluation denominator rides the batch kernel too
    # (predict_placement dispatches to predict_placements_batch), so the
    # incremental win over it is narrower than against the historical
    # scalar full path (~2.1-2.9x measured); the incremental path's
    # absolute time is separately guarded by the perf_smoke baseline.
    assert speedup >= 1.8


def test_parallel_vs_serial_sweep(record_artifact, artifact_dir):
    serial_runner = ClusterRunner(base_seed=7)
    serial_results, serial_s = _timed(
        lambda: serial_runner.measure_many(sweep_requests(), max_workers=1)
    )
    parallel_runner = ClusterRunner(base_seed=7)
    parallel_results, parallel_s = _timed(
        lambda: parallel_runner.measure_many(sweep_requests(), max_workers=-1)
    )

    assert parallel_results == serial_results
    assert parallel_runner.measurement_count == serial_runner.measurement_count
    assert (
        parallel_runner.solo_measurement_count
        == serial_runner.solo_measurement_count
    )

    speedup = serial_s / parallel_s
    cores = os.cpu_count() or 1
    RESULTS["sweep"] = {
        "serial_s": serial_s, "parallel_s": parallel_s,
        "speedup": speedup, "cores": cores,
    }
    record_artifact(
        "perf_hotpaths_sweep",
        f"Measurement sweep ({len(sweep_requests())} settings, {cores} cores)\n"
        f"  serial:   {serial_s:8.3f} s\n"
        f"  parallel: {parallel_s:8.3f} s\n"
        f"  speedup:  {speedup:8.2f}x (bit-identical results and accounting)",
    )
    _record_json(artifact_dir)
    if cores >= 4:
        assert speedup >= 3.0


def test_cache_cold_vs_warm(record_artifact, artifact_dir, tmp_path):
    path = tmp_path / "measurements.json"
    cold_runner = ClusterRunner(base_seed=7, cache=MeasurementCache(path))
    cold_results, cold_s = _timed(
        lambda: cold_runner.measure_many(sweep_requests())
    )
    cold_runner.cache.flush()

    warm_runner = ClusterRunner(base_seed=7, cache=MeasurementCache(path))
    warm_results, warm_s = _timed(
        lambda: warm_runner.measure_many(sweep_requests())
    )

    assert warm_results == cold_results
    assert warm_runner.measurement_count == cold_runner.measurement_count
    assert (
        warm_runner.solo_measurement_count == cold_runner.solo_measurement_count
    )

    speedup = cold_s / warm_s
    RESULTS["cache"] = {
        "cold_s": cold_s, "warm_s": warm_s, "speedup": speedup,
    }
    record_artifact(
        "perf_hotpaths_cache",
        f"Persistent cache ({len(sweep_requests())} settings)\n"
        f"  cold (simulate + record): {cold_s:8.3f} s\n"
        f"  warm (replay):            {warm_s:8.3f} s\n"
        f"  speedup:                  {speedup:8.2f}x (identical results)",
    )
    _record_json(artifact_dir)
    assert speedup >= 3.0


def test_full_placement_batch(record_artifact, artifact_dir):
    model = make_search_model()
    placement = consolidated_placement(BATCH_NUM_INSTANCES, BATCH_NUM_NODES)

    scalar = predict_placement_scalar(model, placement)
    batch = predict_placement(model, placement)
    assert batch == scalar  # bit-identical, not approximately equal

    scalar_s, batch_s = _best_pair(
        lambda: predict_placement_scalar(model, placement),
        lambda: predict_placement(model, placement),
        reps=20,
    )

    speedup = scalar_s / batch_s
    RESULTS["full_placement_batch"] = {
        "scalar_s": scalar_s, "batch_s": batch_s, "speedup": speedup,
        "instances": BATCH_NUM_INSTANCES, "nodes": BATCH_NUM_NODES,
    }
    record_artifact(
        "perf_hotpaths_full_placement_batch",
        f"Full-placement prediction ({BATCH_NUM_INSTANCES}x"
        f"{UNITS_PER_INSTANCE} units on {BATCH_NUM_NODES} nodes)\n"
        f"  scalar per-instance: {scalar_s * 1e3:8.3f} ms\n"
        f"  vectorized batch:    {batch_s * 1e3:8.3f} ms\n"
        f"  speedup:             {speedup:8.2f}x (bit-identical table)",
    )
    _record_json(artifact_dir)
    assert speedup >= 10.0


def test_flat_network_gate_overhead(record_artifact, artifact_dir):
    """Flat models must stay within 1.05x of the scalar-era path.

    A model built without network profiles executes exactly the
    scalar-era prediction code plus the NETWORK-domain gate: one
    ``has_network`` consultation (and a dead branch) per batch call.
    Rather than race wall clocks across machines, the guard measures
    the gate and the full prediction in the same process and bounds
    the former at 5% of the latter — the overhead factor over the
    scalar baseline is ``1 + gate/predict`` by construction.
    """
    model = make_search_model()
    placement = consolidated_placement(BATCH_NUM_INSTANCES, BATCH_NUM_NODES)
    assert not model.has_network

    def gate():
        # The flat path's entire addition: consult the gate, skip the
        # network branch.
        if model.has_network:  # pragma: no cover - flat by construction
            raise AssertionError("flat model grew a network domain")

    predict_s, gate_s = _best_pair(
        lambda: predict_placement(model, placement),
        gate,
        reps=20,
    )

    overhead = 1.0 + gate_s / predict_s
    RESULTS["flat_network_gate"] = {
        "predict_s": predict_s, "gate_s": gate_s,
        "overhead_factor": overhead,
    }
    record_artifact(
        "perf_hotpaths_flat_network_gate",
        f"Flat-network gate ({BATCH_NUM_INSTANCES}x{UNITS_PER_INSTANCE} "
        f"units on {BATCH_NUM_NODES} nodes)\n"
        f"  full flat prediction: {predict_s * 1e6:8.3f} us\n"
        f"  network-domain gate:  {gate_s * 1e6:8.3f} us\n"
        f"  overhead factor:      {overhead:8.4f}x (bound 1.05x)",
    )
    _record_json(artifact_dir)
    assert overhead <= 1.05


def wave_placement_and_tenants():
    """Sixteen 4-unit tenants leaving ten nodes with one free slot."""
    kinds = ("loud", "quiet", "sensitive")
    spec = ClusterSpec(num_nodes=WAVE_NUM_NODES)
    # Slot list: nodes 0-9 offer one unit, the rest two; tenant i takes
    # every 16th slot, which keeps its units on distinct nodes.
    slots = list(range(10)) + [
        node for node in range(10, WAVE_NUM_NODES) for _ in range(2)
    ]
    tenants, instances, assignment = [], [], {}
    for i in range(WAVE_NUM_TENANTS):
        job = Job(
            job_id=f"tenant-{i}",
            workload=kinds[i % 3],
            num_units=UNITS_PER_INSTANCE,
            qos_target=2.5 if i % 3 == 0 else None,
        )
        tenants.append(job)
        instances.append(job.instance_spec())
        assignment[job.job_id] = tuple(slots[i::WAVE_NUM_TENANTS])
    placement = Placement(spec, instances, assignment, unit_slots_per_node=2)
    return spec, placement, tenants


def test_admission_wave_batch(record_artifact, artifact_dir):
    model = make_search_model()
    spec, placement, tenants = wave_placement_and_tenants()
    job = Job(
        job_id="arriving", workload="sensitive",
        num_units=UNITS_PER_INSTANCE, qos_target=2.5,
    )

    batch_controller = AdmissionController(model, spec)
    scalar_controller = AdmissionController(_ScalarOnly(model), spec)
    batch_decision = batch_controller.try_admit(placement, tenants, job)
    scalar_decision = scalar_controller.try_admit(placement, tenants, job)

    assert batch_decision.admitted == scalar_decision.admitted
    assert batch_decision.reason == scalar_decision.reason
    assert (
        batch_decision.candidates_evaluated
        == scalar_decision.candidates_evaluated
    )
    assert batch_decision.predictions == scalar_decision.predictions
    if batch_decision.placement is not None:
        assert assignment_of(batch_decision.placement) == assignment_of(
            scalar_decision.placement
        )

    scalar_s, batch_s = _best_pair(
        lambda: scalar_controller.try_admit(placement, tenants, job),
        lambda: batch_controller.try_admit(placement, tenants, job),
        reps=2, rounds=3,
    )

    speedup = scalar_s / batch_s
    RESULTS["admission_wave_batch"] = {
        "scalar_s": scalar_s, "batch_s": batch_s, "speedup": speedup,
        "candidates": batch_decision.candidates_evaluated,
    }
    record_artifact(
        "perf_hotpaths_admission_wave_batch",
        f"Admission wave ({batch_decision.candidates_evaluated} candidate "
        f"placements of {WAVE_NUM_TENANTS + 1} instances)\n"
        f"  scalar per-candidate: {scalar_s * 1e3:8.3f} ms\n"
        f"  vectorized wave:      {batch_s * 1e3:8.3f} ms\n"
        f"  speedup:              {speedup:8.2f}x (identical decision)",
    )
    _record_json(artifact_dir)
    # Candidate Placement construction is shared overhead on both
    # sides, so the wave's end-to-end win is bounded well below the
    # prediction-only ratio.
    assert speedup >= 2.0
