"""Headroom-ordering invariants of the :class:`HeadroomRouter`."""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.scale import HeadroomRouter, free_slot_count
from repro.service.jobs import Job
from tests.scale._helpers import sharded_service


def _job(job_id: str, *, units: int = 2, qos: float = None) -> Job:
    return Job(
        job_id=job_id,
        workload="appA",
        num_units=units,
        duration_epochs=4,
        arrival_epoch=0,
        qos_target=qos,
    )


def _load(cell, job: Job) -> None:
    """Place ``job`` in the cell directly (no epoch machinery)."""
    service = cell.service
    decision = service.admission.try_admit(
        service.placement, service.tenants, job
    )
    assert decision.admitted, f"could not load {job.job_id}: {decision.reason}"
    service.admit_transfer(job, ends_at=99, decision=decision)


@pytest.fixture
def cells(synthetic_model):
    """Three 4-node cells, all empty."""
    return sharded_service(synthetic_model, 3, num_nodes=12).cells


def test_empty_cell_outscores_a_loaded_one(synthetic_model, cells):
    router = HeadroomRouter()
    for i in range(3):
        _load(cells[0], _job(f"crowd-{i}", units=2))
    probe = _job("probe", qos=1.25)
    empty = router.score(cells[1], probe)
    loaded = router.score(cells[0], probe)
    assert empty is not None and loaded is not None
    assert empty.headroom > loaded.headroom
    assert router.route(cells, probe) in (1, 2)


def test_ties_break_toward_the_lowest_cell_id(synthetic_model, cells):
    router = HeadroomRouter()
    # All three cells identical and empty: identical headroom.
    assert router.route(cells, _job("probe")) == 0


def test_score_is_none_without_capacity(synthetic_model, cells):
    router = HeadroomRouter()
    assert router.score(cells[0], _job("probe", units=9)) is None


def test_full_cells_fall_back_to_most_free_slots(synthetic_model, cells):
    router = HeadroomRouter()
    # Fill cells 0 and 2 completely (4 nodes x 2 slots = 8 units each),
    # and leave cell 1 exactly one free slot: a 2-unit arrival needs
    # two distinct free nodes, so no cell can be scored and the router
    # falls back to the cell with the most free slots.
    for cell_id in (0, 2):
        for i in range(4):
            _load(cells[cell_id], _job(f"fill-{cell_id}-{i}", units=2))
    _load(cells[1], _job("fill-1-a", units=2))
    _load(cells[1], _job("fill-1-b", units=2))
    _load(cells[1], _job("fill-1-c", units=3))
    probe = _job("probe", units=2)
    assert all(router.score(cell, probe) is None for cell in cells)
    assert free_slot_count(cells[1]) == 1
    assert router.route(cells, probe) == 1


def test_route_many_spreads_a_wave_across_equal_cells(synthetic_model, cells):
    router = HeadroomRouter()
    wave = [_job(f"wave-{i}") for i in range(6)]
    room = {cell.cell_id: 2 for cell in cells}
    assignments = router.route_many(cells, wave, queue_room=room)
    taken = {cid: 0 for cid in (0, 1, 2)}
    for target in assignments.values():
        taken[target] += 1
    assert taken == {0: 2, 1: 2, 2: 2}


def test_route_many_overflows_only_when_every_cell_is_at_cap(
    synthetic_model, cells
):
    router = HeadroomRouter()
    wave = [_job(f"wave-{i}") for i in range(7)]
    room = {cell.cell_id: 2 for cell in cells}
    assignments = router.route_many(cells, wave, queue_room=room)
    taken = {cid: 0 for cid in (0, 1, 2)}
    for target in assignments.values():
        taken[target] += 1
    # Six jobs fill every cap; the seventh lands somewhere anyway (the
    # router never drops work) — exactly one cell goes one over.
    assert sorted(taken.values()) == [2, 2, 3]


def test_router_rejects_nonpositive_probe_budget():
    with pytest.raises(ServiceError):
        HeadroomRouter(probe_candidates=0)


def test_free_slot_count_skips_draining_nodes():
    # A 4-node elastic pool (durable 0-1, spot 2-3) with one 4-unit
    # tenant holding a slot on every node.  Both spot nodes then get a
    # reclaim warning and drain: only the schedulable nodes' free slots
    # count, and the tenant's units on the draining nodes must not be
    # charged against them.
    from types import SimpleNamespace

    from repro.faults import FaultConfig, FaultPlan
    from repro.providers import ElasticProvider
    from repro.service.loop import ConsolidationService
    from repro.service.stream import FixedStream
    from tests._synthetic import quiet_runner
    from tests.service._fake import FakeModel

    provider = ElasticProvider(
        4,
        initial_nodes=4,
        spot_fraction=0.5,
        churn=FaultPlan(FaultConfig(
            seed=0, preemption_rate=1.0, preemption_warning_epochs=2,
        )),
    )
    service = ConsolidationService(
        quiet_runner(num_nodes=4), FakeModel(), FixedStream(),
        provider=provider,
    )
    # The scalar FakeModel lacks the batch interface the OnlineModel
    # wrapper advertises; point the controller at it directly.
    service.admission.model = FakeModel()
    job = Job("batch", "A", num_units=4)
    decision = service.admission.try_admit(None, [], job)
    service.admit_transfer(job, ends_at=99, decision=decision)
    cell = SimpleNamespace(cell_id=0, service=service)
    assert free_slot_count(cell) == 4

    provider.poll(0)
    assert provider.schedulable_nodes() == [0, 1]
    assert all(provider.is_draining(node) for node in (2, 3))
    assert free_slot_count(cell) == 2
