"""The three seeded days the benchmark runs, built through the public API.

Every input is made from the ``--seed``: the traffic (see
:func:`seeded_arrivals`), the profiling runner's base seed, the model
build, and the service's search and measurement seeds.  The two
daemon fault plans are fixed inputs kept beside this file, so
refreshing a smoke baseline elsewhere in the repository cannot change
the workload.

A :class:`Day` is one fresh deployment of a workload: ``build()`` is
the set-up the benchmark times as ``setup_s`` (model profiling plus
service construction), ``run()`` is the measured run phase.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api import (
    AutoscalerConfig,
    ClusterRunner,
    ClusterSpec,
    ConsolidationDaemon,
    ConsolidationService,
    ElasticProvider,
    FaultPlan,
    FixedStream,
    Job,
    ServiceBlueprint,
    ServiceConfig,
    build_batch_profiles,
    build_model,
    build_sharded_service,
)
from repro.apps.catalog import BATCH_WORKLOADS
from repro.scale import scale_service_config

PLANS = Path(__file__).resolve().parent / "plans"

#: The ``repro serve`` default mix every workload draws from.
MIX = ("M.lmps", "M.milc", "H.KM", "S.WC")
#: The ``repro serve`` stream's job shape: every (units, duration)
#: pair appears once per block of eight arrivals.
UNIT_CHOICES = (2, 4)
DURATIONS = (2, 3, 4, 5)
QOS_TARGET = 1.25
POLICY_SAMPLES = 10


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a day shape plus why it was chosen."""

    name: str
    why: str
    arrival_rate: float
    epochs: int
    cells: Optional[int] = None
    nodes: Optional[int] = None
    reschedule_every: int = 1
    daemon: bool = False
    #: Distinct seeded days one run covers (see :func:`day_seeds`).
    days_per_run: int = 1


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "serve_day",
            "flat 8-node serve day rescheduling every epoch: the "
            "annealing placement search dominates",
            arrival_rate=1.2,
            epochs=32,
            days_per_run=4,
        ),
        Workload(
            "cell_admit_day",
            "5 cells of 50 nodes at 100 arrivals per epoch without "
            "rescheduling: admission waves, router and coordinator "
            "dominate and the search is bypassed",
            arrival_rate=100.0,
            epochs=6,
            cells=5,
            nodes=250,
            reschedule_every=0,
            days_per_run=4,
        ),
        Workload(
            "daemon_churn_day",
            "serve traffic through the 4-worker daemon with worker "
            "crashes, lease expiry and elastic spot churn: durable "
            "writes and the provider layer",
            arrival_rate=1.2,
            epochs=32,
            daemon=True,
            days_per_run=4,
        ),
    )
}


def day_seeds(seed: int, count: int) -> Tuple[int, ...]:
    """The seeds of the ``count`` days one run covers.

    The first day is the run's own seed; the others are drawn from it.
    The placement search's cost depends on the order jobs arrive in,
    so one 32-epoch day's host time moves by about a tenth between
    seeds; a run's figures pool several days to average that out.
    """
    extra = np.random.SeedSequence([seed, 0xDA75]).generate_state(count - 1)
    return (seed,) + tuple(int(s) & 0x7FFFFFFF for s in extra)


def seeded_arrivals(seed: int, epochs: int, rate: float) -> Tuple[Job, ...]:
    """The day's arrivals: ``rate`` jobs per epoch, stratified.

    The jobs follow the ``repro serve`` stream's distribution (uniform
    mix, units and durations, half of them mission-critical at the
    1.25 bound), but sampled in blocks of eight: each block holds every
    (units, duration) pair once, each workload twice and four
    mission-critical jobs, shuffled by the seed.  Job ``i`` arrives at
    a uniform point of its own ``1/rate`` slot.  The offered load is
    therefore the same for every seed and only its order changes,
    which keeps seed-to-seed spread of the host-time metrics small.
    """
    rng = np.random.default_rng([seed, 0x5EED])
    total = int(round(rate * epochs))
    pairs = [(u, d) for u in UNIT_CHOICES for d in DURATIONS]
    block = len(pairs)
    jobs: List[Job] = []
    index_in_epoch: Dict[int, int] = {}
    for start in range(0, total, block):
        order = rng.permutation(block)
        workloads = rng.permutation(np.repeat(np.arange(len(MIX)), block // len(MIX)))
        critical = rng.permutation(np.arange(block) < block // 2)
        for k in range(min(block, total - start)):
            i = start + k
            epoch = min(int((i + rng.random()) / rate), epochs - 1)
            units, duration = pairs[int(order[k])]
            workload = MIX[int(workloads[k])]
            slot = index_in_epoch.get(epoch, 0)
            index_in_epoch[epoch] = slot + 1
            jobs.append(
                Job(
                    job_id=f"{workload}@e{epoch}.{slot}",
                    workload=workload,
                    num_units=units,
                    duration_epochs=duration,
                    arrival_epoch=epoch,
                    qos_target=QOS_TARGET if critical[k] else None,
                )
            )
    return tuple(jobs)  # slot order is arrival order


def _profile(runner: ClusterRunner, seed: int):
    """Profile the mix the way ``repro serve`` does; returns the model."""
    distributed = [w for w in MIX if w not in BATCH_WORKLOADS]
    batch = [w for w in MIX if w in BATCH_WORKLOADS]
    report = build_model(
        runner, distributed, policy_samples=POLICY_SAMPLES, seed=seed, span=4
    )
    if batch:
        build_batch_profiles(runner, report.model, batch, span=4)
    return report.model


class Day:
    """One fresh deployment of a workload at a seed.

    ``workdir`` holds the daemon's spool; it must lie inside the
    checkout and is removed by :meth:`close`.
    """

    def __init__(
        self, workload: Workload, seed: int, epochs: int, workdir: Path
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.epochs = epochs
        self.workdir = workdir
        self.service = None
        self.daemon: Optional[ConsolidationDaemon] = None
        self.measurements = 0

    # -- set-up (timed as setup_s) ----------------------------------
    def build(self) -> None:
        w, seed = self.workload, self.seed
        stream = FixedStream(seeded_arrivals(seed, self.epochs, w.arrival_rate))
        if w.daemon:
            self._build_daemon(stream)
            return
        runner = ClusterRunner(base_seed=seed)
        model = _profile(runner, seed)
        self.measurements = runner.total_measurement_count
        if w.cells is None:
            self.service = ConsolidationService(
                runner,
                model,
                stream,
                config=ServiceConfig(reschedule_every=w.reschedule_every),
                seed=seed,
            )
            return
        self.service = build_sharded_service(
            model,
            ClusterSpec(num_nodes=w.nodes),
            w.cells,
            stream,
            seed=seed,
            config=scale_service_config(reschedule_every=w.reschedule_every),
            degraded_workloads=sorted(runner.faulted_workloads),
        )

    def _build_daemon(self, stream: FixedStream) -> None:
        """``repro daemon --workers 4 --faults <chaos> --provider elastic
        --churn <churn>`` on the default 8-node pool (ceiling 12)."""
        seed = self.seed
        chaos = FaultPlan.load(PLANS / "daemon_chaos_plan.json")
        churn = FaultPlan.load(PLANS / "churn_plan.json")
        initial = ClusterSpec().num_nodes
        spec = ClusterSpec(num_nodes=initial + 4)
        profiling = ClusterRunner(spec, base_seed=seed, faults=chaos)
        model = _profile(profiling, seed)
        self.measurements = profiling.total_measurement_count
        degraded = tuple(sorted(profiling.faulted_workloads))

        def runner_factory():
            runner = ClusterRunner(spec, base_seed=seed, faults=chaos)
            runner.faulted_workloads.update(degraded)
            return runner

        def provider_factory():
            return ElasticProvider(
                spec.num_nodes,
                initial_nodes=initial,
                spot_fraction=0.5,
                churn=churn,
                autoscaler=AutoscalerConfig(),
            )

        blueprint = ServiceBlueprint(
            runner_factory,
            model,
            config=ServiceConfig(
                reschedule_every=self.workload.reschedule_every
            ),
            seed=seed,
            provider_factory=provider_factory,
        )
        self.daemon = ConsolidationDaemon(
            str(self.workdir / "spool"), blueprint, stream, workers=4,
            faults=chaos,
        )

    # -- the measured run phase ---------------------------------------
    def run(self) -> None:
        if self.daemon is not None:
            self.daemon.run(self.epochs)
        else:
            self.service.run(self.epochs)

    # -- what the gate and the quality metrics read ---------------------
    @property
    def log(self):
        return (self.daemon or self.service).log

    @property
    def snapshots(self):
        return (self.daemon or self.service).snapshots

    def durable_log_bytes(self) -> Optional[bytes]:
        """The daemon's fsync'd event log as written to disk."""
        if self.daemon is None:
            return None
        return Path(self.daemon.spool.events_path).read_bytes()

    def daemon_stats(self) -> Dict[str, int]:
        return dict(self.daemon.stats) if self.daemon is not None else {}

    def close(self) -> None:
        if self.workdir.exists():
            shutil.rmtree(self.workdir)


def work_dir(root: Path, workload: str, seed: int) -> Path:
    """A fresh per-process work directory inside the checkout.

    A directory left by a killed run whose pid is reused is wiped, so a
    daemon never resumes someone else's spool.
    """
    path = root / f"{workload}-s{seed}-p{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path
