"""Simulated-annealing placement search (Section 5.1).

The paper's placer starts from a random assignment and repeatedly
swaps the locations of two VM units belonging to different workloads,
keeping swaps that improve the (model-predicted) objective while
respecting QoS constraints, for a fixed number of iterations.  The
implementation here is a standard simulated annealing loop: worse
moves are accepted with probability ``exp(-delta / T)`` under a
geometric cooling schedule, which degenerates to the paper's stochastic
hill climbing when ``initial_temperature`` is 0.

Two fast paths keep large searches cheap:

* **Incremental energy** — when the energy implements the
  :class:`~repro.placement.objectives.IncrementalEnergy` protocol,
  each proposed swap costs O(residents of the two touched nodes): the
  state's node -> residents index names the instances to re-predict
  and only its two touched entries are rebuilt, while the prediction
  table carries forward and re-predictions hit a memo keyed by the
  co-runner layout (no node ids).  Proposals draw from the search
  stream through :func:`~repro._util.bounded_draws`, an exact replica
  of the ``Generator.choice``/``Generator.integers`` calls they
  replace.  Results are bit-identical to full evaluation (the scalar
  energy is always re-aggregated from the full table).
* **Parallel restarts** — each restart owns an independent random
  stream derived up front from the placer seed, so restarts can run
  in worker processes (``max_workers``) with results bit-identical to
  the serial loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro._util import bounded_draws, draw_pair, make_rng
from repro.errors import PlacementError
from repro.obs import recorder as _obs
from repro.parallel import fan_out
from repro.placement.assignment import Placement
from repro.placement.objectives import IncrementalEnergy

EnergyFunction = Callable[[Placement], float]

#: Upper bound on auto-subsampled trajectory points per restart.
MAX_TRAJECTORY_POINTS = 512


@dataclass(frozen=True)
class AnnealingSchedule:
    """Cooling schedule for the annealing search.

    Parameters
    ----------
    iterations:
        Number of proposed swaps.
    initial_temperature:
        Starting temperature; 0 yields pure hill climbing.
    final_temperature:
        Temperature at the last iteration (geometric decay).
    restarts:
        Independent searches from fresh random placements; the best
        result across restarts is returned.
    trajectory_stride:
        Record every ``stride``-th accepted-energy point in
        :attr:`SearchResult.energy_trajectory`.  ``None`` picks a
        stride that caps the trajectory at
        :data:`MAX_TRAJECTORY_POINTS` points, so long schedules do not
        hold thousands of floats per restart.  Use 1 to record every
        proposal.
    """

    iterations: int = 3000
    initial_temperature: float = 0.05
    final_temperature: float = 1e-4
    restarts: int = 3
    trajectory_stride: Optional[int] = None

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise PlacementError("iterations must be positive")
        if self.initial_temperature < 0 or self.final_temperature < 0:
            raise PlacementError("temperatures must be non-negative")
        if self.restarts <= 0:
            raise PlacementError("restarts must be positive")
        if self.trajectory_stride is not None and self.trajectory_stride <= 0:
            raise PlacementError("trajectory_stride must be positive")

    def temperature(self, iteration: int) -> float:
        """Temperature at ``iteration`` (geometric interpolation)."""
        if self.initial_temperature <= 0:
            return 0.0
        if self.iterations == 1:
            return self.initial_temperature
        floor = max(self.final_temperature, 1e-12)
        ratio = floor / self.initial_temperature
        return self.initial_temperature * ratio ** (
            iteration / (self.iterations - 1)
        )

    def effective_stride(self) -> int:
        """Trajectory stride actually applied (resolves the auto mode)."""
        if self.trajectory_stride is not None:
            return self.trajectory_stride
        return max(1, self.iterations // MAX_TRAJECTORY_POINTS)


@dataclass
class SearchResult:
    """Outcome of an annealing search."""

    placement: Placement
    energy: float
    evaluations: int
    accepted_moves: int
    energy_trajectory: List[float]


def _run_restart(plan: Tuple) -> SearchResult:
    """One restart, self-contained so it can run in a worker process."""
    energy, schedule, initial, search_seed = plan
    placer = SimulatedAnnealingPlacer(energy, schedule=schedule, seed=search_seed)
    return placer.search_from(initial)


class SimulatedAnnealingPlacer:
    """Searches placements by annealed unit swaps.

    Parameters
    ----------
    energy:
        Placement score to *minimize* (model-predicted).  Plain
        callables are fully evaluated per proposal; objects
        implementing :class:`IncrementalEnergy` get delta evaluation.
    schedule:
        Cooling schedule.
    seed:
        Randomness for initial placements and move proposals.
    """

    def __init__(
        self,
        energy: EnergyFunction,
        *,
        schedule: Optional[AnnealingSchedule] = None,
        seed: object = 0,
    ) -> None:
        self.energy = energy
        self.schedule = schedule or AnnealingSchedule()
        self._rng = make_rng(seed)

    # ------------------------------------------------------------------
    def _propose_swap(
        self,
        placement: Placement,
        keys: Sequence[str],
        units: Sequence[int],
        draw: Callable[[int], int],
    ) -> Optional[Tuple[Placement, Tuple[int, int]]]:
        """A random swap of two units of different instances.

        ``keys`` and ``units`` are the instance keys and unit counts in
        instance order; ``draw`` is :func:`~repro._util.bounded_draws`
        over the search stream, consumed exactly as
        ``rng.choice(len(keys), 2, replace=False)`` followed by one
        ``rng.integers(num_units)`` per side would consume it.

        Returns the new placement plus the two nodes that traded
        residents (the delta-evaluation frontier), or ``None`` if no
        valid proposal was found.
        """
        if len(keys) < 2:
            return None
        assignment = placement._assignment
        for _ in range(16):  # retry degenerate proposals
            idx_a, idx_b = draw_pair(draw, len(keys))
            unit_a = draw(units[idx_a] - 1)
            unit_b = draw(units[idx_b] - 1)
            key_a, key_b = keys[idx_a], keys[idx_b]
            nodes_a, nodes_b = assignment[key_a], assignment[key_b]
            node_a, node_b = nodes_a[unit_a], nodes_b[unit_b]
            # Same node is a no-op swap; the other two cases are the
            # distinct-nodes rule swap_units would reject.
            if node_a == node_b or node_b in nodes_a or node_a in nodes_b:
                continue
            swapped = placement.swap_units(key_a, unit_a, key_b, unit_b)
            return swapped, (node_a, node_b)
        return None

    def search_from(
        self, initial: Placement, *, rng=None
    ) -> SearchResult:
        """Run one annealing pass from a given placement.

        Telemetry: the whole pass is one ``anneal.restart`` span;
        accepted/rejected-swap and incremental-vs-full-evaluation
        counters are flushed once when the pass ends, so the proposal
        loop itself carries no instrumentation.
        """
        rng = rng if rng is not None else self._rng
        incremental = isinstance(self.energy, IncrementalEnergy)
        stride = self.schedule.effective_stride()
        with _obs.RECORDER.span(
            "anneal.restart",
            iterations=self.schedule.iterations,
            incremental=incremental,
        ) as obs_span:
            current = initial
            if incremental:
                state = self.energy.full_state(current)
                current_energy = state.energy
            else:
                state = None
                current_energy = self.energy(current)
            best, best_energy = current, current_energy
            keys = [spec.instance_key for spec in initial.instances]
            units = [spec.num_units for spec in initial.instances]
            draw = bounded_draws(rng)
            evaluations = 1
            accepted = 0
            trajectory = [current_energy]
            for iteration in range(self.schedule.iterations):
                proposal = self._propose_swap(current, keys, units, draw)
                if proposal is None:
                    continue
                candidate, touched_nodes = proposal
                if incremental:
                    candidate_state = self.energy.swap_state(
                        state, candidate, touched_nodes
                    )
                    candidate_energy = candidate_state.energy
                else:
                    candidate_state = None
                    candidate_energy = self.energy(candidate)
                evaluations += 1
                delta = candidate_energy - current_energy
                temperature = self.schedule.temperature(iteration)
                accept = delta <= 0 or (
                    temperature > 0
                    and rng.random() < math.exp(-delta / temperature)
                )
                if accept:
                    current, current_energy = candidate, candidate_energy
                    state = candidate_state
                    accepted += 1
                    if current_energy < best_energy:
                        best, best_energy = current, current_energy
                if iteration % stride == 0:
                    trajectory.append(current_energy)
            if stride > 1:
                trajectory.append(current_energy)
            obs_span.set(
                energy=best_energy, evaluations=evaluations, accepted=accepted
            )
            recorder = _obs.RECORDER
            recorder.count("anneal.accepted_swaps", accepted)
            recorder.count("anneal.rejected_swaps", evaluations - 1 - accepted)
            recorder.count(
                "anneal.incremental_evals" if incremental
                else "anneal.full_evals",
                evaluations,
            )
        return SearchResult(
            placement=best,
            energy=best_energy,
            evaluations=evaluations,
            accepted_moves=accepted,
            energy_trajectory=trajectory,
        )

    def search(
        self,
        initial_factory: Callable[[object], Placement],
        *,
        max_workers: Optional[int] = None,
    ) -> SearchResult:
        """Best result across the schedule's restarts.

        Parameters
        ----------
        initial_factory:
            Called with a seed per restart to produce the starting
            placement (typically :meth:`Placement.random`).
        max_workers:
            Fan restarts out over worker processes.  Every restart's
            random stream is derived up front from the placer seed, so
            the result is bit-identical to the serial loop
            (``None``/``0``/``1``).

        Notes
        -----
        Initial placements are built in the parent process (the
        factory may close over unpicklable state); only the search
        itself is fanned out.
        """
        with _obs.RECORDER.span(
            "anneal.search", restarts=self.schedule.restarts
        ) as obs_span:
            plans = []
            for _ in range(self.schedule.restarts):
                init_seed = int(self._rng.integers(0, 2**31))
                search_seed = int(self._rng.integers(0, 2**31))
                plans.append(
                    (self.energy, self.schedule, initial_factory(init_seed),
                     search_seed)
                )
            results = fan_out(_run_restart, plans, max_workers=max_workers)
            best: Optional[SearchResult] = None
            for result in results:
                if best is None or result.energy < best.energy:
                    best = result
            assert best is not None
            obs_span.set(energy=best.energy)
        return best
