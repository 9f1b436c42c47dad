"""Graceful degradation: conservative predictions for faulted workloads.

When profiling a workload kept faulting (a probe exhausted its retry
budget, so part of its propagation matrix rests on a fallback rather
than a measurement), the admission controller must not admit on the
strength of that profile alone.  The fallback here is the paper's most
pessimistic heterogeneity mapping: **ALL max** — the worst pressure
anywhere is assumed to reach every node — applied to the workload's own
propagation matrix.  Over-predicting slowdown can only make admission
*more* conservative, never admit a tenant into a violated bound.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def conservative_prediction(
    model,
    workload: str,
    workload_nodes: Sequence[int],
    co_runners_by_node: Mapping[int, Sequence[str]],
) -> float:
    """ALL-max normalized-time prediction for a degraded workload.

    Mirrors :meth:`repro.core.model.InterferenceModel.predict_under_corunners`
    but forces the ALL-max mapping policy instead of the profile's
    selected one (including the profiled-span rescaling of the
    converted node count).
    """
    # Imported lazily: repro.core pulls in the profiling stack, which
    # imports the runner, which imports this package — a module-level
    # import here would close that cycle.
    from repro.core.curves import HomogeneousSetting
    from repro.core.policies import AllMaxPolicy

    vector = model.pressure_vector(workload_nodes, co_runners_by_node)
    profile = model.profile(workload)
    setting = AllMaxPolicy().convert(vector)
    scale = profile.matrix.max_count / len(vector)
    return profile.matrix.lookup(
        HomogeneousSetting(setting.pressure, setting.count * scale)
    )


def conservative_placements_batch(
    model,
    placements: Sequence,
    workload: str,
    instance_key: str,
):
    """:func:`conservative_prediction` for one instance across a wave.

    Returns a float array with one ALL-max prediction per candidate
    placement, bit-identical to calling :func:`conservative_prediction`
    per candidate.  ``model`` must offer ``prediction_kernel`` (the
    interference-aware family); any batch anomaly replays the scalar
    loop, which raises the scalar error.
    """
    import numpy as np

    from repro.core.policies import AllMaxPolicy

    kernel = model.prediction_kernel()
    # An unknown workload goes straight to the scalar loop, so its error
    # is raised at the first candidate exactly as the scalar path does.
    if kernel.knows(workload):
        vectors = [
            kernel.pressure_vector(
                placement.spanned_nodes(instance_key),
                placement.co_runner_workloads(instance_key),
            )
            for placement in placements
        ]
        values = kernel.predict_vectors(
            [workload] * len(placements),
            vectors,
            policy_override=AllMaxPolicy(),
        )
        if values is not None:
            return values
    return np.array(
        [
            conservative_prediction(
                model,
                workload,
                placement.spanned_nodes(instance_key),
                placement.co_runner_workloads(instance_key),
            )
            for placement in placements
        ],
        dtype=float,
    )


def supports_degradation(model) -> bool:
    """Whether ``model`` exposes what :func:`conservative_prediction` needs."""
    return hasattr(model, "profile") and hasattr(model, "pressure_vector")
