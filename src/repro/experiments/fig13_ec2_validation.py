"""Figure 13: model validation on Amazon EC2.

Runs each pair of the four EC2 workloads together on the 32 VMs and
compares predicted against measured normalized times.  The paper
reports 3-10% average errors — higher than on the private cluster, due
to the uncontrolled tenant interference the model cannot see.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro._util import stable_seed
from repro.analysis.errors import ErrorSummary, absolute_percent_error
from repro.analysis.reporting import format_table
from repro.core.profiling.policy_selection import select_policy
from repro.core.model import InterferenceModel, InterferenceProfile
from repro.core.scoring import BubbleScoreMeter
from repro.providers.ec2 import EC2_WORKLOADS
from repro.experiments.context import ExperimentContext
from repro.experiments.fig12_ec2_propagation import ec2_context


def build_ec2_model(
    context: ExperimentContext, workloads: Sequence[str], *, policy_samples: int = 100
) -> InterferenceModel:
    """Construct the EC2 interference model from EC2 measurements.

    Section 6's point: sensitivity curves, policies, and bubble scores
    are environment-specific, so the EC2 model is profiled from scratch
    on the EC2 runner.
    """
    meter = BubbleScoreMeter(context.runner)
    profiles: Dict[str, InterferenceProfile] = {}
    for abbrev in workloads:
        matrix = context.truth_matrix(abbrev)
        selection = select_policy(
            context.runner,
            abbrev,
            matrix,
            samples=policy_samples,
            seed=stable_seed(context.seed, abbrev, "ec2-policy"),
        )
        profiles[abbrev] = InterferenceProfile(
            workload=abbrev,
            matrix=matrix,
            policy_name=selection.best.policy_name,
            bubble_score=meter.score(abbrev),
        )
    return InterferenceModel(profiles)


@dataclass(frozen=True)
class Fig13Result:
    """Per-workload validation errors on EC2."""

    errors: Dict[str, List[float]]

    def summary(self, workload: str) -> ErrorSummary:
        """Error summary for one workload."""
        return ErrorSummary.of(self.errors[workload])

    def average_errors(self) -> Dict[str, float]:
        """Figure 13's bar heights."""
        return {w: self.summary(w).mean for w in sorted(self.errors)}

    def render(self) -> str:
        """Figure 13 as text."""
        rows = [
            (w, self.summary(w).mean, self.summary(w).maximum)
            for w in sorted(self.errors)
        ]
        return format_table(["Workload", "Avg error(%)", "Max error(%)"], rows)


def run_fig13(
    context: ExperimentContext | None = None,
    *,
    workloads: Sequence[str] | None = None,
    policy_samples: int = 100,
    reps: int = 2,
) -> Fig13Result:
    """Pairwise co-run validation on the EC2 environment."""
    context = context or ec2_context()
    workloads = list(workloads or EC2_WORKLOADS)
    model = build_ec2_model(context, workloads, policy_samples=policy_samples)
    errors: Dict[str, List[float]] = {w: [] for w in workloads}
    for target in workloads:
        for co_runner in workloads:
            score = model.profile(co_runner).bubble_score
            vector = [score] * context.runner.num_nodes
            predicted = model.predict(target, vector)
            for rep in range(reps):
                times = context.runner.corun_pair(target, co_runner, rep=rep)
                actual = times[f"{target}#0"]
                errors[target].append(absolute_percent_error(predicted, actual))
    return Fig13Result(errors=errors)
