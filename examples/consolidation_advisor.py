#!/usr/bin/env python3
"""Consolidation advisor: who can safely share nodes with my job?

A downstream use of the interference model the paper motivates: given a
distributed application and a slowdown budget, rank candidate
co-runners by their predicted impact and report which consolidations
stay within budget.  The ranking uses only profiled artifacts (bubble
scores + sensitivity curves) — no co-run of the actual pair is needed,
which is the whole point of the bubble normalization.

Run:
    python examples/consolidation_advisor.py [target] [budget%]
e.g.
    python examples/consolidation_advisor.py M.lu 15
"""

import sys

from repro import BATCH_WORKLOADS, ClusterRunner, build_batch_profiles, build_model
from repro.analysis.reporting import format_table

DEFAULT_TARGET = "M.lu"
DEFAULT_BUDGET_PERCENT = 15.0


def main() -> None:
    target = sys.argv[1] if len(sys.argv) > 1 else DEFAULT_TARGET
    budget = float(sys.argv[2]) if len(sys.argv) > 2 else DEFAULT_BUDGET_PERCENT

    runner = ClusterRunner()
    print(f"Profiling {target} and the candidate co-runners...")
    report = build_model(runner, [target], policy_samples=20, seed=3)
    model = report.model
    build_batch_profiles(runner, model, BATCH_WORKLOADS)

    limit = 1.0 + budget / 100.0
    rows = []
    for candidate in BATCH_WORKLOADS:
        score = model.profile(candidate).bubble_score
        # Full co-location: the candidate shares every node.
        predicted = model.predict(target, [score] * runner.num_nodes)
        verdict = "OK" if predicted <= limit else "over budget"
        rows.append((candidate, score, predicted, verdict))
    rows.sort(key=lambda row: row[2])

    print(f"\nPredicted slowdown of {target} per co-runner "
          f"(budget: {budget:.0f}% -> limit {limit:.2f}x):\n")
    print(
        format_table(
            ["Co-runner", "Bubble score", "Predicted slowdown", "Verdict"],
            rows,
            float_format="{:.2f}",
        )
    )

    safe = [row[0] for row in rows if row[2] <= limit]
    print(
        f"\n{len(safe)} of {len(rows)} candidates fit the budget: "
        + (", ".join(safe) if safe else "none")
    )
    # Spot-check the best candidate against a real co-run.
    best = rows[0][0]
    actual = runner.corun_pair(target, best)[f"{target}#0"]
    print(f"Spot check — measured {target} next to {best}: {actual:.2f}x "
          f"(predicted {rows[0][2]:.2f}x)")


if __name__ == "__main__":
    main()
