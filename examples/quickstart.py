#!/usr/bin/env python3
"""Quickstart: profile two applications and predict their interference.

Builds an interference model for lammps and GemsFDTD on the simulated
8-node testbed, then answers the questions the paper's model exists
for: how slow does each application get when a given number of nodes
are under a given interference pressure — and what happens when the two
applications are co-located with each other?

Run:
    python examples/quickstart.py
"""

from repro import ClusterRunner, build_model, save_model

WORKLOADS = ["M.lmps", "M.Gems"]


def main() -> None:
    runner = ClusterRunner()
    print("Profiling", ", ".join(WORKLOADS), "on the 8-node testbed...")
    report = build_model(runner, WORKLOADS, policy_samples=20, seed=1)
    model = report.model

    print("\nPer-application profiles:")
    for abbrev in WORKLOADS:
        profile = model.profile(abbrev)
        outcome = report.profiling_outcomes[abbrev]
        print(
            f"  {abbrev}: bubble score {profile.bubble_score:.1f}, "
            f"heterogeneity policy {profile.policy_name}, "
            f"profiled at {outcome.cost_percent:.0f}% of exhaustive cost"
        )

    print("\nPredicted slowdown of M.lmps under homogeneous interference:")
    for count in (1, 4, 8):
        predicted = model.predict("M.lmps", (6.0, count))
        print(f"  {count} node(s) at bubble pressure 6: {predicted:.2f}x")

    print("\nPredicted slowdown under a heterogeneous pressure vector:")
    vector = [6.0, 3.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0]
    predicted = model.predict("M.lmps", vector)
    print(f"  pressures {vector} -> {predicted:.2f}x")

    print("\nCo-locating the two applications on every node:")
    for target, co_runner in (("M.lmps", "M.Gems"), ("M.Gems", "M.lmps")):
        score = model.profile(co_runner).bubble_score
        predicted = model.predict(target, [score] * runner.num_nodes)
        actual = runner.corun_pair(target, co_runner)[f"{target}#0"]
        print(
            f"  {target} next to {co_runner}: predicted {predicted:.2f}x, "
            f"measured {actual:.2f}x"
        )

    save_model(model, "quickstart_model.json")
    print("\nModel saved to quickstart_model.json")


if __name__ == "__main__":
    main()
