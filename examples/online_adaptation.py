#!/usr/bin/env python3
"""Online model refinement in a production loop.

Implements the paper's future-work direction (Section 8): a scheduler
keeps the static interference model as its prior and folds each
production measurement back into per-workload corrections, so
systematic bias decays away without a new profiling campaign.

The script streams pairwise co-runs of M.milc against an assortment of
co-runners, reporting the static and online models' running errors.

Run:
    python examples/online_adaptation.py
"""

from repro import ClusterRunner, build_model
from repro.analysis.errors import absolute_percent_error
from repro.core.online import OnlineModel

TARGET = "M.milc"
STREAM = ["C.libq", "C.mcf", "M.Gems", "C.sopl", "C.xbmk", "C.gcc"] * 3


def main() -> None:
    runner = ClusterRunner()
    print(f"Profiling {TARGET} and its co-runners (one-time cost)...")
    workloads = [TARGET] + sorted(set(STREAM))
    model = build_model(runner, workloads, policy_samples=15, seed=6).model
    online = OnlineModel(model, learning_rate=0.3, max_correction=0.3)

    print(f"\nStreaming {len(STREAM)} co-run observations of {TARGET}:\n")
    print(f"{'#':>3} {'co-runner':10} {'measured':>9} "
          f"{'static err%':>12} {'online err%':>12}")
    static_total = online_total = 0.0
    for index, co_runner in enumerate(STREAM, start=1):
        score = model.profile(co_runner).bubble_score
        vector = [score] * runner.num_nodes
        static_prediction = model.predict(TARGET, vector)
        online_prediction = online.predict(TARGET, vector)
        measured = runner.corun_pair(TARGET, co_runner, rep=index)[f"{TARGET}#0"]
        static_error = absolute_percent_error(static_prediction, measured)
        online_error = absolute_percent_error(online_prediction, measured)
        static_total += static_error
        online_total += online_error
        online.observe(TARGET, online_prediction, measured)
        print(f"{index:>3} {co_runner:10} {measured:9.3f} "
              f"{static_error:12.1f} {online_error:12.1f}")

    n = len(STREAM)
    state = online.correction(TARGET)
    print(f"\nMean error: static {static_total / n:.1f}%  "
          f"online {online_total / n:.1f}%")
    print(f"Learned correction for {TARGET}: x{state.factor:.3f} "
          f"after {state.observations} observations")


if __name__ == "__main__":
    main()
