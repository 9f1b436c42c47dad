"""Ablation: online refinement vs the static model.

The paper's future work points at online model maintenance
(Bubble-Flux).  This bench simulates a production loop: pairwise
co-runs arrive one by one, the online wrapper folds each measurement
into its per-workload corrections, and the running prediction error is
compared against the frozen static model over the same sequence.
"""

from conftest import run_once

from repro.analysis.errors import absolute_percent_error
from repro.analysis.reporting import format_table
from repro.core.online import OnlineModel
from repro.experiments.context import default_context

TARGETS = ("M.milc", "M.lmps", "N.mg")
CO_RUNNERS = ("C.libq", "C.mcf", "M.Gems", "C.sopl", "C.xbmk", "C.gcc")
ROUNDS = 3


def run_stream(context):
    model = context.model
    online = OnlineModel(model, learning_rate=0.3, max_correction=0.3)
    static_errors, online_errors = [], []
    span = context.runner.num_nodes
    for round_index in range(ROUNDS):
        for target in TARGETS:
            for co_runner in CO_RUNNERS:
                score = model.profile(co_runner).bubble_score
                vector = [score] * span
                static_prediction = model.predict(target, vector)
                online_prediction = online.predict(target, vector)
                measured = context.runner.corun_pair(
                    target, co_runner, rep=round_index
                )[f"{target}#0"]
                static_errors.append(
                    absolute_percent_error(static_prediction, measured)
                )
                online_errors.append(
                    absolute_percent_error(online_prediction, measured)
                )
                online.observe(target, online_prediction, measured)
    return static_errors, online_errors


def test_ablation_online_refinement(benchmark, record_artifact):
    context = default_context()
    static_errors, online_errors = run_once(benchmark, lambda: run_stream(context))

    half = len(static_errors) // 2
    rows = [
        ("static model (whole stream)",
         sum(static_errors) / len(static_errors)),
        ("online model (whole stream)",
         sum(online_errors) / len(online_errors)),
        ("static model (second half)",
         sum(static_errors[half:]) / (len(static_errors) - half)),
        ("online model (second half)",
         sum(online_errors[half:]) / (len(online_errors) - half)),
    ]
    record_artifact(
        "ablation_online",
        format_table(["Predictor", "Mean abs error (%)"], rows),
    )

    # Once warmed up, the corrections must not hurt — and typically
    # help — relative to the frozen static model.
    static_late = rows[2][1]
    online_late = rows[3][1]
    assert online_late <= static_late + 1.0
