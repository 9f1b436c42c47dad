"""The benchmark's own tests, at a tiny size (one or two epochs a day)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import days, gate, run

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"serve_day": 2, "cell_admit_day": 1, "daemon_churn_day": 2}


def _bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace),
         "--epochs", str(TINY[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    return result


def test_spec_matches_the_benchmark():
    for entry in SPEC["workloads"]:
        assert entry["why"] == days.WORKLOADS[entry["name"]].why
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        run.PER_LAYER + run.SHARES
    )
    assert set(run.TARGETS) == {name for name, _ in run.PER_LAYER + run.SHARES}


@pytest.mark.parametrize("workload", list(days.WORKLOADS))
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    proc = _bench(workload, trace=0)
    metrics = _result(proc)["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == dict(run.END_TO_END)
    assert all(isinstance(m["value"], float) for m in metrics.values())
    for name, unit, _gated in run.END_TO_END_ALL:
        assert any(
            line.split()[:1] == [name] and line.split()[2] == unit
            for line in proc.stdout.splitlines()
        ), name
    assert "event_log_sha256: " in proc.stdout


@pytest.mark.parametrize("workload", list(days.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload):
    proc = _bench(workload, trace=1)
    metrics = _result(proc)["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == dict(run.PER_LAYER + run.SHARES)
    assert metrics["obs.trace_overhead"]["value"] > 0
    if workload == "cell_admit_day":
        assert metrics["placement.search.calls"]["value"] == 0
        assert metrics["admission.decisions"]["value"] > 0
    else:
        assert metrics["placement.search.calls"]["value"] > 0


def test_traced_and_untraced_runs_write_the_same_day():
    shas = {
        trace: [
            line for line in _bench("serve_day", trace).stdout.splitlines()
            if "event_log_sha256" in line
        ]
        for trace in (0, 1)
    }
    # The untraced run covers every day; the traced one its first day.
    assert len(shas[0]) == days.WORKLOADS["serve_day"].days_per_run
    assert shas[1] == shas[0][:1]
    assert "day seed 7: " in shas[0][0]


def test_day_seeds_start_at_the_run_seed_and_are_reproducible():
    seeds = days.day_seeds(2016, 4)
    assert seeds[0] == 2016 and len(set(seeds)) == 4
    assert seeds == days.day_seeds(2016, 4)
    assert days.day_seeds(2017, 4)[1:] != seeds[1:]
    assert days.day_seeds(5, 1) == (5,)


def test_steps_drop_the_reference_slices_and_sum_to_the_run_phase():
    from perfbench.probes import Span

    nominal = int(run.NOMINAL_SLICE_S * 1e9)
    spans = []
    for epoch, start in ((0, 100), (0, 900), (1, 2_000), (2, 5_000)):
        spans.append(Span("service.epoch", "service", None, start * 10**4,
                          attrs={"epoch": epoch, "ref_ns": nominal}))
    run_start, end = 0, 8_000 * 10**4
    steps = run.scaled_steps(spans, run_start, end)
    assert len(steps) == 3
    assert sum(steps) == pytest.approx((end - run_start - 4 * nominal) / 1e9)
    # A host twice as slow runs the slice in twice the time.
    for span in spans:
        span.attrs["ref_ns"] *= 2
    assert run.scaled_steps(spans, run_start, end)[2] == pytest.approx(steps[2] / 2)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("serve_day", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# -- the correctness gate ----------------------------------------------
@pytest.fixture(scope="module")
def tiny_day(tmp_path_factory):
    day = days.Day(days.WORKLOADS["serve_day"], 7, 3, tmp_path_factory.mktemp("day"))
    day.build()
    day.run()
    return day


def test_gate_accepts_the_real_log(tiny_day):
    final = tiny_day.snapshots[-1]
    arrivals, unaccounted, problems = gate.account(
        tiny_day.log, final.queued_jobs, final.running_jobs
    )
    assert arrivals == tiny_day.log.counts()["arrival"]
    assert unaccounted == 0 and problems == []


def test_gate_rejects_a_tampered_event_log(tiny_day):
    final = tiny_day.snapshots[-1]
    events = list(tiny_day.log)
    admit = next(i for i, e in enumerate(events) if e.kind == "admit")
    dropped = events[:admit] + events[admit + 1:]
    _, unaccounted, problems = gate.account(
        dropped, final.queued_jobs, final.running_jobs
    )
    assert problems and unaccounted >= 1
    duplicated = events + [events[admit]]
    assert gate.account(duplicated, final.queued_jobs, final.running_jobs)[2]

    log = tiny_day.log.to_jsonl().encode()
    tampered = log.replace(b'"admit"', b'"reject"', 1)
    assert gate.identical([log, tampered])
    assert gate.identical([log, log], durable=[log, tampered])
    assert gate.identical([log, log], durable=[log, None]) == []


def test_gate_pins_the_log_hash(tmp_path):
    registry = tmp_path / "day_sha256.json"
    assert gate.pin(registry, "k", "a" * 64) == []
    assert gate.pin(registry, "k", "a" * 64) == []
    assert gate.pin(registry, "k", "b" * 64)


def test_seeded_arrivals_are_stratified_and_reproducible():
    a = days.seeded_arrivals(3, 20, 1.2)
    assert a == days.seeded_arrivals(3, 20, 1.2)
    assert a != days.seeded_arrivals(4, 20, 1.2)
    assert len(a) == 24 and len({job.job_id for job in a}) == 24
    assert all(0 <= job.arrival_epoch < 20 for job in a)
    block = sorted((j.num_units, j.duration_epochs) for j in a[:8])
    assert block == [(u, d) for u in days.UNIT_CHOICES for d in days.DURATIONS]
    assert sorted(j.workload for j in a[:8]) == sorted(days.MIX * 2)
    assert sum(j.qos_target is not None for j in a[:8]) == 4
