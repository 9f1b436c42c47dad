"""The benchmark's correctness gate.

Two checks, both on artefacts the program already writes.  Each
problem found is a plain string; the run prints them and exits
non-zero.

* **Accounting** — replaying the event log through a per-job state
  machine, every arrival ends in an admit, a reject or a cancel, or is
  still queued or resident at the end of the day, and the end state
  agrees with the day's final snapshot.
* **Byte identity** — every replay of a workload in one run writes the
  same event log, the daemon's fsync'd log on disk equals its
  in-memory log, and a checkout-local registry pins the log's SHA-256
  per (workload, seed, day length, program source) so later runs —
  traced or not — must reproduce it.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

QUEUED = "queued"
RESIDENT = "resident"
DONE = "done"


def account(
    events: Iterable, queued_jobs: int, running_jobs: int
) -> Tuple[int, int, List[str]]:
    """Check every arrival's fate; returns ``(arrivals, unaccounted, problems)``.

    ``events`` are :class:`~repro.service.events.ServiceEvent` records
    in log order; ``queued_jobs``/``running_jobs`` come from the final
    snapshot.  A job may cycle queued → resident → queued (a spot
    reclaim requeues it) but every transition must start from the
    state the event implies.  ``unaccounted`` counts the arrivals the
    problems stand for: one per bad transition, plus each job by which
    the log's end state and the snapshot disagree.
    """
    state: Dict[str, str] = {}
    problems: List[str] = []

    def move(job: str, kind: str, allowed: Tuple[str, ...], to: str) -> None:
        current = state.get(job)
        if current not in allowed:
            problems.append(f"{kind} for job {job!r} in state {current}")
        state[job] = to

    for event in events:
        payload = dict(event.payload)
        job = payload.get("job")
        kind = event.kind
        if kind == "arrival":
            if job in state:
                problems.append(f"job {job!r} arrived twice")
            state[job] = QUEUED
        elif kind == "admit":
            move(job, kind, (QUEUED,), RESIDENT)
        elif kind == "reject":
            move(job, kind, (QUEUED,), DONE)
        elif kind == "depart":
            move(job, kind, (RESIDENT,), DONE)
        elif kind == "job_cancel":
            move(job, kind, (QUEUED, RESIDENT), DONE)
        elif kind == "job_requeue" and payload.get("reason") == "preempted":
            move(job, kind, (RESIDENT,), QUEUED)
        elif kind in ("queue", "job_requeue"):
            move(job, kind, (QUEUED,), QUEUED)
        elif kind in ("cell_migrate", "qos_violation"):
            move(job, kind, (RESIDENT,), RESIDENT)
    unaccounted = len(problems)
    queued = sum(1 for s in state.values() if s == QUEUED)
    resident = sum(1 for s in state.values() if s == RESIDENT)
    unaccounted += abs(queued - queued_jobs) + abs(resident - running_jobs)
    if queued != queued_jobs:
        problems.append(
            f"{queued} job(s) left queued by the log, snapshot says {queued_jobs}"
        )
    if resident != running_jobs:
        problems.append(
            f"{resident} job(s) left resident by the log, snapshot says "
            f"{running_jobs}"
        )
    return len(state), unaccounted, problems


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def identical(logs: List[bytes], durable: Optional[List[bytes]] = None) -> List[str]:
    """Every replay's log equals the first; durable copies equal memory."""
    problems = [
        f"replay {i} event log differs from replay 0 "
        f"({sha256(log)[:12]} vs {sha256(logs[0])[:12]})"
        for i, log in enumerate(logs)
        if log != logs[0]
    ]
    for i, (memory, disk) in enumerate(zip(logs, durable or ())):
        if disk is not None and disk != memory:
            problems.append(
                f"replay {i}: durable event log on disk differs from the "
                f"in-memory log"
            )
    return problems


def source_fingerprint(paths: Iterable[Path]) -> str:
    """SHA-256 over the program and benchmark sources (sorted by path)."""
    digest = hashlib.sha256()
    for root in paths:
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def pin(registry: Path, key: str, log_sha: str) -> List[str]:
    """Record ``log_sha`` under ``key``, or check it against the record.

    The registry is a JSON object in the checkout's work directory,
    rewritten atomically; runs of the same code, workload and seed
    must agree with whichever run recorded the key first.
    """
    pinned: Mapping[str, str] = {}
    if registry.exists():
        pinned = json.loads(registry.read_text(encoding="utf-8"))
    recorded = pinned.get(key)
    if recorded is not None:
        if recorded != log_sha:
            return [
                f"event log {log_sha[:12]} differs from the {recorded[:12]} "
                f"an earlier run of the same code and seed wrote ({key})"
            ]
        return []
    updated = dict(pinned)
    updated[key] = log_sha
    tmp = registry.with_name(f"{registry.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(updated, sort_keys=True, indent=1), encoding="utf-8")
    os.replace(tmp, registry)
    return []
