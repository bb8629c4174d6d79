"""Task results, sharding, per-task seeds, and the ``run_tasks`` entry.

:func:`run_tasks` turns a list of task names into a set of
:class:`TaskResult`\\ s, either inline (``jobs <= 1``) or on the
supervised process pool of :mod:`repro.fleet.process` (``jobs > 1``),
the one pool every parallel path shares: per-task timeout,
bounded retry, and crash containment live there.

* **Deterministic seeds** — every task is re-seeded from the campaign
  seed and its own name (:func:`reseed`), so results are
  bit-identical no matter which worker executes a task or in what
  order tasks finish.
* **Width** — :func:`effective_jobs` clamps the process count to the
  CPUs this process may run on and to the task count.
* **Sharding** — :func:`plan_shards` stripes a task list round-robin;
  the remote fleet ships its shards in that shape.

The worker callable must be picklable (a module-level function or a
``functools.partial`` of one) and return a JSON-able payload dict.
"""

from __future__ import annotations

import os
import random
import time
import traceback
import zlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.obs.telemetry import NULL_TELEMETRY

#: Default per-task wall-clock limit (seconds) under the process pool.
DEFAULT_TASK_TIMEOUT = 300.0

#: Extra attempts granted to a task whose worker crashed or hung.
DEFAULT_TASK_RETRIES = 1


@dataclass
class TaskResult:
    """Terminal state of one scheduled task."""

    __test__ = False  # not a pytest collection target

    name: str
    status: str  # "ok" | "failed"
    payload: Optional[dict] = None
    error: Optional[str] = None
    elapsed: float = 0.0
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def plan_shards(names: Sequence[str], jobs: int) -> list[list[str]]:
    """Stripe ``names`` round-robin into ``min(jobs, len(names))``
    deterministic shards (shard *i* holds names ``i, i+jobs, …``)."""
    width = max(1, min(jobs, len(names)))
    shards: list[list[str]] = [[] for _ in range(width)]
    for index, name in enumerate(names):
        shards[index % width].append(name)
    return shards


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the
    platform has one (a cpuset or ``taskset`` narrows it), else the
    host count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def effective_jobs(
    jobs: int, task_count: int | None = None, mode: str = "processes"
) -> int:
    """Worker count actually worth running for the given fleet mode.

    ``processes`` (``--jobs`` and the process fleet): clamped to
    :func:`_usable_cpus` — oversubscribing cores never speeds up
    CPU-bound injection work, it only adds scheduling noise (a
    4-worker pool on a 1-core host benches *slower* than serial).

    ``remote``: **not** CPU-clamped.  The coordinator's core count says
    nothing about where leased shards execute.

    Every mode is clamped to the task count when known (a worker with
    no task to take is pure spawn cost), and benches record this value.
    """
    width = max(1, jobs)
    if mode == "processes":
        width = min(width, _usable_cpus())
    if task_count is not None:
        width = max(1, min(width, task_count))
    return width


def clamp_jobs(
    jobs: int,
    task_count: int,
    mode: str = "processes",
    telemetry=NULL_TELEMETRY,
) -> int:
    """:func:`effective_jobs` plus the audit trail: whenever the clamp
    changes the requested width, a ``campaign.jobs_clamped`` event
    records the decision — in every fleet mode, so a bench or operator
    can always see why fewer workers ran than were asked for."""
    width = effective_jobs(jobs, task_count, mode)
    if width != max(1, jobs):
        telemetry.event(
            "campaign.jobs_clamped",
            requested=jobs,
            effective=width,
            mode=mode,
            task_count=task_count,
            cpu_count=_usable_cpus(),
        )
    return width


def task_seed(campaign_seed: int, name: str) -> int:
    """Stable per-task seed: independent of worker, shard, and
    completion order, so parallel runs reproduce serial ones bit for
    bit even if a task's implementation draws randomness."""
    return (campaign_seed & 0xFFFFFFFF) ^ zlib.crc32(name.encode("utf-8"))


def reseed(campaign_seed: int, name: str) -> None:
    random.seed(task_seed(campaign_seed, name))


def _run_inline(
    names: Sequence[str],
    worker: Callable[[str], dict],
    seed: int,
    task_retries: int,
    telemetry,
    on_result,
) -> dict[str, TaskResult]:
    results: dict[str, TaskResult] = {}
    for name in names:
        attempts = 0
        while True:
            attempts += 1
            started = time.perf_counter()
            try:
                reseed(seed, name)
                payload = worker(name)
            except Exception:
                if attempts <= task_retries:
                    continue
                result = TaskResult(
                    name, "failed", error=traceback.format_exc(limit=20),
                    elapsed=time.perf_counter() - started, attempts=attempts,
                )
            else:
                result = TaskResult(
                    name, "ok", payload=payload,
                    elapsed=time.perf_counter() - started, attempts=attempts,
                )
            break
        telemetry.counter("campaign.tasks", status=result.status).inc()
        results[name] = result
        if on_result is not None:
            on_result(result)
    return results


def run_tasks(
    names: Sequence[str],
    worker: Callable[[str], dict],
    jobs: int = 1,
    timeout: Optional[float] = DEFAULT_TASK_TIMEOUT,
    task_retries: int = DEFAULT_TASK_RETRIES,
    seed: int = 0,
    telemetry=NULL_TELEMETRY,
    on_result: Optional[Callable[[TaskResult], None]] = None,
) -> dict[str, TaskResult]:
    """Execute ``worker(name)`` for every name; returns name→result.

    ``on_result`` fires in completion order; callers needing
    deterministic output must iterate their own task order (the
    campaign runner assembles in catalog order).
    """
    if not names:
        return {}
    if len(set(names)) != len(names):
        raise ValueError("duplicate task names")
    if jobs <= 1:
        return _run_inline(names, worker, seed, task_retries, telemetry, on_result)

    from repro.fleet.process import run_process_pool

    return run_process_pool(
        names, worker,
        workers=clamp_jobs(jobs, len(names), telemetry=telemetry),
        seed=seed, timeout=timeout, task_retries=task_retries,
        telemetry=telemetry, on_result=on_result,
    )
