"""The supervised process pool: every parallel local path runs here.

``run_tasks(jobs > 1)`` (campaigns under ``--jobs``, the sharded
Ballista sweep) and ``--fleet processes`` share :func:`run_process_pool`.
It takes a picklable ``worker(name) -> payload`` callable and queues
one ``(name, attempt)`` item per task on a shared queue, so idle
workers steal work instead of waiting on a fixed stripe.  The
supervisor watches every worker with the full failure model:

* **Heartbeats** — every worker beats from a side thread each
  :data:`HEARTBEAT_INTERVAL`; a worker whose beats stop while its
  process is wedged (alive but silent past :data:`HEARTBEAT_TIMEOUT`) is
  killed and handled like any other death.
* **Per-task deadlines** — the parent timestamps each task start;
  exceeding ``timeout`` kills the worker and retries the task on a
  fresh one (bounded by ``task_retries``).
* **Worker death → requeue** — death surfaces as EOF on the worker's
  pipe (``kill -9`` included).  Only the task the worker held is
  requeued (``fleet.reshard_count``): with its attempt bumped if it
  had started running, unchanged if the worker died between taking it
  and starting it.
* **Deterministic merge** — every task re-seeds from the campaign seed
  and its own name, so results are bit-identical to serial no matter
  which worker ran what; callers assemble their own order.

Results stream back per task over one pipe per worker (sends are
synchronous; death cannot lose a delivered result, and needs no
liveness polling to detect).
"""

from __future__ import annotations

import multiprocessing as mp
import threading
import time
import traceback
from multiprocessing import connection as mp_connection
from typing import Callable, Optional, Sequence

from repro.campaign.scheduler import (
    DEFAULT_TASK_RETRIES,
    DEFAULT_TASK_TIMEOUT,
    TaskResult,
    reseed,
)
from repro.fleet.wire import (
    FingerprintMismatch,
    fleet_fingerprints,
    verify_fingerprints,
)
from repro.fleet.worker import maybe_chaos_exit
from repro.obs.telemetry import NULL_TELEMETRY

#: Worker heartbeat period (seconds).
HEARTBEAT_INTERVAL = 0.5

#: Parent-side silence budget: a worker alive but silent this long is
#: treated as wedged and killed.  Generous — heartbeats flow from a
#: side thread even during CPU-bound injection.
HEARTBEAT_TIMEOUT = 60.0

#: Parent poll interval while waiting on worker messages (seconds).
_POLL = 0.05

#: All workers idle + tasks queued for this long means a task was lost
#: in the dispatch window (a worker died between dequeue and its lease
#: report); it is requeued with a bumped attempt, not waited on forever.
_STALL_LIMIT = 30.0


# ----------------------------------------------------------------------
# worker side (module-level: spawn-safe)
# ----------------------------------------------------------------------


def _process_worker_main(worker, seed, fingerprints, task_q, conn) -> None:
    """Worker loop: verify, then lease, run, and report task by task
    until the ``None`` sentinel.

    All sends share one lock because the heartbeat thread writes the
    same pipe.  Never raises.
    """
    send_lock = threading.Lock()

    def send(message: tuple) -> None:
        with send_lock:
            conn.send(message)

    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(HEARTBEAT_INTERVAL):
            try:
                send(("hb",))
            except (OSError, ValueError):
                return

    threading.Thread(target=beat, name="fleet-hb", daemon=True).start()

    try:
        try:
            verify_fingerprints(fingerprints)
        except FingerprintMismatch as exc:
            send(("refused", str(exc)))
            return
        completed = 0
        while True:
            item = task_q.get()
            if item is None:
                break
            name, attempt = item
            send(("lease", name, attempt))
            if completed:
                # A chaos kill lands here, with a task leased but not
                # started: the supervisor must requeue it.
                maybe_chaos_exit(completed)
            send(("start",))
            started = time.perf_counter()
            try:
                reseed(seed, name)
                payload = worker(name)
            except Exception:
                send(("err", traceback.format_exc(limit=20)))
            else:
                send(("ok", payload, time.perf_counter() - started))
            completed += 1
    except (BrokenPipeError, EOFError, KeyboardInterrupt):
        pass
    finally:
        stop.set()
        conn.close()


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------


class _Slot:
    """Parent-side view of one worker process."""

    __slots__ = (
        "process", "conn", "current", "running", "started_at", "last_beat"
    )

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.current: Optional[tuple[str, int]] = None   # (name, attempt)
        self.running = False
        self.started_at = 0.0
        self.last_beat = time.monotonic()


def run_process_pool(
    names: Sequence[str],
    worker: Callable[[str], dict],
    *,
    workers: int,
    seed: int = 0,
    timeout: Optional[float] = DEFAULT_TASK_TIMEOUT,
    task_retries: int = DEFAULT_TASK_RETRIES,
    telemetry=NULL_TELEMETRY,
    on_result: Optional[Callable[[TaskResult], None]] = None,
) -> dict[str, TaskResult]:
    """Run ``worker(name)`` for every name on ``workers`` supervised
    processes; returns name→result.

    Callers clamp ``workers`` (:func:`~repro.campaign.scheduler.clamp_jobs`).
    ``on_result`` fires in completion order.  A pool is kept even at
    width 1, so deadlines and crash containment still apply.  Raises
    :class:`FingerprintMismatch` if a worker runs different code.
    """
    if not names:
        return {}
    methods = mp.get_all_start_methods()
    ctx = mp.get_context("fork" if "fork" in methods else "spawn")
    task_q = ctx.Queue()
    fingerprints = fleet_fingerprints()
    results: dict[str, TaskResult] = {}
    #: Tasks on the queue that no worker has reported leasing yet.
    queued: dict[str, int] = {}
    last_activity = time.monotonic()

    def finalize(result: TaskResult) -> None:
        telemetry.counter("campaign.tasks", status=result.status).inc()
        results[result.name] = result
        if on_result is not None:
            on_result(result)

    def enqueue(name: str, attempt: int) -> None:
        queued[name] = attempt
        task_q.put((name, attempt))

    def retry(name: str, attempt: int, error: str) -> bool:
        """Requeue a spent attempt, or fail the task once its retry
        budget is used up; True when requeued."""
        if attempt > task_retries:
            finalize(TaskResult(name, "failed", error=error, attempts=attempt))
            return False
        telemetry.counter("fleet.task_retries").inc()
        enqueue(name, attempt + 1)
        return True

    for name in names:
        enqueue(name, 1)

    def spawn() -> _Slot:
        receiver, sender = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_process_worker_main,
            args=(worker, seed, fingerprints, task_q, sender),
            daemon=True,
        )
        process.start()
        sender.close()  # parent keeps only the read end
        telemetry.counter("fleet.workers_spawned").inc()
        return _Slot(process, receiver)

    slots = {slot.conn: slot for slot in (spawn() for _ in range(workers))}

    def update_gauges() -> None:
        telemetry.gauge("fleet.workers_alive").set(
            sum(1 for s in slots.values() if s.process.is_alive())
        )

    update_gauges()

    def handle_death(slot: _Slot, reason: str, crashed: bool = True) -> None:
        """Shared by EOF, deadline kills and wedged-worker kills:
        requeue the task the worker held, then replace the worker.

        ``crashed=False`` (deadline kills, already reported as
        ``fleet.task_timeout``) skips the ``fleet.worker_crash`` event,
        so each failure lands in exactly one event series."""
        del slots[slot.conn]
        slot.conn.close()
        slot.process.join(timeout=1.0)
        if slot.process.is_alive():
            slot.process.kill()
            slot.process.join(timeout=1.0)
        if slot.current is not None and slot.current[0] not in results:
            name, attempt = slot.current
            if crashed:
                telemetry.event(
                    "fleet.worker_crash", function=name, reason=reason
                )
            if not slot.running:
                # Leased but never started: the attempt is not spent.
                enqueue(name, attempt)
                telemetry.counter("fleet.reshard_count").inc()
            elif retry(name, attempt, f"{reason}; retry budget spent"):
                telemetry.counter("fleet.reshard_count").inc()
        if len(results) < len(names):
            replacement = spawn()
            slots[replacement.conn] = replacement
        update_gauges()

    try:
        while len(results) < len(names):
            ready = mp_connection.wait(list(slots), timeout=_POLL)
            now = time.monotonic()
            for conn in ready:
                slot = slots[conn]
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    handle_death(
                        slot, f"worker died (exitcode {slot.process.exitcode})"
                    )
                    last_activity = now
                    continue
                slot.last_beat = now
                kind = message[0]
                if kind == "hb":
                    continue
                last_activity = now
                if kind == "lease":
                    slot.current = (message[1], message[2])
                    queued.pop(message[1], None)
                elif kind == "start":
                    slot.running = True
                    slot.started_at = now
                elif kind == "refused":
                    raise FingerprintMismatch(message[1])
                else:
                    name, attempt = slot.current
                    slot.current, slot.running = None, False
                    if name in results:
                        continue
                    if kind == "ok":
                        finalize(
                            TaskResult(
                                name, "ok", payload=message[1],
                                elapsed=message[2], attempts=attempt,
                            )
                        )
                    else:
                        retry(name, attempt, message[1])

            # Deadline policing for hung tasks.
            if timeout is not None:
                for slot in list(slots.values()):
                    if not slot.running or now - slot.started_at <= timeout:
                        continue
                    telemetry.event(
                        "fleet.task_timeout", function=slot.current[0]
                    )
                    slot.process.terminate()
                    handle_death(
                        slot, f"timed out after {timeout:.1f}s", crashed=False
                    )
                    last_activity = now

            # Wedged-worker policing: alive but silent (not even beats).
            for slot in list(slots.values()):
                if now - slot.last_beat <= HEARTBEAT_TIMEOUT:
                    continue
                telemetry.event("fleet.worker_wedged", pid=slot.process.pid)
                slot.process.kill()
                handle_death(slot, "worker went silent (no heartbeats)")
                last_activity = now

            # Stall guard: a task lost between dequeue and its lease
            # report (the worker died in the dispatch window).
            all_idle = all(s.current is None for s in slots.values())
            if queued and all_idle and now - last_activity > _STALL_LIMIT:
                last_activity = now
                for name, attempt in list(queued.items()):
                    del queued[name]
                    retry(name, attempt, "task lost by the pool")
    finally:
        for _ in slots:
            task_q.put(None)
        deadline = time.monotonic() + 2.0
        for slot in slots.values():
            slot.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if slot.process.is_alive():
                slot.process.terminate()
                slot.process.join(timeout=1.0)
            slot.conn.close()
        task_q.cancel_join_thread()
        task_q.close()
        update_gauges()
    return results

