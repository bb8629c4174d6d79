"""Outside-in layer timers for the traced benchmark run.

The traced run measures the program's layers without touching its
source: :class:`LayerTracer` replaces selected public functions with
timing wrappers, each patched at the place its caller looks the name
up (a class attribute for methods, the importing module's global for
functions imported by name).  Every wrapped call opens a span on a
stack; when it closes, its duration is charged to its parent's child
time, so a layer's *self* time is its span minus the spans nested in
it.  The benchmark's own root span covers the whole timed operation,
and its self time is the part no layer claimed, so the self times of
all layers plus the root's add up to the traced wall clock exactly.

Spans are kept in memory (name, start, end, parent) and written out
once the operation ends.

Only the traced process installs the timers; untraced runs import
nothing from here.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from array import array
from pathlib import Path
from typing import Callable, Optional

#: ``(module, attribute path, layer)``: the public functions timed in a
#: traced run, each patched where its caller resolves the name.
PATCHES: tuple[tuple[str, str, str], ...] = (
    ("repro.typelattice.lattice", "Lattice.for_sizes", "typelattice.build"),
    ("repro.typelattice.lattice", "Lattice.__init__", "typelattice.build"),
    ("repro.injector.injector", "compute_robust_vector", "typelattice.robust"),
    ("repro.injector.sampling", "VectorSampler.observe", "injector.sampling.observe"),
    ("repro.injector.plan", "SnapshotLadder.serve", "injector.plan.serve"),
    ("repro.injector.plan", "ChainMemo.lookup", "injector.plan.memo"),
    ("repro.injector.injector", "shared_plan", "injector.plan.compile"),
    ("repro.libc.runtime", "LibcRuntime.fork", "libc.fork"),
    ("repro.sandbox.sandbox", "Sandbox.call", "sandbox.call"),
    ("repro.injector.injector", "FaultInjector.__init__", "injector.setup"),
    ("repro.injector.injector", "FaultInjector.run", "injector.run"),
    ("repro.core.pipeline", "declaration_from_report", "declarations.build"),
    ("repro.core.pipeline", "apply_all_manual_edits", "declarations.build"),
    ("repro.wrapper.wrapper", "WrapperLibrary.call", "wrapper.call"),
    ("repro.wrapper.program", "CheckProgram.run", "wrapper.check"),
    ("repro.wrapper.wrapper", "program_for", "wrapper.compile"),
    ("repro.ballista.harness", "BallistaHarness.tests", "ballista.enumerate"),
    ("repro.ballista.harness", "BallistaHarness.run", "ballista.run"),
    ("repro.apps.workloads", "TarApp.run", "apps.run"),
    ("repro.apps.workloads", "GccApp.run", "apps.run"),
    ("repro.apps.workloads", "Ps2pdfApp.run", "apps.run"),
    ("repro.campaign.runner", "outcome_digest", "campaign.digest"),
    ("repro.campaign.store", "OutcomeStore.get", "campaign.store.get"),
    ("repro.campaign.store", "OutcomeStore.put_payload", "campaign.store.put"),
    ("repro.campaign.runner", "CampaignRunner.run", "fleet.run"),
)

#: Patched functions whose non-None results are counted as hits.
HIT_COUNTED = frozenset({"ChainMemo.lookup"})

#: The root span of a process: the benchmark's timed operation in the
#: benchmark process, the worker loop in a fleet worker.
ROOT = "bench"
WORKER_ROOT = "fleet.worker"


class LayerTracer:
    """Span stack, per-layer totals and the patch set of one process."""

    def __init__(self) -> None:
        self._originals: list[tuple[object, str, object]] = []
        self.layer_ids: dict[str, int] = {}
        self.layers: list[str] = []
        self.self_s: list[float] = []
        self.calls: dict[str, int] = {}
        self.hits: dict[str, int] = {}
        self._reset(ROOT)

    # ------------------------------------------------------------------
    def _reset(self, root: str) -> None:
        """Zero every total and drop every span.  The layer table and
        the counter dicts are cleared in place: installed wrappers hold
        layer ids and references to them."""
        self.self_s[:] = [0.0] * len(self.self_s)
        for counts in (self.calls, self.hits):
            for key in counts:
                counts[key] = 0
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.root = root
        self.root_started: Optional[float] = None
        self.root_ended: Optional[float] = None
        # Stack frames: [layer id, start, child seconds, span index].
        self._stack: list[list] = []

    def _layer_id(self, layer: str) -> int:
        ident = self.layer_ids.get(layer)
        if ident is None:
            ident = self.layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
            self.self_s.append(0.0)
        return ident

    def _open(self, layer_id: int, now: float) -> list:
        stack = self._stack
        index = len(self.span_name)
        self.span_name.append(layer_id)
        self.span_parent.append(stack[-1][3] if stack else -1)
        self.span_start.append(now)
        self.span_end.append(now)
        frame = [layer_id, now, 0.0, index]
        stack.append(frame)
        return frame

    def _close(self, frame: list, now: float) -> None:
        stack = self._stack
        stack.pop()
        elapsed = now - frame[1]
        self.self_s[frame[0]] += elapsed - frame[2]
        self.span_end[frame[3]] = now
        if stack:
            stack[-1][2] += elapsed

    # ------------------------------------------------------------------
    def timed(self, layer: str, key: str, fn: Callable) -> Callable:
        """``fn`` wrapped in a span of ``layer``; calls count under ``key``."""
        layer_id = self._layer_id(layer)
        clock = time.perf_counter
        calls = self.calls
        calls.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] += 1
            frame = self._open(layer_id, clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(frame, clock())

        return wrapper

    def counting_hits(self, key: str, fn: Callable) -> Callable:
        """Count calls of ``fn`` returning something other than None."""
        hits = self.hits
        hits.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if result is not None:
                hits[key] += 1
            return result

        return wrapper

    def install(self, worker_dir: Path) -> None:
        """Patch every timer in; forked fleet workers record their own
        spans and write them to ``worker_dir`` on exit."""
        for module_name, path, layer in PATCHES:
            owner, attr = _resolve(module_name, path)
            raw = owner.__dict__[attr]
            key = f"{module_name.rsplit('.', 1)[-1]}.{path}"
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            if path in HIT_COUNTED:
                fn = self.counting_hits(key, fn)
            replacement = self.timed(layer, key, fn)
            if is_classmethod:
                replacement = classmethod(replacement)
            self._originals.append((owner, attr, raw))
            setattr(owner, attr, replacement)
        import repro.fleet.process as fleet_process

        original = fleet_process._process_worker_main
        self._originals.append((fleet_process, "_process_worker_main", original))
        fleet_process._process_worker_main = functools.partial(
            _traced_worker_main, self, worker_dir, original
        )

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)

    # ------------------------------------------------------------------
    def begin(self) -> None:
        """Open the root span: everything from here is attributed."""
        self.root_started = time.perf_counter()
        self._open(self._layer_id(self.root), self.root_started)

    def end(self) -> None:
        self.root_ended = time.perf_counter()
        self._close(self._stack[0], self.root_ended)
        if self._stack:
            raise RuntimeError(f"unbalanced spans: {len(self._stack)} still open")

    def summary(self) -> dict:
        """Per-layer self seconds, call counts and hit counts."""
        return {
            "root": self.root,
            "wall_s": self.root_ended - self.root_started,
            "self_s": dict(zip(self.layers, self.self_s)),
            "calls": dict(self.calls),
            "hits": dict(self.hits),
            "spans": len(self.span_name),
        }

    def write(self, path: Path) -> None:
        """Write the summary plus every kept span (columnar JSON)."""
        document = self.summary()
        document["span_columns"] = {
            "layer": list(self.layers),
            "name": self.span_name.tolist(),
            "parent": self.span_parent.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
        }
        path.write_text(json.dumps(document))


def _resolve(module_name: str, path: str) -> tuple[object, str]:
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def _traced_worker_main(
    tracer: LayerTracer, out_dir: Path, original: Callable, *args
) -> None:
    """Fleet worker entry under tracing: the forked copy of the tracer
    starts empty, roots the worker loop, and writes its spans on exit.
    A ``started-<pid>`` marker comes first, so a worker that was killed
    before writing its spans shows as a marker without a span file."""
    (out_dir / f"started-{os.getpid()}").touch()
    tracer._reset(WORKER_ROOT)
    tracer.begin()
    try:
        original(*args)
    finally:
        tracer.end()
        tracer.write(out_dir / f"worker-{os.getpid()}.json")

