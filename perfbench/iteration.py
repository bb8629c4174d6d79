"""One benchmark iteration, in a fresh process.

    python3 perfbench/iteration.py --workload harden --seed 3 --iteration 0 \\
        --spawned-at <time.monotonic() of the parent> --out result.json \\
        [--trace] [--setup-only]

Lattice, plan and check-program caches live per process, so every
iteration starts cold, as ``repro harden`` does for its users.  The
iteration sets its workload up (imports, catalog, reference bundle,
Ballista enumeration, cache directory), runs one timed operation and
writes what it measured and what the program produced to ``--out``;
``perfbench/run.py`` checks those outputs against the golden reference.
``--setup-only`` stops before the timed operation, so a run can sample
set-up time more often than it can afford whole iterations.  Scratch
files (fleet cache directories, traced spans) go below ``.perfbench/``
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_DIR = HERE / "reference"
WORK_DIR = ROOT / ".perfbench"

#: Tail percentile of the per-item latency, per kind of item: the
#: highest percentile with at least ten of the 86 functions beyond it,
#: and p99 for wrapped calls (178 of 17,841 beyond it; p99.9 has only
#: 18 and is not steady).
FUNCTION_TAIL = 0.88
CALL_TAIL = 0.99

BALLISTA_TESTS = 11995
CONFIGURATIONS = ("unwrapped", "full-auto", "semi-auto")
STATUS_CODE = {"crash": "c", "errno": "e", "silent": "s"}


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def interarrival_ms(started: float, stamps: list[tuple[str, float]]) -> dict:
    """Per-item latency from completion timestamps of a serial loop."""
    latencies = {}
    previous = started
    for name, stamp in stamps:
        latencies[name] = (stamp - previous) * 1e3
        previous = stamp
    return latencies


def permutation(count: int, seed: int, iteration: int) -> list[int]:
    """The seeded input order of one iteration.  Each iteration of a run
    draws its own order from (seed, iteration), so a run's medians span
    several orders instead of resting on one."""
    order = list(range(count))
    random.Random(f"{seed}/{iteration}").shuffle(order)
    return order


def peak_rss_mb(include_children: bool = False) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if include_children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0


def report_signature(report) -> dict:
    """What the golden reference pins for one function."""
    errno = report.errno_class
    return {
        "robust": [rt.robust.render() for rt in report.robust_types],
        "unsafe": bool(report.unsafe),
        "errno": f"{errno.kind}|{errno.error_value!r}|{sorted(errno.errnos)}",
    }


# ----------------------------------------------------------------------
# workloads: setup() imports and prepares (its cost is set-up time),
# run() is the timed operation, close() removes what setup() created
# ----------------------------------------------------------------------


class Harden:
    """Cold serial ``HealersPipeline().run()`` over the catalog."""

    sampled = False

    def close(self) -> None:
        pass

    def setup(self, seed: int, iteration: int) -> None:
        from repro.core.pipeline import HealersPipeline
        from repro.libc.catalog import BALLISTA_SET

        names = [spec.name for spec in BALLISTA_SET]
        self.names = [names[i] for i in permutation(len(names), seed, iteration)]
        self.sampling = f"adaptive:seed={seed}" if self.sampled else None
        self.pipeline_cls = HealersPipeline

    def run(self) -> dict:
        stamps: list[tuple[str, float]] = []
        clock = time.perf_counter

        def progress(name, report) -> None:
            stamps.append((name, clock()))

        pipeline = self.pipeline_cls(
            functions=self.names, sampling=self.sampling, progress=progress
        )
        started = clock()
        hardened = pipeline.run()
        elapsed = clock() - started
        reports = hardened.reports
        total = skipped = 0
        for report in reports.values():
            if report.sampling is not None:
                total += report.sampling.vectors_total
                skipped += report.sampling.vectors_skipped
        return {
            "run_s": elapsed,
            "legs": {"harden_s": elapsed},
            "item_latencies_ms": interarrival_ms(started, stamps),
            "functions": {n: report_signature(r) for n, r in reports.items()},
            "failed": sorted(set(self.names) - set(reports)),
            "counters": {
                "sampling.vectors_total": total,
                "sampling.vectors_skipped": skipped,
            },
        }


class HardenSampled(Harden):
    """The same run under ``sampling="adaptive:seed=<seed>"``."""

    sampled = True


class Phase2:
    """Figure-6 Ballista sweep plus the Table-2 app call mixes, through
    wrappers built from the reference declaration bundle."""

    def setup(self, seed: int, iteration: int) -> None:
        from repro.apps import GccApp, Ps2pdfApp, TarApp
        from repro.ballista import BallistaHarness
        from repro.core.cache import load_declarations
        from repro.declarations import apply_all_manual_edits

        self.declarations = load_declarations(REFERENCE_DIR / "declarations.xml")
        self.semi_auto = apply_all_manual_edits(self.declarations)
        self.harness = BallistaHarness(total_target=BALLISTA_TESTS)
        self.canonical = self.harness.tests()
        self.order = permutation(len(self.canonical), seed, iteration)
        # Run the sweep in the seeded order; records map back through
        # ``self.order`` to the canonical enumeration the reference uses.
        self.harness._tests = [self.canonical[i] for i in self.order]
        self.apps = (TarApp(), GccApp(), Ps2pdfApp())

    def close(self) -> None:
        pass

    def run(self) -> dict:
        from repro.wrapper import WrapperLibrary

        clock = time.perf_counter
        wrappers = {
            "unwrapped": None,
            "full-auto": WrapperLibrary(self.declarations),
            "semi-auto": WrapperLibrary(self.semi_auto),
        }
        started = clock()
        statuses = {}
        crashing = {}
        for configuration in CONFIGURATIONS:
            report = self.harness.run(
                wrapper=wrappers[configuration], configuration=configuration
            )
            canonical = [""] * len(self.order)
            for position, record in zip(self.order, report.records):
                canonical[position] = STATUS_CODE[record.status]
            statuses[configuration] = "".join(canonical)
            crashing[configuration] = report.crashing_functions()
        sweep_done = clock()
        latencies: list[float] = []
        apps = {}
        app_wrappers = []
        for app in self.apps:
            signature, used = self._run_app(app, latencies)
            apps[app.profile.name] = signature
            app_wrappers.extend(used)
        finished = clock()
        stats = [w.stats for w in wrappers.values() if w is not None]
        stats += [w.stats for w in app_wrappers]
        return {
            "run_s": finished - started,
            "legs": {"sweep_s": sweep_done - started, "apps_s": finished - sweep_done},
            "item_p50_ms": percentile(latencies, 0.5) * 1e3,
            "item_tail_ms": percentile(latencies, CALL_TAIL) * 1e3,
            "ballista": statuses,
            "crashing_functions": crashing,
            "apps": apps,
            "failed": [],
            "counters": {
                "wrapper.calls": sum(s.calls for s in stats),
                "wrapper.violations": sum(s.violations for s in stats),
                "wrapper.revalidate_hits": sum(s.revalidate_hits for s in stats),
                "wrapper.revalidate_misses": sum(s.revalidate_misses for s in stats),
            },
        }

    def _run_app(self, app, latencies: list[float]) -> tuple[dict, list]:
        """One application run through the robust wrapper, timing each
        wrapped call; mirrors ``repro.apps.runner.run_application``."""
        import hashlib

        from repro.libc.runtime import standard_runtime
        from repro.wrapper import CheckConfig, WrapperLibrary, WrapperPolicy

        clock = time.perf_counter
        results: list[tuple] = []
        wrappers = []
        for _ in range(app.profile.processes):
            runtime = standard_runtime()
            app.prepare(runtime)
            wrapper = WrapperLibrary(
                self.declarations,
                policy=WrapperPolicy.ROBUST,
                check_config=CheckConfig(),
            )
            wrappers.append(wrapper)

            def call(name: str, *args, wrapper=wrapper, runtime=runtime):
                started = clock()
                outcome = wrapper.call(name, list(args), runtime)
                latencies.append(clock() - started)
                results.append((name, outcome.return_value, outcome.errno))
                return outcome.return_value

            app.run(call, runtime)
        digest = hashlib.sha256(repr(results).encode()).hexdigest()
        violations = sum(w.stats.violations for w in wrappers)
        return {"calls": len(results), "violations": violations, "sha256": digest}, wrappers


class CampaignFleet:
    """Process-fleet campaign into an empty cache, then a warm rerun."""

    def setup(self, seed: int, iteration: int) -> None:
        from repro.campaign import CampaignConfig, CampaignRunner
        from repro.libc.catalog import BALLISTA_SET

        names = [spec.name for spec in BALLISTA_SET]
        self.names = [names[i] for i in permutation(len(names), seed, iteration)]
        self.cache_dir = WORK_DIR / f"fleet-cache-{os.getpid()}"
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.cache_dir.mkdir(parents=True)
        self.workers = len(os.sched_getaffinity(0))
        self.config = CampaignConfig(
            cache_dir=self.cache_dir, fleet="processes", workers=self.workers
        )
        self.runner_cls = CampaignRunner

    def close(self) -> None:
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def run(self) -> dict:
        clock = time.perf_counter
        stamps: list[tuple[str, float]] = []

        def progress(name, outcome, report) -> None:
            stamps.append((name, clock()))

        started = clock()
        cold = self.runner_cls(self.names, self.config).run()
        cold_done = clock()
        warm = self.runner_cls(self.names, self.config, progress=progress).run()
        finished = clock()
        failed = sorted(set(cold.failed) | set(warm.failed))
        return {
            "run_s": finished - started,
            "legs": {"harden_s": cold_done - started, "rerun_s": finished - cold_done},
            # Items of the warm rerun: each function served from the store.
            "item_latencies_ms": interarrival_ms(cold_done, stamps),
            "functions": {n: report_signature(r) for n, r in cold.reports.items()},
            "rerun_functions": {
                n: report_signature(r) for n, r in warm.reports.items()
            },
            "failed": failed,
            "counters": {
                "campaign.functions": len(cold.outcomes) + len(warm.outcomes),
                "campaign.cache_hits": cold.cache_hits + warm.cache_hits,
            },
            "peak_rss_mb": peak_rss_mb(include_children=True),
            "workers": self.workers,
        }


WORKLOAD_CLASSES = {
    "harden": Harden,
    "harden-sampled": HardenSampled,
    "phase2": Phase2,
    "campaign-fleet": CampaignFleet,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_CLASSES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--iteration", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    tracer = None
    if args.trace:
        from layers import LayerTracer

        span_dir = WORK_DIR / f"spans-{args.workload}"
        shutil.rmtree(span_dir, ignore_errors=True)
        span_dir.mkdir()
        tracer = LayerTracer()
        tracer.install(span_dir)
        tracer.begin()
    workload = WORKLOAD_CLASSES[args.workload]()
    workload.setup(args.seed, args.iteration)
    setup_s = time.monotonic() - args.spawned_at
    result: dict = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    try:
        if not args.setup_only:
            result.update(workload.run())
            result.setdefault("peak_rss_mb", peak_rss_mb())
    finally:
        workload.close()
    if tracer is not None:
        tracer.end()
        tracer.uninstall()
        tracer.write(span_dir / "main.json")
        summaries = [tracer.summary()]
        for path in sorted(span_dir.glob("worker-*.json")):
            document = json.loads(path.read_text())
            document.pop("span_columns")
            summaries.append(document)
        result["trace"] = summaries
        result["workers_started"] = len(list(span_dir.glob("started-*")))
    tmp = args.out.with_suffix(".tmp")
    tmp.write_text(json.dumps(result))
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
