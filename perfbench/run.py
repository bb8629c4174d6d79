"""The end-to-end, layer-attributed benchmark of the HEALERS reproduction.

    python3 perfbench/run.py --workload phase2 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seconds 40

One run measures one workload for ``--seconds`` seconds.  It samples
set-up time in a few set-up-only processes, then repeats whole
iterations, each in a fresh process (``perfbench/iteration.py``), until
the time is used.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced
iterations and reports the per-layer metrics of the traced ones, plus
the tracing overhead.  Every iteration's outputs are checked item by
item against ``perfbench/reference/golden.json``.  Human-readable
lines come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--all`` runs every workload untraced and then traced and prints
every metric, including the per-workload names of ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import iteration
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "reference" / "golden.json"
WORKLOADS = tuple(iteration.WORKLOAD_CLASSES)

#: ``(name, unit)`` of the metrics reported with ``--trace 0``.  Per-item
#: latencies are printed by name but not reported here: on a 2-core VM
#: their run-to-run spread exceeds any bound a gate may use (README.md).
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("agreement_ratio", "ratio"),
)

#: ``(metric, layer)``: per-layer self seconds from the traced iterations.
LAYER_TIMES = (
    ("typelattice.build_s", "typelattice.build"),
    ("typelattice.robust_s", "typelattice.robust"),
    ("injector.sampling.observe_s", "injector.sampling.observe"),
    ("injector.plan.serve_s", "injector.plan.serve"),
    ("injector.plan.memo_s", "injector.plan.memo"),
    ("injector.plan.compile_s", "injector.plan.compile"),
    ("libc.fork_s", "libc.fork"),
    ("sandbox.call_s", "sandbox.call"),
    ("injector.setup_s", "injector.setup"),
    ("injector.run_self_s", "injector.run"),
    ("declarations.build_s", "declarations.build"),
    ("wrapper.call_s", "wrapper.call"),
    ("wrapper.check_s", "wrapper.check"),
    ("wrapper.compile_s", "wrapper.compile"),
    ("ballista.enumerate_s", "ballista.enumerate"),
    ("ballista.run_self_s", "ballista.run"),
    ("apps.run_self_s", "apps.run"),
    ("campaign.digest_s", "campaign.digest"),
    ("campaign.store.get_s", "campaign.store.get"),
    ("campaign.store.put_s", "campaign.store.put"),
    ("fleet.run_s", "fleet.run"),
    ("fleet.worker_self_s", "fleet.worker"),
)

#: Metrics of ``injector.sampling``, which only ``harden-sampled``
#: enters.  That workload is not in ``BENCHMARK.json`` (README.md), so
#: these are printed by name there but kept out of the reported set,
#: where every gated workload would read 0.
SAMPLING = (
    ("injector.sampling.observe_s", "s"),
    ("injector.sampling.skip_ratio", "ratio"),
)

#: ``(metric, unit)`` of everything reported with ``--trace 1``.
PER_LAYER = tuple(
    (name, "s") for name, _ in LAYER_TIMES if name not in dict(SAMPLING)
) + (
    ("typelattice.builds", "count"),
    ("typelattice.cache_hit_ratio", "ratio"),
    ("typelattice.robust_calls", "count"),
    ("injector.plan.serves", "count"),
    ("injector.plan.memo_hit_ratio", "ratio"),
    ("libc.forks", "count"),
    ("sandbox.calls", "count"),
    ("wrapper.reject_ratio", "ratio"),
    ("wrapper.revalidate_hit_ratio", "ratio"),
    ("campaign.cache_hit_ratio", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

#: Set-up-only processes per untraced run, on top of the iterations.
SETUP_PROBES = 6
#: A run starts no iteration that would end after RUN_BUDGET seconds
#: (judged by the longest so far) and stops any process still running
#: at RUN_DEADLINE, so it always ends within three minutes.
RUN_BUDGET = 160.0
RUN_DEADLINE = 170.0


class BenchmarkError(Exception):
    """The benchmark cannot run here (no source tree, no reference)."""


# ----------------------------------------------------------------------
# running iterations
# ----------------------------------------------------------------------


def spawn(workload: str, seed: int, work_dir: Path, index: int, timeout: float,
          traced: bool = False, setup_only: bool = False) -> dict:
    """Run one iteration in a fresh interpreter and return its result."""
    kind = "setup" if setup_only else "iteration"
    out = work_dir / f"{kind}-{index}.json"
    command = [
        sys.executable, str(HERE / "iteration.py"),
        "--workload", workload, "--seed", str(seed), "--iteration", str(index),
        "--out", str(out),
    ]
    if traced:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, TMPDIR=str(work_dir))
    # The parent's clock read is the process start the iteration
    # measures its set-up from (CLOCK_MONOTONIC is system-wide).
    command += ["--spawned-at", repr(time.monotonic())]
    # Its own process group, so a timeout also stops fleet workers.
    with subprocess.Popen(command, stdout=sys.stderr, env=env,
                          start_new_session=True) as process:
        try:
            code = process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise
    if code != 0:
        raise RuntimeError(f"{workload} {kind} {index} exited with {code}")
    return json.loads(out.read_text())


def run_iterations(workload: str, seed: int, seconds: float, trace: bool,
                   work_dir: Path) -> tuple[list[dict], list[dict], list[str]]:
    """Set-up probes and iterations; returns (probes, iterations, errors)."""
    probes: list[dict] = []
    iterations: list[dict] = []
    errors: list[str] = []
    began = time.monotonic()

    def remaining() -> float:
        return RUN_DEADLINE - (time.monotonic() - began)

    try:
        if not trace:
            for _ in range(SETUP_PROBES):
                probes.append(spawn(workload, seed, work_dir, len(probes),
                                    remaining(), setup_only=True))
        started = time.monotonic()
        longest = 0.0
        while True:
            traced = trace and len(iterations) % 2 == 1
            ticked = time.monotonic()
            result = spawn(workload, seed, work_dir, len(iterations),
                           remaining(), traced=traced)
            result["traced"] = traced
            iterations.append(result)
            now = time.monotonic()
            last = now - ticked
            longest = max(longest, last)
            # Stop where the next iteration would end nearer past
            # ``seconds`` than short of it.
            enough = len(iterations) >= (2 if trace else 1)
            if enough and (now - started + last / 2 >= seconds
                           or now - began + longest > RUN_BUDGET):
                break
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        errors.append(f"{type(exc).__name__}: {exc}")
    return probes, iterations, errors


# ----------------------------------------------------------------------
# checking outputs against the golden reference
# ----------------------------------------------------------------------


class Check:
    """Per-item tally of one run's outputs against the reference."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        #: mismatches a workload's contract does not allow
        self.violations: list[str] = []

    def functions(self, got: dict, expected: dict, failed: list,
                  sampled: bool = False) -> None:
        """One harden's per-function outputs.  A sampled run may lose
        an errno class to ``none_found`` (its rare errno-setting vectors
        were not drawn): that counts as wrong but is no violation."""
        self.attempted += len(expected)
        self.failed += len(failed)
        for name, reference in expected.items():
            if name in failed:
                continue
            actual = got.get(name)
            if actual == reference:
                continue
            self.wrong += 1
            degraded = (
                sampled
                and actual is not None
                and actual["robust"] == reference["robust"]
                and actual["unsafe"] == reference["unsafe"]
                and actual["errno"].startswith("none_found|")
            )
            if not degraded:
                self.violations.append(f"{name}: {actual} != {reference}")

    def ballista(self, got: dict, crashing: dict, expected: dict) -> None:
        for configuration, reference in expected.items():
            statuses = got[configuration]
            self.attempted += len(reference["statuses"])
            wrong = sum(
                1 for a, b in zip(statuses, reference["statuses"]) if a != b
            ) + abs(len(statuses) - len(reference["statuses"]))
            self.wrong += wrong
            if wrong:
                self.violations.append(f"{configuration}: {wrong} test statuses differ")
            if crashing[configuration] != reference["crashing_functions"]:
                self.violations.append(f"{configuration}: crashing functions differ")

    def apps(self, got: dict, expected: dict) -> None:
        for app, reference in expected.items():
            self.attempted += 1
            if got.get(app) != reference:
                self.wrong += 1
                self.violations.append(f"{app}: {got.get(app)} != {reference}")

    @property
    def error_rate(self) -> float:
        return (self.failed + self.wrong) / self.attempted if self.attempted else 1.0


def trace_problems(result: dict) -> list[str]:
    """Why a traced iteration's layer attribution is incomplete, if it is.

    Self times add up to the traced wall clock by construction (each
    closed span charges its parent), so what can go wrong is coverage:
    a timed layer the metric table does not report, a root span that
    misses part of the timed run, or a fleet worker that started but
    never wrote its spans (killed, or terminated after the fleet's join
    deadline), whose layers would silently drop out of both sides."""
    summaries = result["trace"]
    problems = []
    reported = {layer for _, layer in LAYER_TIMES}
    for summary in summaries:
        unreported = set(summary["self_s"]) - reported - {layers.ROOT}
        if unreported:
            problems.append(f"timed layers not reported: {sorted(unreported)}")
    if summaries[0]["wall_s"] < result["run_s"]:
        problems.append(
            f"root span {summaries[0]['wall_s']:.6f} s is shorter than the "
            f"timed run {result['run_s']:.6f} s"
        )
    traced_workers = len(summaries) - 1
    if traced_workers != result["workers_started"]:
        problems.append(f"{result['workers_started']} fleet workers started, "
                        f"{traced_workers} wrote spans")
    if traced_workers < result.get("workers", 0):
        problems.append(f"{result['workers']} fleet workers configured, "
                        f"{traced_workers} traced")
    return problems


def check_iteration(check: Check, workload: str, result: dict, golden: dict) -> None:
    if result["traced"]:
        check.violations.extend(trace_problems(result))
    if workload in ("harden", "harden-sampled"):
        check.functions(result["functions"], golden["functions"], result["failed"],
                        sampled=workload == "harden-sampled")
    elif workload == "phase2":
        check.ballista(result["ballista"], result["crashing_functions"],
                       golden["ballista"])
        check.apps(result["apps"], golden["apps"])
    else:
        check.functions(result["functions"], golden["functions"], result["failed"])
        check.functions(result["rerun_functions"], golden["functions"],
                        result["failed"])
        hits = result["counters"]["campaign.cache_hits"]
        if hits != len(golden["functions"]):
            check.violations.append(f"rerun served {hits} functions from the store")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def item_latency(iterations: list[dict]) -> tuple[float, float]:
    """(p50, tail) per-item latency in ms over a run's iterations.

    Function items: each function's median latency over the iterations,
    then percentiles across the 86 functions.  Which function pays for a
    lattice build or a plan compile depends on the order, and the
    latency distribution has a gap near its middle, so a per-iteration
    p50 jumps across the gap from order to order; the per-function
    median does not.  Call items have no identity: medians of the
    iterations' percentiles."""
    if "item_latencies_ms" in iterations[0]:
        names = iterations[0]["item_latencies_ms"]
        per_item = [
            statistics.median(r["item_latencies_ms"][name] for r in iterations)
            for name in names
        ]
        return (iteration.percentile(per_item, 0.5),
                iteration.percentile(per_item, iteration.FUNCTION_TAIL))
    return (statistics.median(r["item_p50_ms"] for r in iterations),
            statistics.median(r["item_tail_ms"] for r in iterations))


def end_to_end_metrics(probes: list[dict], iterations: list[dict],
                       check: Check) -> dict[str, float]:
    """Medians over the run, except memory: ``peak_rss_mb`` is the run's
    peak, the largest over its iterations.  A harden's peak depends on
    the catalog order each iteration draws (64-76 MB, README.md), so a
    change that raises it for some orders shows in the run's peak."""
    return {
        "setup_s": statistics.median(r["setup_s"] for r in probes + iterations),
        "run_s": statistics.median(r["run_s"] for r in iterations),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in iterations),
        "agreement_ratio": 1.0 - check.error_rate,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(traced: dict, untraced: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration."""
    summaries = traced["trace"]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    hits: dict[str, int] = {}
    wall = 0.0
    for summary in summaries:
        wall += summary["wall_s"]
        for layer, seconds in summary["self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds
        for key, count in summary["calls"].items():
            calls[key] = calls.get(key, 0) + count
        for key, count in summary["hits"].items():
            hits[key] = hits.get(key, 0) + count
    unattributed = summaries[0]["self_s"].get(summaries[0]["root"], 0.0)
    counters = traced.get("counters", {})
    metrics = {name: self_s.get(layer, 0.0) for name, layer in LAYER_TIMES}
    metrics.update({
        "typelattice.builds": calls.get("lattice.Lattice.__init__", 0),
        "typelattice.cache_hit_ratio": _ratio(
            calls.get("lattice.Lattice.for_sizes", 0)
            - calls.get("lattice.Lattice.__init__", 0),
            calls.get("lattice.Lattice.for_sizes", 0),
        ),
        "typelattice.robust_calls": calls.get("injector.compute_robust_vector", 0),
        "injector.sampling.skip_ratio": _ratio(
            counters.get("sampling.vectors_skipped", 0),
            counters.get("sampling.vectors_total", 0),
        ),
        "injector.plan.serves": calls.get("plan.SnapshotLadder.serve", 0),
        "injector.plan.memo_hit_ratio": _ratio(
            hits.get("plan.ChainMemo.lookup", 0),
            calls.get("plan.ChainMemo.lookup", 0),
        ),
        "libc.forks": calls.get("runtime.LibcRuntime.fork", 0),
        "sandbox.calls": calls.get("sandbox.Sandbox.call", 0),
        "wrapper.reject_ratio": _ratio(
            counters.get("wrapper.violations", 0), counters.get("wrapper.calls", 0)
        ),
        "wrapper.revalidate_hit_ratio": _ratio(
            counters.get("wrapper.revalidate_hits", 0),
            counters.get("wrapper.revalidate_hits", 0)
            + counters.get("wrapper.revalidate_misses", 0),
        ),
        "campaign.cache_hit_ratio": _ratio(
            counters.get("campaign.cache_hits", 0),
            counters.get("campaign.functions", 0),
        ),
        "trace.wall_s": wall,
        "trace.unattributed_share": _ratio(unattributed, wall),
        "trace.overhead_ratio": _ratio(
            traced["run_s"], statistics.mean(r["run_s"] for r in untraced)
        ),
    })
    return metrics


def per_layer_metrics(iterations: list[dict]) -> dict[str, float]:
    """Mean over the traced iterations (sums are linear, so the layers
    still add up to the mean traced wall clock)."""
    traced = [r for r in iterations if r["traced"]]
    untraced = [r for r in iterations if not r["traced"]]
    rows = [layer_metrics(r, untraced) for r in traced]
    return {name: statistics.mean(row[name] for row in rows) for name in rows[0]}


def named_metrics(workload: str, iterations: list[dict],
                  check: Check) -> list[tuple[str, float, str]]:
    """The per-workload metric names of README.md, for the printout."""
    untraced = [r for r in iterations if not r["traced"]]

    rows = []
    legs = {key for r in untraced for key in r["legs"]}
    for leg in sorted(legs):
        rows.append((leg, statistics.median(r["legs"][leg] for r in untraced), "s"))
    p50, tail = item_latency(untraced)
    if workload == "phase2":
        rows += [("call_p50_us", p50 * 1e3, "us"), ("call_p99_us", tail * 1e3, "us")]
    else:
        prefix = "rerun_" if workload == "campaign-fleet" else ""
        rows += [(f"{prefix}function_p50_ms", p50, "ms"),
                 (f"{prefix}function_p88_ms", tail, "ms")]
    rows.append(("error_rate", check.error_rate, "ratio"))
    return rows


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------


def load_golden() -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no source tree at {ROOT / 'src' / 'repro'}")
    if not GOLDEN.is_file():
        raise BenchmarkError(f"no golden reference at {GOLDEN}")
    return json.loads(GOLDEN.read_text())


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object (printing the
    human-readable lines on the way)."""
    golden = load_golden()
    work_dir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        probes, iterations, errors = run_iterations(
            workload, seed, seconds, trace, work_dir
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    check = Check()
    for result in iterations:
        check_iteration(check, workload, result, golden)
    if errors:
        check.failed += 1
        check.attempted += 1
    correct = not errors and check.failed == 0 and not check.violations
    traced = sum(1 for r in iterations if r["traced"])
    print(f"== {workload}  seed={seed}  trace={int(trace)}  "
          f"iterations={len(iterations) - traced} untraced + {traced} traced  "
          f"setup probes={len(probes)}")
    for line in errors + check.violations[:20]:
        print(f"  ! {line}")
    print("  run_s per iteration: " + " ".join(
        f"{r['run_s']:.3f}{'*' if r['traced'] else ''}" for r in iterations))
    metrics: dict[str, dict] = {}
    if iterations and not errors:
        if trace:
            values = per_layer_metrics(iterations)
            units = dict(PER_LAYER)
            if workload == "harden-sampled":
                for name, unit in SAMPLING:
                    print(f"  {name:<32} {values[name]:>14.6g} {unit}")
        else:
            values = end_to_end_metrics(probes, iterations, check)
            units = dict(END_TO_END)
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in units}
        for name, value, unit in named_metrics(workload, iterations, check):
            print(f"  {name:<32} {value:>14.6g} {unit}")
        print("  --")
        for name, entry in metrics.items():
            print(f"  {name:<32} {entry['value']:>14.6g} {entry['unit']}")
    return {
        "correct": correct,
        "attempted": max(check.attempted, 1),
        "failed": check.failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    try:
        if args.all:
            results = {
                f"{workload}/trace={trace}": run(workload, args.seed, args.seconds,
                                                 bool(trace))
                for workload in WORKLOADS
                for trace in (0, 1)
            }
            print(json.dumps(results))
            return 0 if all(r["correct"] for r in results.values()) else 1
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
