"""Bench: adaptive statistical vector sampling (``--sampling``).

Three experiments, archived in ``BENCH_sampling.json``:

1. **Calls saved** — the full 86-function catalog runs once
   exhaustively and once under the default adaptive policy
   (``confidence=0.99``); the sampled sweep must inject at least
   :data:`MIN_CALLS_SAVED` times fewer vectors, and take less
   wall-clock time than the exhaustive sweep.
2. **Equivalence** — the sampled sweep's robust types (and therefore
   its declarations) are asserted identical to the exhaustive sweep's
   for every function: divergences are a hard failure, not a metric.
   Per-function sampling provenance (sampled / exhaustive fallback /
   escalated-to-exhaustive) is recorded so the escalation rate is
   priced in the artifact.
3. **Warm cache** — a sampled campaign re-run over its own outcome
   store is pure cache hits, and the round-tripped reports still carry
   their sampling evidence (the sampled digest population never
   aliases the exhaustive one).
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.campaign import CampaignConfig, CampaignRunner
from repro.injector import FaultInjector
from repro.injector.plan import clear_plan_cache
from repro.libc.catalog import BALLISTA_SET, BY_NAME
from repro.obs import export_bench_json

BENCH_PATH = Path(__file__).resolve().parents[1] / "BENCH_sampling.json"

#: The floor asserted on (exhaustive vectors) / (sampled vectors) over
#: the whole catalog.  The draw schedule is deterministic (seeded per
#: function from the plan digest), so this ratio is a constant of the
#: code, not a flaky measurement; the current value is ~3.1.
MIN_CALLS_SAVED = 3.0

SAMPLING = "adaptive"
WARM_FUNCTIONS = ["abs", "atoi", "fopen", "memset", "strcpy", "strlen"]


def _sweep(sampling=None):
    vectors = calls = 0
    seconds = 0.0
    reports = {}
    for name in sorted(spec.name for spec in BALLISTA_SET):
        clear_plan_cache()
        started = time.perf_counter()
        report = FaultInjector(BY_NAME[name], sampling=sampling).run()
        seconds += time.perf_counter() - started
        vectors += report.vectors_run
        calls += report.calls_made
        reports[name] = report
    return reports, vectors, calls, seconds


def test_sampling_bench(tmp_path):
    # Warm up imports and parser tables before anything is timed.
    FaultInjector(BY_NAME["abs"]).run()

    exhaustive, ex_vectors, ex_calls, ex_seconds = _sweep()
    sampled, sa_vectors, sa_calls, sa_seconds = _sweep(SAMPLING)

    # -- equivalence: identical robust types, function by function ----
    divergences = [
        name
        for name, report in exhaustive.items()
        if [r.robust.render() for r in report.robust_types]
        != [r.robust.render() for r in sampled[name].robust_types]
    ]
    assert divergences == [], (
        f"sampled robust types diverged from exhaustive: {divergences}"
    )
    # errno classification can degrade to 'none_found' when the rare
    # errno-setting vectors fall outside the sample (a documented
    # limitation, not a robust-type divergence) — but it must never
    # *invent* an errno class the exhaustive run did not observe.
    errno_agreement = 0
    for name, report in exhaustive.items():
        if report.errno_class == sampled[name].errno_class:
            errno_agreement += 1
        else:
            assert sampled[name].errno_class.kind == "none_found", name

    modes = {"sampled": 0, "exhaustive": 0, "escalated": 0}
    for report in sampled.values():
        assert report.sampling is not None
        modes[report.sampling.mode] += 1
    assert modes["sampled"] > 0, "no function actually sampled"

    calls_saved = ex_vectors / sa_vectors if sa_vectors else 0.0

    # -- warm cache: sampled campaigns round-trip their evidence ------
    cache_dir = tmp_path / "sampled-cache"
    config = CampaignConfig(cache_dir=cache_dir, sampling=SAMPLING)
    cold = CampaignRunner(WARM_FUNCTIONS, config).run()
    assert cold.failed == {}
    started = time.perf_counter()
    warm = CampaignRunner(WARM_FUNCTIONS, config).run()
    warm_seconds = time.perf_counter() - started
    assert warm.cache_hits == len(WARM_FUNCTIONS)
    assert warm.ran == 0
    assert warm.reports == cold.reports
    for report in warm.reports.values():
        assert report.sampling is not None

    payload = {
        "functions": len(exhaustive),
        "policy": cold.sampling,
        "min_calls_saved": MIN_CALLS_SAVED,
        "exhaustive": {
            "vectors": ex_vectors,
            "calls": ex_calls,
            "seconds": round(ex_seconds, 3),
        },
        "sampled": {
            "vectors": sa_vectors,
            "calls": sa_calls,
            "seconds": round(sa_seconds, 3),
        },
        "calls_saved": round(calls_saved, 3),
        "divergences": len(divergences),
        "errno_agreement": errno_agreement,
        "modes": modes,
        "warm_cache_seconds": round(warm_seconds, 3),
        "warm_cache_hits": warm.cache_hits,
    }
    export_bench_json("sampling", payload, path=BENCH_PATH)
    print(f"\n=== sampling ===\n  {payload}")

    assert calls_saved >= MIN_CALLS_SAVED, (
        f"sampling saved only {calls_saved:.2f}x vectors "
        f"({ex_vectors} exhaustive vs {sa_vectors} sampled); bar is "
        f"{MIN_CALLS_SAVED:.1f}x"
    )
    # Fewer vectors are only a proxy: the sampled sweep must also win
    # on wall-clock, robust-type recomputation at check boundaries
    # included.
    assert sa_seconds < ex_seconds, (
        f"sampled sweep took {sa_seconds:.2f}s, exhaustive {ex_seconds:.2f}s"
    )
