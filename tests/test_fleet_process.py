"""Tests for the process fleet and the pool under it: bit-identical
merges, worker death (kill -9) recovery, deadlines, and retry budgets."""

import multiprocessing as mp
import time

import pytest

from repro.campaign import CampaignConfig, CampaignRunner
from repro.campaign.runner import _inject_payload
from repro.fleet import run_fleet
from repro.fleet.process import run_process_pool
from repro.fleet.wire import FingerprintMismatch
from repro.fleet.worker import CHAOS_ENV, execute_function
from repro.obs.telemetry import Telemetry
from tests.campaign_workers import echo

#: Cheap catalog functions — the whole set injects in well under a
#: second, so supervised-fleet tests stay tier-1 fast.
FUNCTIONS = ["abs", "labs", "atoi", "isdigit", "toupper", "strcpy"]
MAX_VECTORS = 24
DIGESTS = {name: f"digest-{name}" for name in FUNCTIONS}

needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="worker-side monkeypatching needs the fork start method",
)


@pytest.fixture(scope="module")
def serial_payloads():
    """The ground truth: every function executed serially in-process."""
    return {
        name: execute_function(name, DIGESTS[name], 0, MAX_VECTORS).payload
        for name in FUNCTIONS
    }


def run_fleet_payloads(telemetry=None, **overrides):
    options = dict(
        campaign="test-fleet",
        workers=2,
        seed=0,
        max_vectors=MAX_VECTORS,
        timeout=60.0,
        task_retries=1,
    )
    options.update(overrides)
    if telemetry is not None:
        options["telemetry"] = telemetry
    return run_fleet("processes", FUNCTIONS, DIGESTS, **options)


class TestBitIdentical:
    def test_matches_serial_execution(self, serial_payloads):
        results = run_fleet_payloads()
        assert set(results) == set(FUNCTIONS)
        for name, result in results.items():
            assert result.ok, result.error
            assert result.attempts == 1
            assert result.payload == serial_payloads[name]

    def test_worker_count_does_not_change_results(self, serial_payloads):
        results = run_fleet_payloads(workers=3)
        assert {n: r.payload for n, r in results.items()} == serial_payloads

    def test_empty_campaign(self):
        assert run_fleet(
            "processes", [], {}, campaign="empty", workers=2,
            max_vectors=MAX_VECTORS,
        ) == {}

    def test_unknown_mode_refused(self):
        with pytest.raises(ValueError, match="unknown fleet mode"):
            run_fleet(
                "hovercraft", FUNCTIONS, DIGESTS, campaign="x", workers=1,
                max_vectors=MAX_VECTORS, timeout=None, task_retries=0,
            )


class TestWorkerDeath:
    def test_kill9_mid_shard_recovers_bit_identical(
        self, serial_payloads, monkeypatch
    ):
        # Every worker SIGKILLs itself after one completed function —
        # the campaign only finishes if reshard-and-retry keeps
        # replacing the dead, and the merge must not notice.
        monkeypatch.setenv(CHAOS_ENV, "kill-after:1")
        telemetry = Telemetry()
        results = run_fleet_payloads(telemetry=telemetry)
        assert {n: r.payload for n, r in results.items()} == serial_payloads
        assert all(r.ok for r in results.values())
        spawned = telemetry.counter("fleet.workers_spawned").value
        assert spawned > 2, f"only {spawned} workers spawned — nobody died?"
        assert telemetry.counter("fleet.reshard_count").value >= 1


class TestFingerprints:
    def test_worker_refuses_foreign_fingerprints(self, monkeypatch):
        # The parent ships fingerprints its workers cannot match: the
        # first worker refuses before taking a task and the pool stops.
        monkeypatch.setattr(
            "repro.fleet.process.fleet_fingerprints",
            lambda: {"schema": "foreign"},
        )
        with pytest.raises(FingerprintMismatch, match="foreign"):
            run_process_pool(["a1", "b1"], echo, workers=2)


@needs_fork
class TestDeadlinesAndRetries:
    """The pool's failure model, driven through a stand-in for the
    injector task (fork hands the patched function to the workers)."""

    @staticmethod
    def patch_task(monkeypatch, fake):
        monkeypatch.setattr("repro.campaign.runner._inject_payload", fake)

    def test_hung_function_hits_deadline(self, monkeypatch):
        real = _inject_payload

        def fake_task(name, **options):
            if name == "abs":
                time.sleep(60.0)
            return real(name, **options)

        self.patch_task(monkeypatch, fake_task)
        telemetry = Telemetry()
        results = run_fleet_payloads(
            telemetry=telemetry, timeout=0.5, task_retries=0
        )
        assert not results["abs"].ok
        assert "retry budget" in results["abs"].error
        assert all(results[n].ok for n in FUNCTIONS if n != "abs")
        # A deadline kill is a timeout, not also a crash.
        events = [
            r["name"] for r in telemetry.tracer.records()
            if r["type"] == "event"
        ]
        assert events.count("fleet.task_timeout") == 1
        assert "fleet.worker_crash" not in events

    def test_transient_failure_retries_on_fresh_worker(
        self, monkeypatch, tmp_path
    ):
        real = _inject_payload
        first_try = tmp_path / "abs-failed-once"

        def fake_task(name, **options):
            # The marker file is visible across worker processes, so
            # only the very first attempt fails.
            if name == "abs" and not first_try.exists():
                first_try.touch()
                raise RuntimeError("transient")
            return real(name, **options)

        self.patch_task(monkeypatch, fake_task)
        results = run_fleet_payloads(task_retries=1)
        assert results["abs"].ok
        assert results["abs"].attempts == 2

    def test_exhausted_retries_fail_terminally(self, monkeypatch):
        real = _inject_payload

        def fake_task(name, **options):
            if name == "abs":
                raise RuntimeError("always broken")
            return real(name, **options)

        self.patch_task(monkeypatch, fake_task)
        results = run_fleet_payloads(task_retries=1)
        assert not results["abs"].ok
        assert "always broken" in results["abs"].error
        assert results["abs"].attempts == 2


class TestCampaignIntegration:
    def test_process_campaign_bit_identical_to_serial(self):
        names = ["abs", "labs", "atoi"]
        serial = CampaignRunner(names, CampaignConfig()).run()
        fleet = CampaignRunner(
            names, CampaignConfig(fleet="processes", workers=2)
        ).run()
        assert fleet.failed == {}
        assert list(fleet.reports) == names
        assert fleet.reports == serial.reports
        assert fleet.fleet_mode == "processes"
        assert serial.fleet_mode == "serial"

    def test_jobs_campaign_runs_on_the_process_pool(self):
        names = ["abs", "labs", "atoi"]
        serial = CampaignRunner(names, CampaignConfig()).run()
        pooled = CampaignRunner(names, CampaignConfig(jobs=2)).run()
        assert pooled.failed == {}
        assert list(pooled.reports) == names
        assert pooled.reports == serial.reports
        assert pooled.fleet_mode == "processes"
