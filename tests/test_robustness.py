"""Chaos tests for the resilient sweep engine.

Covers the deterministic fault harness (``repro.faults``), the
supervised batch executor (``repro.sim.supervisor``) — crash, hang,
transient-exception and serial-degrade recovery with bit-identical
results — the sweep journal and ``--resume``, and the hardened result
cache (injected corruption, injected ``ENOSPC`` degrade-to-off).
"""

import builtins
import errno
import json
import multiprocessing
import os
import tempfile
import threading
import time

import pytest

from repro import faults
from repro.sim import cache
from repro.sim.batch import (
    BatchError,
    SimJob,
    SupervisorConfig,
    SweepJournal,
    _run_job,
    run_batch,
    run_batch_report,
    suite_jobs,
)
from repro.sim.supervisor import WorkerPool, run_supervised

#: Fast supervision policy so retries/backoff cost milliseconds.
FAST = SupervisorConfig(
    max_attempts=3,
    backoff_base=0.01,
    backoff_max=0.05,
    backoff_jitter=0.1,
)

FORK_ONLY = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


def _pool_threads():
    """Live supervision threads of any :class:`WorkerPool`."""
    return [
        t
        for t in threading.enumerate()
        if t.name == "repro-worker-pool" and t.is_alive()
    ]


def make_jobs(schemes=("sequential", "collapsing_buffer"), length=3000):
    return suite_jobs(
        ("ora",), ("PI4",), tuple(schemes), length=length, warmup=800
    )


def disarm() -> None:
    os.environ.pop("REPRO_FAULTS", None)
    faults.reload()


def arm(spec: str) -> None:
    os.environ["REPRO_FAULTS"] = spec
    faults.reload()


@pytest.fixture(autouse=True)
def _disarm_faults():
    """Every test leaves the harness off and the cache re-armed, however
    it exits (monkeypatch teardown ordering is not enough because the
    parsed plan is memoised per process)."""
    yield
    os.environ.pop("REPRO_FAULTS", None)
    faults.reload()
    cache.reset_runtime_disable()
    cache.reset_stats()


@pytest.fixture()
def cache_env(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.delenv("REPRO_CACHE", raising=False)
    return tmp_path


# -- fault spec and schedule --------------------------------------------------


class TestFaultSpec:
    def test_parse_full_grammar(self):
        plan = faults.parse_spec(
            "seed=9; batch.worker=crash:p=0.5:n=3:a=1; cache.load=corrupt; "
            "sim.run=hang:s=2.5"
        )
        assert plan is not None and plan.seed == 9
        rule = plan.rules["batch.worker"]
        assert (rule.kind, rule.probability, rule.max_injections, rule.max_attempt) == (
            "crash",
            0.5,
            3,
            1,
        )
        assert plan.rules["cache.load"].probability == 1.0
        assert plan.rules["sim.run"].seconds == 2.5

    def test_empty_spec_is_off(self):
        assert faults.parse_spec("") is None
        assert faults.parse_spec(" ; ") is None

    @pytest.mark.parametrize(
        "spec",
        [
            "batch.worker",  # no '='
            "batch.worker=explode",  # unknown kind
            "batch.worker=exc:p=2.0",  # probability out of range
            "batch.worker=exc:q=1",  # unknown parameter
            "batch.worker=exc:p",  # parameter without value
            "seed=xyz",  # bad seed
            "a=exc;a=exc",  # duplicate site
        ],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(faults.FaultSpecError):
            faults.parse_spec(spec)

    def test_off_by_default(self):
        os.environ.pop("REPRO_FAULTS", None)
        faults.reload()
        assert faults.plan() is None
        faults.maybe_fail("batch.worker")  # no-op
        assert faults.decide("cache.load") is None


class TestFaultDeterminism:
    def test_untokened_schedule_reproducible(self):
        spec = "seed=11;cache.load=corrupt:p=0.5"
        first = faults.parse_spec(spec).schedule("cache.load", 64)
        second = faults.parse_spec(spec).schedule("cache.load", 64)
        assert first == second
        assert any(first) and not all(first)  # p=0.5 mixes both
        other_seed = faults.parse_spec("seed=12;cache.load=corrupt:p=0.5")
        assert other_seed.schedule("cache.load", 64) != first

    def test_schedule_matches_live_decisions(self):
        spec = "seed=11;cache.load=corrupt:p=0.5"
        plan = faults.parse_spec(spec)
        live = [plan.decide("cache.load") is not None for _ in range(64)]
        assert live == faults.parse_spec(spec).schedule("cache.load", 64)

    def test_tokened_decisions_cross_process_stable(self):
        spec = "seed=4;batch.worker=crash:p=0.5"
        reference = [
            faults.parse_spec(spec).decide("batch.worker", token=i) is not None
            for i in range(32)
        ]
        # A "different process" is just a fresh plan: decisions must match.
        plan = faults.parse_spec(spec)
        assert [
            plan.decide("batch.worker", token=i) is not None for i in range(32)
        ] == reference
        assert any(reference) and not all(reference)

    def test_attempt_gate_and_injection_cap(self):
        plan = faults.parse_spec("batch.worker=exc:a=1")
        assert plan.decide("batch.worker", token=0, attempt=1) is not None
        assert plan.decide("batch.worker", token=0, attempt=2) is None
        capped = faults.parse_spec("sim.run=exc:n=2")
        fired = sum(capped.decide("sim.run") is not None for _ in range(10))
        assert fired == 2


# -- supervised execution under chaos ----------------------------------------


class TestSupervisorChaos:
    @FORK_ONLY
    def test_worker_crashes_are_retried_bit_identically(self):
        jobs = make_jobs()
        baseline = run_batch(jobs, processes=1)
        arm("seed=7;batch.worker=crash:a=1")
        report = run_batch_report(jobs, processes=2, config=FAST)
        assert report.results == baseline  # SimStats dataclass equality
        assert all(o.status == "retried" for o in report.outcomes)
        assert all(o.attempts == 2 for o in report.outcomes)
        failures = [line for o in report.outcomes for line in o.failures]
        assert any("worker died" in line for line in failures)

    @FORK_ONLY
    def test_batch_handoff_faults_cost_one_attempt(self):
        # Batches dispatch through the same pool as the service, so the
        # parent-side service.handoff site guards their hand-offs too.
        jobs = make_jobs()
        baseline = run_batch(jobs, processes=1)
        arm("seed=7;service.handoff=exc:a=1")
        report = run_batch_report(jobs, processes=2, config=FAST)
        assert report.results == baseline
        assert all(o.status == "retried" for o in report.outcomes)
        assert all(o.attempts == 2 for o in report.outcomes)
        assert all("FaultInjected" in o.failures[0] for o in report.outcomes)

    @FORK_ONLY
    def test_hung_worker_times_out_and_recovers(self):
        jobs = make_jobs(schemes=("sequential",))
        baseline = run_batch(jobs, processes=1)
        arm("seed=7;batch.worker=hang:a=1:s=60")
        config = SupervisorConfig(
            timeout=1.0,
            max_attempts=3,
            backoff_base=0.01,
            backoff_max=0.05,
        )
        report = run_batch_report(jobs, processes=2, config=config)
        assert report.results == baseline
        (outcome,) = report.outcomes
        assert outcome.status == "retried"
        assert any("timed out after 1s" in line for line in outcome.failures)

    def test_transient_exception_retried_serially(self):
        # Unique trace length: the session-wide ``REPRO_CACHE_DIR`` may
        # already hold another test's cell, and the ``sim.stats`` site
        # only fires when the ``sim_stats`` body runs.
        jobs = make_jobs(schemes=("sequential",), length=3100)
        arm("seed=7;sim.stats=exc:n=1")
        report = run_batch_report(jobs, processes=1, config=FAST)
        disarm()
        assert report.results == run_batch(jobs, processes=1)
        (outcome,) = report.outcomes
        assert outcome.status == "retried"
        assert "FaultInjected" in outcome.failures[0]

    def test_exhausted_retries_raise_batch_error_naming_jobs(self):
        jobs = make_jobs(schemes=("sequential",))
        arm("batch.worker=exc")  # every attempt of every job fails
        with pytest.raises(BatchError) as excinfo:
            run_batch(jobs, processes=1, config=FAST)
        assert "ora" in str(excinfo.value) and "sequential" in str(excinfo.value)
        assert [o.status for o in excinfo.value.outcomes] == ["crashed"]
        assert excinfo.value.outcomes[0].attempts == FAST.max_attempts

    @FORK_ONLY
    def test_degrades_to_serial_after_repeated_worker_failures(self):
        jobs = make_jobs()
        baseline = run_batch(jobs, processes=1)
        arm("seed=7;batch.worker=crash:a=1")
        config = SupervisorConfig(
            max_attempts=3,
            backoff_base=0.01,
            backoff_max=0.05,
            max_worker_failures=0,  # first crash abandons the pool
        )
        report = run_batch_report(jobs, processes=2, config=config)
        assert report.degraded_serial
        assert report.results == baseline
        assert all(o.status in ("ok", "retried") for o in report.outcomes)

    @FORK_ONLY
    def test_mixed_chaos_sweep_is_bit_identical(self, cache_env):
        # The acceptance scenario: worker crashes + transient simulator
        # exceptions + corrupt cache entries in one sweep, results still
        # exact.  Unique trace length keeps the parent's lru memo cold,
        # so the forked workers genuinely execute the faulted paths; the
        # no-fault baseline runs afterwards (served via the disk cache
        # the workers populated, proving that round trip too).
        jobs = make_jobs(length=3300)
        arm(
            "seed=5;batch.worker=crash:p=0.5:a=1;sim.run=exc:p=0.3:n=2;"
            "cache.load=corrupt:p=0.3:n=2"
        )
        config = SupervisorConfig(
            timeout=20.0,
            max_attempts=6,
            backoff_base=0.01,
            backoff_max=0.05,
        )
        report = run_batch_report(jobs, processes=2, config=config)
        disarm()
        assert report.results == run_batch(jobs, processes=1)
        assert all(o.status in ("ok", "retried") for o in report.outcomes)

    def test_injected_kernel_fault_degrades_to_interpreted_loop(self):
        # The compiled kernel's chaos contract: an injected ``sim.kernel``
        # fault must not fail or corrupt the run — ``Simulator.run()``
        # falls back to the interpreted loop with bit-identical results.
        from repro.machines.presets import get_machine
        from repro.sim.simulator import Simulator
        from repro.workloads.suite import load_workload
        from repro.workloads.trace import generate_trace

        workload = load_workload("ora")
        trace = generate_trace(workload.program, workload.behavior, 3000)
        machine = get_machine("PI4")

        disarm()
        clean_sim = Simulator(machine, trace, "sequential", warmup=800)
        clean = clean_sim.run()
        assert clean_sim.kernel_used

        arm("seed=5;sim.kernel=exc")
        try:
            faulted_sim = Simulator(machine, trace, "sequential", warmup=800)
            faulted = faulted_sim.run()
        finally:
            disarm()
        assert not faulted_sim.kernel_used
        assert faulted_sim.kernel_decline_reason == "fault-injected"
        assert faulted == clean
        assert faulted_sim._snapshot == clean_sim._snapshot

    def test_faults_off_results_unchanged(self):
        # With the harness disarmed the engine must behave like the
        # plain batch runner: identical results, all-ok outcomes.
        jobs = make_jobs()
        serial = run_batch(jobs, processes=1)
        report = run_batch_report(jobs, processes=2)
        assert report.results == serial
        assert report.outcome_counts == {"ok": len(jobs)}

    @FORK_ONLY
    def test_crash_storm_sweep_never_deadlocks(self, tmp_path):
        # Regression: the engine once shared a single result
        # multiprocessing.Queue across workers.  A worker that died
        # between its feeder thread's acquire and release of the queue's
        # cross-process write lock leaked the lock forever, wedging every
        # surviving worker's result delivery and hanging the supervisor
        # at result_queue.get() (reproduced ~1 in 3 runs of exactly this
        # sweep on a single-CPU host).  Results now travel over private
        # per-worker pipes, so a death can sever only its own channel.
        # Run the original repro end to end a few times under a hard
        # timeout: any hang fails the test instead of freezing the suite.
        import subprocess
        import sys

        env = dict(os.environ)
        env["PYTHONPATH"] = "src"
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        env["REPRO_FAULTS"] = "seed=2;batch.worker=crash:p=0.4:a=1"
        for _ in range(3):
            proc = subprocess.run(
                [
                    sys.executable, "-m", "repro", "sweep",
                    "--benchmarks", "espresso", "li",
                    "--machines", "PI4",
                    "--schemes", "sequential", "perfect",
                    "--jobs", "2", "--retries", "2", "--length", "8000",
                ],
                capture_output=True,
                text=True,
                timeout=120,
                env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            assert "job outcomes" in proc.stdout

    def test_empty_batch(self):
        assert run_batch([]) == []
        assert run_batch_report([]).outcomes == []


class TestSerialPoolWakeup:
    """Closing intake wakes the pool's supervision thread at once: it
    sleeps on events (submit, drain, cancel, worker messages), never
    through a poll period or a retry's backoff."""

    PROCESSES = pytest.mark.parametrize(
        "processes", [0, pytest.param(1, marks=FORK_ONLY)]
    )

    @PROCESSES
    def test_idle_serial_pool_drains_promptly(self, processes):
        pool = WorkerPool(_run_job, processes=processes)
        start = time.monotonic()
        assert pool.drain(timeout=10.0)
        assert time.monotonic() - start < 1.0

    @PROCESSES
    def test_idle_serial_pool_cancels_promptly(self, processes):
        pool = WorkerPool(_run_job, processes=processes)
        start = time.monotonic()
        pool.cancel()
        assert time.monotonic() - start < 1.0
        assert not pool._thread.is_alive()

    def test_cancel_does_not_wait_out_a_serial_backoff(self):
        # Every first attempt fails and its retry is due in >= 5 s; the
        # retry waits on the pool's heap, not in a sleep on its thread.
        arm("seed=7;batch.worker=exc:a=1")
        pool = WorkerPool(
            _run_job, processes=0, config=SupervisorConfig(backoff_base=5.0)
        )
        future = pool.submit(make_jobs(schemes=("sequential",))[0])
        assert _wait_until(lambda: future.outcome.failures)
        start = time.monotonic()
        pool.cancel()
        assert time.monotonic() - start < 1.0
        assert future.cancelled()

    def test_serial_handoff_faults_cost_one_attempt(self):
        # service.handoff fires at every dispatch, inline ones included.
        jobs = make_jobs()
        baseline = run_batch(jobs, processes=1)
        arm("seed=7;service.handoff=exc:a=1")
        report = run_batch_report(jobs, processes=1, config=FAST)
        assert report.results == baseline
        assert [o.status for o in report.outcomes] == ["retried"] * len(jobs)
        assert all(o.attempts == 2 for o in report.outcomes)
        assert all("service.handoff" in o.failures[0] for o in report.outcomes)


def _wait_until(predicate, timeout=30.0) -> bool:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


# -- journal + resume ---------------------------------------------------------


class TestJournalResume:
    def test_journal_records_every_completion(self, cache_env, tmp_path):
        jobs = make_jobs()
        journal = SweepJournal(tmp_path / "sweep")
        run_batch_report(jobs, processes=1, journal=journal)
        journal.close()
        lines = (tmp_path / "sweep" / "journal.jsonl").read_text().splitlines()
        header = json.loads(lines[0])
        assert header["type"] == "header"
        assert header["source_version"] == cache.source_version()
        records = [json.loads(line) for line in lines[1:]]
        assert len(records) == len(jobs)
        assert {r["key"] for r in records} == {
            SweepJournal.job_key(job) for job in jobs
        }
        assert all(r["outcome"]["status"] == "ok" for r in records)

    def test_resume_skips_and_reproduces_bit_identically(self, cache_env, tmp_path):
        jobs = make_jobs()
        journal = SweepJournal(tmp_path / "sweep")
        first = run_batch_report(jobs, processes=1, journal=journal)
        journal.close()
        resumed = run_batch_report(
            jobs,
            processes=1,
            journal=SweepJournal(tmp_path / "sweep"),
            resume=True,
        )
        assert resumed.results == first.results
        assert resumed.outcome_counts == {"skipped": len(jobs)}

    def test_partial_journal_resumes_only_missing_work(self, cache_env, tmp_path):
        jobs = make_jobs() + suite_jobs(
            ("li",), ("PI4",), ("sequential",), length=3000, warmup=800
        )
        uninterrupted = run_batch(jobs, processes=1)
        # Simulate an interrupted sweep: only the first two jobs made it
        # into the journal before the "crash".
        journal = SweepJournal(tmp_path / "sweep")
        run_batch_report(jobs[:2], processes=1, journal=journal)
        journal.close()
        resumed = run_batch_report(
            jobs,
            processes=1,
            journal=SweepJournal(tmp_path / "sweep"),
            resume=True,
        )
        assert resumed.results == uninterrupted
        assert resumed.outcome_counts == {"skipped": 2, "ok": len(jobs) - 2}

    def test_torn_and_foreign_lines_are_skipped(self, cache_env, tmp_path):
        jobs = make_jobs(schemes=("sequential",))
        journal = SweepJournal(tmp_path / "sweep")
        run_batch_report(jobs, processes=1, journal=journal)
        journal.close()
        path = tmp_path / "sweep" / "journal.jsonl"
        with path.open("a") as handle:
            foreign = '{"type": "result", "key": "x", "digest": "0", "stats": "!"}'
            handle.write(foreign + "\n")
            handle.write('{"type": "result", "key"')  # torn final line
        completed = SweepJournal(tmp_path / "sweep").load_completed()
        assert set(completed) == {SweepJournal.job_key(jobs[0])}

    def test_stale_journal_ignored_and_truncated(self, cache_env, tmp_path):
        jobs = make_jobs(schemes=("sequential",))
        journal = SweepJournal(tmp_path / "sweep")
        run_batch_report(jobs, processes=1, journal=journal)
        journal.close()
        path = tmp_path / "sweep" / "journal.jsonl"
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["source_version"] = "someone-else's-code"
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        stale = SweepJournal(tmp_path / "sweep")
        assert stale.load_completed() == {}
        # The next write starts the journal over under the real header.
        report = run_batch_report(jobs, processes=1, journal=stale, resume=True)
        stale.close()
        assert report.outcome_counts == {"ok": 1}
        fresh_header = json.loads(path.read_text().splitlines()[0])
        assert fresh_header["source_version"] == cache.source_version()

    @pytest.mark.parametrize("processes", [1, pytest.param(2, marks=FORK_ONLY)])
    def test_interrupt_flushes_journal_before_propagating(
        self, cache_env, tmp_path, processes
    ):
        jobs = make_jobs()
        journal = SweepJournal(tmp_path / "sweep")
        pools_before = set(_pool_threads())

        def interrupt_after_first(outcome):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_supervised(
                jobs,
                _run_job,
                processes=processes,
                config=FAST,
                journal=journal,
                on_complete=interrupt_after_first,
            )
        journal.close()
        completed = SweepJournal(tmp_path / "sweep").load_completed()
        assert len(completed) == 1  # the finished job survived the Ctrl-C
        # The cancelled pool left nothing running behind.
        assert multiprocessing.active_children() == []
        assert set(_pool_threads()) <= pools_before

    def test_fresh_journal_over_stale_header_is_resumable(
        self, cache_env, tmp_path
    ):
        # Without --resume nothing reads the journal before the first
        # append; the append itself must notice the stale header and
        # start over, or the new results land where no resume reads.
        jobs = make_jobs(schemes=("sequential",))
        journal = SweepJournal(tmp_path / "sweep")
        run_batch_report(jobs, processes=1, journal=journal)
        journal.close()
        path = tmp_path / "sweep" / "journal.jsonl"
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["source_version"] = "someone-else's-code"
        path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        fresh = SweepJournal(tmp_path / "sweep")
        run_batch_report(jobs, processes=1, journal=fresh)
        fresh.close()
        completed = SweepJournal(tmp_path / "sweep").load_completed()
        assert set(completed) == {SweepJournal.job_key(jobs[0])}


# -- hardened result cache ----------------------------------------------------


class TestCacheHardening:
    def test_injected_corruption_heals(self, cache_env):
        key = ("ora", "PI4", "sequential", 3000)
        cache.store("sim_stats", key, {"ipc": 3.4})
        arm("cache.load=corrupt:n=1")
        cache.reset_stats()
        assert cache.load("sim_stats", key) is None  # corrupt -> miss
        assert cache.stats.corrupt_dropped == 1
        # The slot healed: a fresh store/load round-trips (n=1 spent).
        cache.store("sim_stats", key, {"ipc": 3.4})
        assert cache.load("sim_stats", key) == {"ipc": 3.4}

    def test_injected_enospc_degrades_to_cache_off(self, cache_env, capsys):
        arm("cache.store=oserror:n=1")
        cache.reset_stats()
        cache.store("sim_stats", ("k",), 1)
        assert cache.stats.store_errors == 1
        assert cache.stats.auto_disabled == 1
        assert not cache.cache_enabled()  # off for the rest of the process
        cache.store("sim_stats", ("k2",), 2)
        assert cache.stats.store_errors == 1  # no further doomed writes
        assert cache.load("sim_stats", ("k",)) is None
        err = capsys.readouterr().err
        assert "result cache" in err and "ENOSPC" in err
        cache.reset_runtime_disable()
        assert cache.cache_enabled()

    def test_readonly_store_degrades_to_compute_through(
        self, cache_env, monkeypatch, capsys
    ):
        # Remount the cache read-only, as far as it can tell: temp-file
        # creation raises EROFS (chmod is no use — the suite may run as
        # root, which ignores permission bits).
        def readonly_mkstemp(*args, **kwargs):
            raise OSError(errno.EROFS, "read-only file system")

        monkeypatch.setattr(tempfile, "mkstemp", readonly_mkstemp)
        cache.reset_stats()
        cache.store("sim_stats", ("k",), 1)
        assert cache.stats.store_errors == 1
        assert cache.stats.auto_disabled == 1
        assert not cache.cache_enabled()
        assert "EROFS" in capsys.readouterr().err
        # Disabled: get_or_compute runs the work with no claim file.
        calls = []
        key = ("k2",)
        assert cache.get_or_compute(
            "sim_stats", key, lambda: calls.append(1) or 7
        ) == 7
        assert calls == [1]
        assert not cache._claim_path("sim_stats", key).exists()
        assert list(cache.cache_dir().glob("*.claim")) == []
        cache.reset_runtime_disable()
        assert cache.cache_enabled()

    def test_readonly_load_degrades_to_compute_through(
        self, cache_env, monkeypatch
    ):
        key = ("ora", "PI4", "sequential", 3000)
        cache.store("sim_stats", key, {"ipc": 3.4})
        real_open = builtins.open

        def unreadable_open(file, mode="r", *args, **kwargs):
            if "r" in mode and str(file).endswith(".pkl"):
                raise OSError(errno.EROFS, "read-only file system")
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", unreadable_open)
        cache.reset_stats()
        assert cache.load("sim_stats", key) is None  # a miss, not a crash
        assert cache.stats.misses == 1
        assert cache.stats.auto_disabled == 1
        assert cache.stats.corrupt_dropped == 0  # the entry is not damaged
        assert not cache.cache_enabled()
        assert cache.get_or_compute("sim_stats", key, lambda: 9) == 9
        monkeypatch.setattr(builtins, "open", real_open)
        cache.reset_runtime_disable()
        assert cache.load("sim_stats", key) == {"ipc": 3.4}  # never dropped

    def test_worker_cache_disable_is_counted_in_batch(self, cache_env):
        # The auto-disable counter rides the worker->parent delta like
        # every other cache counter.  The store only happens when the
        # ``sim_stats`` body runs: ``cache_env``'s directory starts
        # empty, and the unique length keeps the cell out of any cache
        # directory another test's jobs filled.
        jobs = make_jobs(schemes=("sequential",), length=3200)
        arm("cache.store=oserror:n=1")
        report = run_batch_report(jobs, processes=1, config=FAST)
        assert report.cache_stats.get("auto_disabled") == 1
        assert report.outcome_counts == {"ok": 1}


# -- CLI ----------------------------------------------------------------------


class TestSweepCLI:
    SWEEP = [
        "sweep",
        "--benchmarks",
        "ora",
        "--machines",
        "PI4",
        "--schemes",
        "sequential",
        "--length",
        "3000",
        "--warmup",
        "800",
        "--jobs",
        "1",
    ]

    def test_journal_then_resume_round_trip(self, cache_env, tmp_path, capsys):
        from repro.cli import main

        journal_dir = str(tmp_path / "sweep")
        assert main(self.SWEEP + ["--journal", journal_dir]) == 0
        first = capsys.readouterr().out
        assert main(self.SWEEP + ["--resume", journal_dir]) == 0
        second = capsys.readouterr().out
        assert "1 skipped" in second

        def table(text):
            return [
                line for line in text.splitlines() if line.startswith("ora")
            ]

        assert table(first) == table(second)

    def test_journal_and_resume_together_is_a_usage_error(
        self, cache_env, tmp_path, capsys
    ):
        # One sweep has one journal: naming two must not silently drop
        # the --journal directory.
        from repro.cli import main

        journal_dir, resume_dir = tmp_path / "a", tmp_path / "b"
        with pytest.raises(SystemExit) as exc:
            main(
                self.SWEEP
                + ["--journal", str(journal_dir), "--resume", str(resume_dir)]
            )
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not journal_dir.exists() and not resume_dir.exists()

    def test_permanent_failure_exits_nonzero(self, cache_env, capsys):
        from repro.cli import main

        arm("sim.stats=exc")
        # The sim_stats body (and its fault site) runs only on a cache
        # miss: ``cache_env``'s directory starts empty, and the unique
        # length keeps the cell out of any cache directory another
        # test's sweeps filled.
        args = [a if a != "3000" else "3400" for a in self.SWEEP]
        code = main(args + ["--retries", "0"])
        assert code == 1
        assert "sweep failed" in capsys.readouterr().err

    def test_manifest_carries_job_outcomes(self, cache_env, tmp_path):
        from repro.cli import main

        out = tmp_path / "telemetry"
        assert main(self.SWEEP + ["--telemetry", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        (outcome,) = manifest["job_outcomes"]
        assert outcome["status"] == "ok"
        assert manifest["arguments"]["retries"] == 2


# -- tracing under chaos ------------------------------------------------------


class TestTracingChaos:
    """The flight recorder's no-silent-span-loss guarantees: crashed
    workers' spans survive on disk and reach the parent on retry, and an
    injected ``telemetry.trace`` fault drops spans without ever touching
    simulation results."""

    @pytest.fixture(autouse=True)
    def _traced(self, monkeypatch, tmp_path, cache_env):
        from repro.telemetry import trace as tracing

        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "spans"))
        tracing.reload()
        tracing.recorder.clear()
        yield tmp_path / "spans"
        tracing.recorder.clear()
        os.environ.pop("REPRO_TRACE", None)
        os.environ.pop("REPRO_TRACE_DIR", None)
        tracing.reload()

    @FORK_ONLY
    def test_crashed_worker_spans_reach_parent_and_disk(self, _traced):
        from repro.telemetry import timeline
        from repro.telemetry import trace as tracing

        # Unique length so no earlier test warmed the in-process memo:
        # the whole sim.* span tree must really run in the workers.
        jobs = make_jobs(length=3_100)
        arm("seed=7;batch.worker=crash:a=1")
        report = run_batch_report(jobs, processes=2, config=FAST)
        assert all(o.status == "retried" for o in report.outcomes)
        # Every job's successful attempt shipped its spans back to the
        # parent recorder despite the first-attempt crashes...
        recorded = tracing.recorder.spans()
        job_spans = [s for s in recorded if s.name == "batch.job"]
        assert sorted(s.attributes["index"] for s in job_spans) == [0, 1]
        assert all(s.attributes["attempt"] == 2 for s in job_spans)
        assert {s.name for s in recorded} >= {
            "batch.run",
            "batch.job",
            "sim.run",
            "sim.kernel",
            "sim.cache",
        }
        # ...and the same spans are on disk (spilled at their origin
        # before the result message was even sent): no silent span loss.
        spilled = timeline.load_dir(_traced)
        spilled_ids = {s.span_id for s in spilled}
        for span in recorded:
            assert span.span_id in spilled_ids
        # One trace covers supervisor and both (respawned) workers.
        assert len({s.trace_id for s in recorded}) == 1
        assert len({s.pid for s in recorded}) >= 2
        # And the chaos run changed no simulation result.
        disarm()
        assert report.results == run_batch(jobs, processes=1)

    def test_injected_trace_fault_drops_spans_not_results(self):
        from repro.telemetry import trace as tracing

        jobs = make_jobs()
        disarm()
        baseline = run_batch(jobs, processes=1)
        tracing.recorder.clear()
        before_dropped = tracing.recorder.dropped
        arm("seed=11;telemetry.trace=exc:p=1")
        assert run_batch(jobs, processes=1) == baseline
        assert tracing.recorder.dropped > before_dropped
        assert tracing.recorder.spans() == []
