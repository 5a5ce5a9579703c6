"""Resume identity: a resumed campaign is indistinguishable from an
uninterrupted one.

Two interruption models are exercised against the acceptance criterion
(stats, per-injection records, and event trace — wall-clock timers
excluded — identical to the same-seed uninterrupted run):

* a journal truncated in-process, including a torn final line, the
  deterministic stand-in for any crash point; and
* a real ``SIGKILL`` delivered to a ``repro inject`` subprocess
  mid-campaign (the radix kernel), resumed with ``--resume``.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.errors import PlanMismatchError, StoreError
from repro.faults import CampaignSpec, run_campaign
from repro.runtime import ParallelProgram
from repro.splash2 import kernel
from tests.conftest import FIGURE_1, figure1_setup

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def run(program, journal=None, resume=False, telemetry=True, **overrides):
    knobs = dict(fault="flip", nthreads=4, injections=12, seed=9,
                 output_globals=("result",), telemetry=telemetry,
                 journal=journal, resume=resume)
    knobs.update(overrides)
    spec = repro.BlockWatch.from_program(program).spec(**knobs)
    return run_campaign(spec, program=program, setup=figure1_setup(4),
                        keep_records=True)


def record_view(record):
    return (record.spec, record.outcome, record.baseline_outcome,
            record.flipped_branch, record.detail)


def assert_identical(resumed, full):
    """The acceptance check: stats, records, events — timers excluded."""
    assert resumed.stats.counts == full.stats.counts
    assert resumed.stats.baseline_counts == full.stats.baseline_counts
    assert ([record_view(r) for r in resumed.records]
            == [record_view(r) for r in full.records])
    if full.telemetry is not None:
        assert resumed.telemetry.events == full.telemetry.events
        full_counters = {k: v for k, v in full.telemetry.counters.items()
                         if not k.startswith("store.")}
        resumed_counters = {k: v
                            for k, v in resumed.telemetry.counters.items()
                            if not k.startswith("store.")}
        assert resumed_counters == full_counters


def truncate_journal(path, keep_records, torn_bytes=0):
    """Keep the header plus ``keep_records`` lines; optionally append the
    torn prefix of the next line, imitating a kill mid-``write``."""
    lines = open(path).read().splitlines()
    kept = lines[:1 + keep_records]
    with open(path, "w") as handle:
        handle.write("\n".join(kept) + "\n")
        if torn_bytes:
            handle.write(lines[1 + keep_records][:torn_bytes])


class TestResumeIdentity:
    @pytest.fixture(scope="class")
    def program(self):
        return ParallelProgram(FIGURE_1, "figure1")

    @pytest.fixture(scope="class")
    def full(self, program, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("full") / "journal.jsonl")
        return run(program, journal=path)

    def test_truncated_journal_resume_matches(self, program, full,
                                              tmp_path):
        path = str(tmp_path / "journal.jsonl")
        run(program, journal=path)
        truncate_journal(path, keep_records=5, torn_bytes=40)
        resumed = run(program, journal=path, resume=True)
        assert_identical(resumed, full)
        hits = resumed.telemetry.counters
        assert hits["store.journal.replayed"] == 5
        assert hits["store.journal.partial_tail_dropped"] == 1
        assert hits["store.journal.appended"] == 7

    def test_every_reported_chunk_is_on_disk(self, tmp_path):
        """The journal commits a chunk before the progress callback
        reports it, at one line per injection after the header."""
        path = str(tmp_path / "journal.jsonl")
        spec = CampaignSpec.for_kernel("radix", injections=8, nthreads=2,
                                       seed=3, journal=path)
        seen = []

        def progress(done, total, _seconds):
            with open(path) as handle:
                seen.append((done, sum(1 for _ in handle) - 1))

        run_campaign(spec, jobs=2, progress=progress)
        assert len(seen) > 1
        assert all(done == lines for done, lines in seen), seen

    def test_header_only_resume_matches(self, program, full, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        run(program, journal=path)
        truncate_journal(path, keep_records=0)
        resumed = run(program, journal=path, resume=True)
        assert_identical(resumed, full)

    def test_complete_journal_resume_is_noop(self, program, full,
                                             tmp_path):
        path = str(tmp_path / "journal.jsonl")
        run(program, journal=path)
        resumed = run(program, journal=path, resume=True)
        assert_identical(resumed, full)
        assert resumed.telemetry.counters["store.journal.replayed"] == 12

    def test_existing_journal_without_resume_refused(self, program,
                                                     tmp_path):
        path = str(tmp_path / "journal.jsonl")
        run(program, journal=path, telemetry=False, injections=2)
        with pytest.raises(StoreError):
            run(program, journal=path, telemetry=False, injections=2)

    def test_resume_rejects_changed_seed(self, program, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        run(program, journal=path, telemetry=False, injections=2)
        with pytest.raises(PlanMismatchError) as info:
            run(program, journal=path, resume=True, telemetry=False,
                injections=2, seed=10)
        assert "seed" in str(info.value)

    def test_resume_rejects_changed_program(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        run(ParallelProgram(FIGURE_1, "figure1"), journal=path,
            telemetry=False, injections=2)
        other = ParallelProgram(FIGURE_1 + "\n", "fig1b")
        with pytest.raises(PlanMismatchError):
            run(other, journal=path, resume=True, telemetry=False,
                injections=2)


@pytest.mark.slow
class TestSigkillResume:
    """The end-to-end acceptance scenario: kill -9 a radix campaign,
    resume it, and compare against the uninterrupted same-seed run."""

    NTHREADS = 2
    INJECTIONS = 40
    SEED = 2026

    def cli(self, journal, resume=False):
        argv = [sys.executable, "-m", "repro", "inject",
                "kernel:radix", "-t", str(self.NTHREADS),
                "-n", str(self.INJECTIONS), "--seed", str(self.SEED),
                "--journal", journal]
        if resume:
            argv.append("--resume")
        env = dict(os.environ, PYTHONPATH=SRC_ROOT)
        env.pop("REPRO_JOBS", None)  # serial: kill loses at most one
        env.pop("REPRO_STORE", None)
        return argv, env

    def journal_lines(self, path):
        if not os.path.exists(path):
            return 0
        with open(path) as handle:
            return sum(1 for _ in handle)

    def spec(self):
        # What ``repro inject kernel:radix`` builds: the kernel's
        # output globals, no SDC quantization.
        return CampaignSpec.build(
            "kernel:radix", fault="flip", nthreads=self.NTHREADS,
            injections=self.INJECTIONS, seed=self.SEED)

    def run(self, spec):
        radix = kernel("radix")
        return run_campaign(spec, program=radix.program(),
                            setup=radix.setup(self.NTHREADS),
                            keep_records=True)

    def test_sigkill_then_resume_matches(self, tmp_path):
        journal = str(tmp_path / "radix.jsonl")
        argv, env = self.cli(journal)
        proc = subprocess.Popen(argv, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        try:
            deadline = time.time() + 120
            # Wait for a handful of checkpointed injections, then kill
            # hard mid-campaign.
            while self.journal_lines(journal) < 6:
                assert proc.poll() is None, \
                    "campaign finished before it could be killed"
                assert time.time() < deadline, "no journal progress"
                time.sleep(0.05)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        interrupted = self.journal_lines(journal) - 1
        assert 0 < interrupted < self.INJECTIONS

        result = subprocess.run(self.cli(journal, resume=True)[0],
                                env=env, capture_output=True, text=True,
                                timeout=300)
        assert result.returncode == 0, result.stderr
        assert "journal: %s (resumed)" % journal in result.stdout

        # The resumed journal replays into exactly the uninterrupted
        # campaign: same stats, same per-injection records.
        full = self.run(self.spec())
        resumed = self.run(self.spec().replace(journal=journal, resume=True))
        assert resumed.telemetry is None is full.telemetry
        assert_identical(resumed, full)
        assert len(resumed.records) == self.INJECTIONS
