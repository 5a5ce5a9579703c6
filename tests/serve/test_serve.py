"""Campaign fabric acceptance: served campaigns are bit-identical to
serial ``run_campaign``, across shard counts, concurrent clients,
graceful drain/restart, and a real server SIGKILL.

The in-process tests run a :class:`ServerThread` against a tmp store;
the SIGKILL test (slow) runs ``python -m repro serve start`` as a real
subprocess, kills it mid-campaign, restarts it on the same store, and
compares the final result with the uninterrupted serial baseline.
"""

import asyncio
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.errors import ServeError
from repro.faults import CampaignSpec, run_campaign
from repro.serve import ServeClient, ServeConfig, ServerThread, protocol
from repro.serve.scheduler import CampaignScheduler, Job
from repro.store.artifacts import ArtifactStore
from tests.conftest import FIGURE_1
from tests.store.test_resume import record_view

SRC_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def figure1_spec(**overrides):
    base = dict(fault="flip", injections=8, nthreads=4, seed=9,
                output_globals=("result",),
                scalars=(("nprocs", 4),),
                arrays=(("gp", tuple([5, 40, 10, 40] * 16)),))
    base.update(overrides)
    return CampaignSpec.build(FIGURE_1, name="figure1", **base)


def assert_result_identical(served, baseline):
    assert served.stats.counts == baseline.stats.counts
    assert served.stats.baseline_counts == baseline.stats.baseline_counts
    assert ([record_view(r) for r in served.records]
            == [record_view(r) for r in baseline.records])


@pytest.fixture
def server(tmp_path):
    thread = ServerThread(ServeConfig(store_root=str(tmp_path / "store")))
    thread.start()
    yield thread
    thread.stop()


class TestServeIdentity:
    def test_served_campaign_matches_serial(self, server):
        spec = figure1_spec()
        baseline = run_campaign(spec, keep_records=True)
        client = ServeClient(port=server.port)
        job_id = client.submit(spec)
        final = client.wait(job_id, timeout=300)
        assert final["state"] == "done", final
        assert_result_identical(client.fetch(job_id), baseline)

    def test_sharded_submission_matches_serial(self, server):
        spec = figure1_spec(seed=13)
        baseline = run_campaign(spec, keep_records=True)
        client = ServeClient(port=server.port)
        job_id = client.submit(spec, shards=2)
        client.wait(job_id, timeout=300)
        assert_result_identical(client.fetch(job_id), baseline)

    def test_served_stratified_campaign_matches_serial(self, server):
        """The server journals every job; a stratified one journals
        like a full sweep."""
        spec = figure1_spec(seed=17, plan="stratified")
        baseline = run_campaign(spec, keep_records=True)
        client = ServeClient(port=server.port)
        job_id = client.submit(spec, shards=2)
        final = client.wait(job_id, timeout=300)
        assert final["state"] == "done", final
        served = client.fetch(job_id)
        assert_result_identical(served, baseline)
        assert served.stratified == baseline.stratified

    def test_submit_validates_spec_hash(self, server):
        spec = figure1_spec()
        client = ServeClient(port=server.port)
        with pytest.raises(ServeError, match="hash mismatch"):
            client.call("submit", spec=spec.to_dict(),
                        spec_hash="0" * 64)

    def test_golden_and_status_surfaces(self, server):
        spec = figure1_spec(seed=21)
        client = ServeClient(port=server.port)
        assert client.ping()["ok"]
        job_id = client.submit(spec)
        client.wait(job_id, timeout=300)
        golden = client.golden(job_id)
        assert golden["plan_hash"] == spec.plan_hash
        assert re.fullmatch("[0-9a-f]{64}", golden["golden_fingerprint"])
        status = client.status()
        assert status["counters"]["serve.completed"] >= 1
        assert any(j["job_id"] == job_id for j in client.jobs())

    def test_watch_streams_progress_to_end(self, server):
        spec = figure1_spec(seed=34)
        client = ServeClient(port=server.port)
        job_id = client.submit(spec)
        events = list(client.watch(job_id))
        assert events[-1]["event"] == "end"
        assert events[-1]["job"]["state"] == "done"


class TestTwoClientDeterminism:
    def test_concurrent_submissions_match_serial(self, server):
        """Two clients race their submissions; each served result is
        identical to its own serial baseline."""
        specs = [figure1_spec(seed=5), figure1_spec(seed=6)]
        baselines = [run_campaign(s, keep_records=True) for s in specs]
        results = [None, None]
        errors = []

        def submit_and_fetch(slot):
            try:
                client = ServeClient(port=server.port)
                job_id = client.submit(specs[slot],
                                       tenant="client-%d" % slot)
                client.wait(job_id, timeout=300)
                results[slot] = client.fetch(job_id)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=submit_and_fetch, args=(i,))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
        assert not errors, errors
        for result, baseline in zip(results, baselines):
            assert_result_identical(result, baseline)


class TestBackpressureAndQuota:
    def test_full_queue_rejects_submission(self, tmp_path):
        """With no workers draining it, a size-1 queue admits one job
        and rejects the second with a retryable error."""
        store = ArtifactStore(str(tmp_path / "store"))
        scheduler = CampaignScheduler(
            store, ServeConfig(store_root=store.root, queue_size=1))

        async def scenario():
            await scheduler.start(start_workers=False)
            spec = figure1_spec().to_dict()
            scheduler.submit(spec, None)
            with pytest.raises(ServeError, match="queue full"):
                scheduler.submit(spec, None)

        asyncio.run(scenario())

    def test_jobs_of_one_spec_share_it(self, tmp_path):
        """The job table keeps every job, so equal submissions share one
        spec object instead of each holding its decoded inputs."""
        store = ArtifactStore(str(tmp_path / "store"))
        scheduler = CampaignScheduler(
            store, ServeConfig(store_root=store.root, queue_size=4))

        async def scenario():
            await scheduler.start(start_workers=False)
            first = scheduler.submit(figure1_spec().to_dict(), None)
            again = scheduler.submit(figure1_spec().to_dict(), None)
            other = scheduler.submit(figure1_spec(seed=10).to_dict(), None)
            assert again.spec is first.spec
            assert other.spec is not first.spec
            assert other.spec == figure1_spec(seed=10)

        asyncio.run(scenario())

    def test_quota_evicts_lru_finished_job(self, tmp_path):
        thread = ServerThread(ServeConfig(
            store_root=str(tmp_path / "store"), quota_bytes=1))
        thread.start()
        try:
            client = ServeClient(port=thread.port)
            first = client.submit(figure1_spec(seed=41))
            client.wait(first, timeout=300)
            assert client.status(first)["state"] == "done"
            second = client.submit(figure1_spec(seed=42))
            client.wait(second, timeout=300)
            # A 1-byte budget keeps only the newest result.
            assert client.status(first)["state"] == "evicted"
            with pytest.raises(ServeError, match="evicted"):
                client.fetch_raw(first)
            assert client.fetch(second) is not None
            assert client.status()["counters"]["serve.evicted"] == 1
        finally:
            thread.stop()


class TestOversizedLine:
    def test_oversized_request_line_gets_an_error_reply(
            self, tmp_path, monkeypatch):
        """A request line over the stream limit is answered with one
        error line, and the server keeps serving."""
        monkeypatch.setattr(protocol, "MAX_LINE", 1024)
        thread = ServerThread(ServeConfig(store_root=str(tmp_path / "s")))
        thread.start()
        try:
            client = ServeClient(port=thread.port)
            with pytest.raises(ServeError,
                               match="protocol line exceeds 1024 bytes"):
                client.call("ping", pad="x" * 4096)
            assert client.ping()["ok"]
        finally:
            thread.stop()


class TestJobStateDurability:
    def test_fetch_right_after_watch_ends(self, server):
        """``watch`` reports the end only once the final state is on
        disk, so an immediate ``fetch`` never finds a job that is done
        in memory but not on disk."""
        client = ServeClient(port=server.port)
        for seed in range(30):
            job_id = client.submit(figure1_spec(seed=100 + seed,
                                                injections=2))
            events = list(client.watch(job_id))
            assert events[-1]["job"]["state"] == "done"
            assert client.fetch(job_id).stats.injections == 2

    def test_state_is_written_before_it_is_published(self, tmp_path):
        store = ArtifactStore(str(tmp_path / "store"))
        scheduler = CampaignScheduler(store,
                                      ServeConfig(store_root=store.root))
        spec = figure1_spec()
        job = Job(job_id="j1", tenant="t", spec=spec,
                  spec_hash=spec.plan_hash, shards=None)
        seen = []
        persist = scheduler._persist

        def spy(staged):
            seen.append((job.state, staged.state))
            persist(staged)

        scheduler._persist = spy
        scheduler._touch(job, state=protocol.DONE, result_key="r")
        assert seen == [(protocol.QUEUED, protocol.DONE)]
        assert job.state == protocol.DONE and job.result_key == "r"
        path = os.path.join(scheduler.jobs_dir, "j1.json")
        with open(path) as handle:
            assert '"state": "done"' in handle.read()


class TestDrainResume:
    def test_drain_then_restart_completes_identically(self, tmp_path):
        """A drained server leaves every unfinished job resumable; a
        new server on the same store finishes them bit-identically."""
        root = str(tmp_path / "store")
        spec = figure1_spec(seed=77, injections=12)
        baseline = run_campaign(spec, keep_records=True)

        thread = ServerThread(ServeConfig(store_root=root))
        thread.start()
        client = ServeClient(port=thread.port)
        job_id = client.submit(spec)
        # Drain immediately: the job is queued or just started; either
        # way its state file must survive and resume.
        client.drain()
        thread._thread.join(timeout=60)
        assert not thread._thread.is_alive()

        state = client_free_state(root, job_id)
        assert state in protocol.RESUMABLE_STATES

        second = ServerThread(ServeConfig(store_root=root))
        second.start()
        try:
            client = ServeClient(port=second.port)
            final = client.wait(job_id, timeout=300)
            assert final["state"] == "done"
            assert_result_identical(client.fetch(job_id), baseline)
            assert client.status()["counters"]["serve.resumed"] == 1
        finally:
            second.stop()


def client_free_state(root, job_id):
    """Read a job's persisted state straight from disk (no server)."""
    import json
    path = os.path.join(root, "serve", "jobs", job_id + ".json")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)["state"]


def start_server(root):
    """``python -m repro serve start`` on the store ``root``, as a
    subprocess; returns ``(process, port)``."""
    env = dict(os.environ, PYTHONPATH=SRC_ROOT)
    env.pop("REPRO_JOBS", None)
    env.pop("REPRO_STORE", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "start",
         "--store", root, "--port", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    line = proc.stdout.readline()
    match = re.search(r"listening on [\d.]+:(\d+)", line)
    assert match, "server did not report its port: %r" % line
    return proc, int(match.group(1))


class TestCommandRoundTrip:
    """``repro serve start`` -> ``submit --wait`` -> ``drain`` through
    the ``repro`` command."""

    def test_start_submit_wait_drain(self, tmp_path, capsys):
        from repro.cli import main
        args = ["kernel:radix", "-t", "2", "-n", "6", "--seed", "3"]
        proc, port = start_server(str(tmp_path / "store"))
        try:
            assert main(["serve", "submit"] + args
                        + ["--port", str(port), "--wait"]) == 0
            out = capsys.readouterr().out
            assert re.search(r"^job \S+: done$", out, re.M), out
            census = {outcome: int(count) for outcome, count
                      in re.findall(r"^  (\S+) +(\d+)$", out, re.M)}
            serial = run_campaign(CampaignSpec.build(
                "kernel:radix", nthreads=2, injections=6, seed=3))
            assert census == {outcome.value: count for outcome, count
                              in serial.stats.counts.items()}
            assert main(["serve", "drain", "--port", str(port)]) == 0
            assert proc.wait(timeout=60) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)


@pytest.mark.slow
class TestServerSigkillResume:
    """The acceptance scenario: SIGKILL the server mid-campaign,
    restart it on the same store, and the finished result equals the
    uninterrupted serial baseline."""

    NTHREADS = 2
    INJECTIONS = 40
    SEED = 2026

    def spec(self):
        return CampaignSpec.for_kernel(
            "radix", fault="flip", injections=self.INJECTIONS,
            nthreads=self.NTHREADS, seed=self.SEED)

    def journal_lines(self, path):
        if not os.path.exists(path):
            return 0
        with open(path) as handle:
            return sum(1 for _ in handle)

    def test_sigkill_mid_campaign_resumes_identically(self, tmp_path):
        root = str(tmp_path / "store")
        spec = self.spec()
        baseline = run_campaign(spec, store=ArtifactStore(
            str(tmp_path / "baseline-store")), keep_records=True)

        proc, port = start_server(root)
        killed = False
        try:
            client = ServeClient(port=port)
            job_id = client.submit(spec)
            journal = ArtifactStore(root).journal_path("serve-" + job_id)
            deadline = time.time() + 300
            # Wait for a few checkpointed injections, then kill hard.
            while self.journal_lines(journal) < 6:
                assert proc.poll() is None, "server died on its own"
                assert time.time() < deadline, "no journal progress"
                time.sleep(0.05)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            killed = True
            interrupted = self.journal_lines(journal) - 1
            assert 0 < interrupted < self.INJECTIONS
        finally:
            if not killed and proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        proc, port = start_server(root)
        try:
            client = ServeClient(port=port)
            final = client.wait(job_id, timeout=300)
            assert final["state"] == "done"
            served = client.fetch(job_id)
            assert len(served.records) == self.INJECTIONS
            assert_result_identical(served, baseline)
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
