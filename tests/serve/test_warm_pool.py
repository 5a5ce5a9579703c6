"""Warm campaign workers: campaigns run back to back on one long-lived
:class:`WorkerPool` give what ``run_campaign(jobs=1)`` gives, and the
server's pool survives failed jobs and goes away with the server.

Figure-1 specs of one seed share a program and a golden key, so later
campaigns on the pool find both in the workers' store LRUs.
"""

import multiprocessing
import os

import pytest

from repro.faults import CampaignSpec, run_campaign
from repro.faults import campaign as campaign_module
from repro.parallel import WorkerPool
from repro.serve import ServeClient, ServeConfig, ServerThread, protocol
from repro.store import store_for
from tests.serve.test_serve import client_free_state, figure1_spec

#: The real worker-side factory, for the patched ones below.
_REAL_CONTEXT_IN_WORKER = campaign_module._context_in_worker

#: Seed of the spec whose worker-side context build fails.
BROKEN_SEED = 666


def _failing_for_broken_seed(light, spec, store_root):
    if spec.seed == BROKEN_SEED:
        raise RuntimeError("worker cannot build seed %d" % spec.seed)
    return _REAL_CONTEXT_IN_WORKER(light, spec, store_root)


def rows(result):
    return [(r.spec, r.outcome, r.baseline_outcome, r.flipped_branch,
             r.detail) for r in result.records]


def assert_same_result(got, want):
    assert got.stats.counts == want.stats.counts
    assert got.stats.baseline_counts == want.stats.baseline_counts
    assert rows(got) == rows(want)
    assert got.stratified == want.stratified
    assert got.thread_classes == want.thread_classes
    if want.telemetry is None:
        assert got.telemetry is None
        return
    for part in ("counters", "gauges", "hists", "events"):
        assert getattr(got.telemetry, part) == getattr(want.telemetry, part)


@pytest.fixture
def pool():
    pool = WorkerPool(2)
    yield pool
    pool.close()
    assert multiprocessing.active_children() == []


class TestWarmIdentity:
    SPECS = [
        figure1_spec(fault="flip"),
        figure1_spec(fault="condition"),
        figure1_spec(fault="flip", telemetry=True),
        figure1_spec(fault="condition", telemetry=True),
        figure1_spec(fault="condition", plan="stratified", injections=10),
        # The first spec again, now with warm workers.
        figure1_spec(fault="flip"),
        # Radix golden runs take checkpoints, which the trials resume
        # from; with telemetry they must carry the prefix metrics.
        CampaignSpec.for_kernel("radix", fault="condition", injections=8,
                                nthreads=4, seed=5),
        CampaignSpec.for_kernel("radix", fault="condition", injections=8,
                                nthreads=4, seed=5, telemetry=True),
    ]

    def test_back_to_back_campaigns_match_serial(self, pool, tmp_path):
        store = store_for(str(tmp_path / "store"))
        for spec in self.SPECS:
            warm = run_campaign(spec, jobs=2, store=store, pool=pool,
                                keep_records=True)
            assert_same_result(warm, run_campaign(spec, jobs=1,
                                                  keep_records=True))
        # Eight campaigns, one set of worker processes.
        assert len(multiprocessing.active_children()) == 2

    def test_drained_then_resumed_campaign_matches_serial(self, pool,
                                                          tmp_path):
        store = store_for(str(tmp_path / "store"))
        journal = str(tmp_path / "j.jsonl")
        spec = figure1_spec(fault="condition", telemetry=True,
                            injections=12)

        class Drained(Exception):
            pass

        def stop_after_first_chunk(done, total, _seconds):
            raise Drained()

        with pytest.raises(Drained):
            run_campaign(spec.replace(journal=journal), jobs=2, store=store,
                         pool=pool, progress=stop_after_first_chunk)
        with open(journal) as handle:
            assert 1 < len(handle.readlines()) < 1 + spec.injections
        resumed = run_campaign(spec.replace(journal=journal, resume=True),
                               jobs=2, store=store, pool=pool,
                               keep_records=True)
        full = run_campaign(spec, jobs=1, keep_records=True)
        assert resumed.stats.counts == full.stats.counts
        assert rows(resumed) == rows(full)
        assert resumed.telemetry.events == full.telemetry.events

    def test_pool_campaign_takes_no_program_or_setup(self, pool):
        spec = figure1_spec()
        with pytest.raises(ValueError, match="WorkerPool"):
            run_campaign(spec, jobs=2, pool=pool,
                         setup=spec.default_setup())

    def test_worker_with_another_golden_refuses_the_chunk(
            self, pool, tmp_path, monkeypatch):
        import repro.store.hashing as hashing
        real = hashing.golden_fingerprint
        parent = os.getpid()

        def drifted(*args):
            # The worker forks after this patch, so only its golden
            # runs take the other fingerprint.
            return real(*args) if os.getpid() == parent else "0" * 64

        monkeypatch.setattr(hashing, "golden_fingerprint", drifted)
        with pytest.raises(RuntimeError) as caught:
            run_campaign(figure1_spec(), jobs=2, pool=pool,
                         store=store_for(str(tmp_path / "store")))
        message = str(caught.value)
        assert "refuses the chunk" in message and "\n" not in message


class TestServerPool:
    def sharded(self, client, spec):
        job_id = client.submit(spec, shards=2)
        return job_id, client.wait(job_id, timeout=300)

    def test_failed_job_leaves_the_pool_usable(self, tmp_path, monkeypatch):
        monkeypatch.setattr(campaign_module, "_context_in_worker",
                            _failing_for_broken_seed)
        thread = ServerThread(ServeConfig(store_root=str(tmp_path / "s"),
                                          shards=2))
        thread.start()
        try:
            client = ServeClient(port=thread.port)
            _job, final = self.sharded(client, figure1_spec(seed=3))
            assert final["state"] == "done"
            workers = {p.pid for p in multiprocessing.active_children()}
            assert len(workers) == 2
            _job, failed = self.sharded(client,
                                        figure1_spec(seed=BROKEN_SEED))
            assert failed["state"] == "failed"
            assert "cannot build seed %d" % BROKEN_SEED in failed["error"]
            spec = figure1_spec(seed=4, fault="condition")
            job_id, final = self.sharded(client, spec)
            assert final["state"] == "done"
            assert rows(client.fetch(job_id)) == rows(
                run_campaign(spec, jobs=1, keep_records=True))
            assert {p.pid for p in
                    multiprocessing.active_children()} == workers
        finally:
            thread.stop()
        assert multiprocessing.active_children() == []

    def test_drain_terminates_the_pool(self, tmp_path):
        root = str(tmp_path / "s")
        thread = ServerThread(ServeConfig(store_root=root))
        thread.start()
        client = ServeClient(port=thread.port)
        _job, final = self.sharded(client, figure1_spec(seed=8))
        assert final["state"] == "done"
        assert multiprocessing.active_children()
        job_id = client.submit(figure1_spec(seed=9, injections=40),
                               shards=2)
        client.drain()
        thread._thread.join(timeout=60)
        assert not thread._thread.is_alive()
        assert multiprocessing.active_children() == []
        assert client_free_state(root, job_id) in (
            protocol.RESUMABLE_STATES + (protocol.DONE,))


class TestDurableWrites:
    def test_state_is_written_once_per_transition(self, tmp_path):
        thread = ServerThread(ServeConfig(store_root=str(tmp_path / "s")))
        thread.start()
        try:
            scheduler = thread.server.scheduler
            written = []
            persist = scheduler._persist

            def spy(staged):
                written.append((staged.job_id, staged.state))
                persist(staged)

            scheduler._persist = spy
            client = ServeClient(port=thread.port)
            job_id = client.submit(figure1_spec(seed=11, injections=12),
                                   shards=2)
            assert client.wait(job_id, timeout=300)["state"] == "done"
            client.fetch(job_id)
            client.triage(job_id)
            client.fetch(job_id)
        finally:
            thread.stop()
        assert written == [(job_id, protocol.QUEUED),
                           (job_id, protocol.RUNNING),
                           (job_id, protocol.DONE)]
