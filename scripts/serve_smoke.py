#!/usr/bin/env python3
"""CI smoke: kill a campaign server mid-run; the result must not care.

Starts a real ``repro serve`` server process, submits a sharded radix
campaign, SIGKILLs the server once a few injections are journaled,
restarts it on the same store, and asserts the finished
``CampaignResult`` — stats, per-injection records — equals the serial
``run_campaign`` baseline computed in this process.

Run from the repo root (CI's ``serve-smoke`` job):

    python scripts/serve_smoke.py
"""

import os
import re
import signal
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.faults import CampaignSpec, run_campaign  # noqa: E402
from repro.serve import ServeClient  # noqa: E402
from repro.store.artifacts import ArtifactStore  # noqa: E402

INJECTIONS = 40
SPEC = dict(fault="flip", injections=INJECTIONS, nthreads=2, seed=2026)


def start_server(root):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    env.pop("REPRO_JOBS", None)
    env.pop("REPRO_STORE", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "start",
         "--store", root, "--port", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True)
    line = proc.stdout.readline()
    match = re.search(r"listening on [\d.]+:(\d+)", line)
    if not match:
        raise SystemExit("server did not report its port: %r" % line)
    port = int(match.group(1))
    print("server pid %d on port %d" % (proc.pid, port))
    return proc, port


def journal_lines(path):
    if not os.path.exists(path):
        return 0
    with open(path) as handle:
        return sum(1 for _ in handle)


def main():
    spec = CampaignSpec.for_kernel("radix", **SPEC)
    print("plan hash %s" % spec.plan_hash)

    with tempfile.TemporaryDirectory(prefix="serve-smoke-") as tmp:
        baseline_store = ArtifactStore(os.path.join(tmp, "baseline"))
        baseline = run_campaign(spec, store=baseline_store,
                                keep_records=True)
        print("serial baseline: %s" % baseline.stats.counts)

        root = os.path.join(tmp, "store")
        proc, port = start_server(root)
        client = ServeClient(port=port)
        job_id = client.submit(spec, shards=2)
        print("submitted %s (2 shards)" % job_id)

        journal = ArtifactStore(root).journal_path("serve-" + job_id)
        deadline = time.time() + 300
        while journal_lines(journal) < 6:
            if proc.poll() is not None:
                raise SystemExit("server died before it could be killed")
            if time.time() > deadline:
                raise SystemExit("no journal progress within deadline")
            time.sleep(0.05)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
        checkpointed = journal_lines(journal) - 1
        print("SIGKILLed server with %d/%d injections journaled"
              % (checkpointed, INJECTIONS))
        assert 0 < checkpointed < INJECTIONS

        proc, port = start_server(root)
        try:
            client = ServeClient(port=port)
            final = client.wait(job_id, timeout=300)
            assert final["state"] == "done", final
            served = client.fetch(job_id)
        finally:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()

        assert served.stats.counts == baseline.stats.counts, (
            served.stats.counts, baseline.stats.counts)
        assert len(served.records) == len(baseline.records) == INJECTIONS
        for ours, theirs in zip(served.records, baseline.records):
            assert (ours.spec, ours.outcome, ours.detail) \
                == (theirs.spec, theirs.outcome, theirs.detail)
        print("served result identical to serial baseline: %s"
              % served.stats.counts)
        print("serve smoke OK")


if __name__ == "__main__":
    main()
