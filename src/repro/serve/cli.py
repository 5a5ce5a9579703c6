"""``repro serve``: run and talk to a campaign-fabric server.

    repro serve start --store /tmp/store --port 7212
    repro serve submit kernel:radix --fault flip -n 100 -j 4 --wait
    repro serve status [JOB]
    repro serve jobs
    repro serve fetch JOB
    repro serve triage JOB
    repro serve drain

``submit`` accepts exactly the campaign arguments ``repro inject``
does — both translate through the same
:func:`repro.cliutil.campaign_spec_from_args` into one canonical
:class:`repro.CampaignSpec`, so a spec printed by one tool is
submittable by the other and hashes identically on both ends.  A
refused connection or a request the server rejects is one ``error:``
line and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.cliutil import add_shared_options, campaign_spec_from_args
from repro.errors import UsageError
from repro.serve.protocol import DEFAULT_PORT


def _client(args):
    from repro.serve.client import ServeClient
    return ServeClient(host=args.host, port=args.port)


def _endpoint_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1",
                        help="server address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help="server port (default: %d)" % DEFAULT_PORT)


def cmd_start(args) -> int:
    from repro.serve.scheduler import ServeConfig
    from repro.serve.server import run_server
    from repro.store import open_store

    store = open_store(args.store)
    if store is None:
        raise UsageError("serve needs a store root (--store or "
                         "$REPRO_STORE)")
    config = ServeConfig(store_root=store.root,
                         queue_size=args.queue_size,
                         max_running=args.max_running,
                         shards=args.jobs,
                         quota_bytes=args.quota_bytes)
    return run_server(config, host=args.host, port=args.port)


def cmd_submit(args) -> int:
    spec = campaign_spec_from_args(args)
    if args.telemetry:
        spec = spec.replace(telemetry=True)
    client = _client(args)
    job_id = client.submit(spec, tenant=args.tenant, shards=args.jobs)
    print("submitted %s (plan %s...)" % (job_id, spec.plan_hash[:12]))
    if not args.wait:
        return 0
    job = client.wait(job_id)
    print("job %s: %s" % (job_id, job["state"]))
    if job["state"] != "done":
        if job.get("error"):
            print("error: %s" % job["error"], file=sys.stderr)
        return 1
    result = client.fetch(job_id)
    print(_render_stats(result.stats))
    return 0


def _render_stats(stats) -> str:
    lines = ["  %-14s %d" % (outcome.value, count)
             for outcome, count in sorted(stats.counts.items(),
                                          key=lambda kv: kv[0].value)]
    return "\n".join(["outcomes:"] + lines)


def cmd_status(args) -> int:
    print(json.dumps(_client(args).status(args.job_id), indent=2,
                     sort_keys=True))
    return 0


def cmd_jobs(args) -> int:
    jobs = _client(args).jobs()
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        print("%-40s %-12s %5d/%-5d %s"
              % (job["job_id"], job["state"], job["done"], job["total"],
                 job.get("error") or ""))
    return 0


def _write(text: str, out: str) -> None:
    """``text`` to the file ``out``, or to stdout for ``-``."""
    if out and out != "-":
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        print("wrote %s" % out)
    else:
        print(text)


def cmd_fetch(args) -> int:
    payload = _client(args).fetch_raw(args.job_id)
    _write(json.dumps(payload, indent=2, sort_keys=True), args.out)
    return 0


def cmd_triage(args) -> int:
    payload = _client(args).triage(args.job_id)
    if args.json:
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        from repro.triage import TriageReport
        text = TriageReport.from_dict(payload).render_text()
    _write(text, args.out)
    return 0


def cmd_drain(args) -> int:
    _client(args).drain()
    print("draining; unfinished jobs resume when the server restarts")
    return 0


def register(sub) -> None:
    """The ``serve`` subcommand and its own subcommands."""
    serve = sub.add_parser(
        "serve", help="serve and submit campaigns over TCP",
        description="Serve and submit BLOCKWATCH fault-injection "
                    "campaigns over TCP (newline-delimited JSON).")
    sub = serve.add_subparsers(dest="serve_command", required=True,
                               metavar="COMMAND")

    p_start = sub.add_parser("start", help="run a campaign server")
    _endpoint_options(p_start)
    add_shared_options(p_start, "jobs", "store",
                       jobs_help="default worker processes per campaign "
                                 "(clients may request their own)")
    p_start.add_argument("--queue-size", type=int, default=8,
                         metavar="N",
                         help="bounded admission queue; a full queue "
                              "rejects submits (default: 8)")
    p_start.add_argument("--max-running", type=int, default=1,
                         metavar="N",
                         help="concurrent campaigns (default: 1; each "
                              "already fans across processes)")
    p_start.add_argument("--quota-bytes", type=int, default=None,
                         metavar="BYTES",
                         help="per-tenant store budget for finished "
                              "jobs; LRU results+journals are evicted "
                              "past it (default: unlimited)")
    p_start.set_defaults(func=cmd_start)

    p_submit = sub.add_parser(
        "submit", help="submit a campaign (same arguments as "
                       "repro inject)")
    _endpoint_options(p_submit)
    add_shared_options(p_submit, "program", "inputs", "campaign")
    p_submit.add_argument("--telemetry", action="store_true",
                          help="collect and merge campaign telemetry "
                               "into the stored result")
    add_shared_options(p_submit, "jobs", "opt",
                       jobs_help="worker processes the server should "
                                 "shard this campaign across")
    p_submit.add_argument("--tenant", default="default",
                          help="quota accounting bucket")
    p_submit.add_argument("--wait", action="store_true",
                          help="block until the job finishes and print "
                               "its outcome census")
    p_submit.set_defaults(func=cmd_submit)

    p_status = sub.add_parser("status",
                              help="one job's state, or the server's")
    _endpoint_options(p_status)
    p_status.add_argument("job_id", nargs="?", default=None)
    p_status.set_defaults(func=cmd_status)

    p_jobs = sub.add_parser("jobs", help="list all jobs")
    _endpoint_options(p_jobs)
    p_jobs.set_defaults(func=cmd_jobs)

    p_fetch = sub.add_parser("fetch", help="download a finished "
                                           "result as JSON")
    _endpoint_options(p_fetch)
    p_fetch.add_argument("job_id")
    p_fetch.add_argument("-o", "--out", default="-",
                         metavar="FILE", help="destination "
                         "(default: stdout)")
    p_fetch.set_defaults(func=cmd_fetch)

    p_triage = sub.add_parser(
        "triage", help="fetch a finished job's clustered triage report")
    _endpoint_options(p_triage)
    p_triage.add_argument("job_id")
    p_triage.add_argument("--json", action="store_true",
                          help="print the raw report payload instead of "
                               "the text rendering")
    p_triage.add_argument("-o", "--out", default="-", metavar="FILE",
                          help="destination (default: stdout)")
    p_triage.set_defaults(func=cmd_triage)

    p_drain = sub.add_parser(
        "drain", help="gracefully stop the server (jobs checkpoint and "
                      "resume on restart)")
    _endpoint_options(p_drain)
    p_drain.set_defaults(func=cmd_drain)
