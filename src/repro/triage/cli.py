"""The ``repro triage`` subcommand: run a campaign and triage its output.

    repro triage kernel:radix --fault flip -n 400          # text report
    repro triage kernel:radix -n 400 --format json
    repro triage kernel:radix -n 400 --jobs 4 -o report.json --format json
    repro triage kernel:radix -n 400 --baseline .github/triage-baseline.json
    repro triage kernel:radix -n 400 --update-baseline

Campaign arguments are exactly those of ``repro inject`` / ``repro
serve submit`` (one shared :class:`repro.CampaignSpec` translation).
Telemetry defaults to *on* — triage wants the event subtraces and the
performance arm — and can be dropped with ``--no-telemetry``.

With ``--baseline``, the run fails (exit 1) only on failure modes
beyond the baseline: a cluster hash the baseline has never seen, or a
performance anomaly at a (class, thread, metric) the baseline does not
carry.  ``--update-baseline`` regenerates the baseline file atomically.
Exit status: 0 — clean, 1 — drift beyond the baseline, 2 — usage or
I/O problems.  Reports are deterministic: byte-identical under any
``--jobs`` value.
"""

from __future__ import annotations

from typing import Dict

from repro.cliutil import DriftGate, add_shared_options

DEFAULT_TRIAGE_BASELINE = ".github/triage-baseline.json"


def _triage_keys(payload: dict) -> Dict:
    """Cluster hashes (to their clusters), then the perf anomaly
    coordinates ``(class rank, thread, metric)``, sorted."""
    keys: Dict = {cluster["hash"]: cluster
                  for cluster in payload.get("clusters", ())}
    anomalies = sorted((entry["rank"], anomaly["tid"], anomaly["metric"])
                       for entry in payload.get("perf", {}).get("classes", ())
                       for anomaly in entry.get("anomalies", ()))
    keys.update(dict.fromkeys(anomalies))
    return keys


def _describe(key, _old, cluster) -> str:
    if cluster is None:
        return "new perf anomaly: class %d thread %d metric %s" % key
    rep = cluster["representative"]
    return ("new failure mode %s... (%dx %s at %s; rep inj %d: %s)"
            % (key[:12], cluster["members"], cluster["outcome"],
               cluster["site"], rep["injection"],
               rep["detail"] or "(no detail)"))


TRIAGE_GATE = DriftGate(
    what="triage baseline", default=DEFAULT_TRIAGE_BASELINE,
    baseline_help="previous JSON report; fail only on failure modes or "
                  "perf anomalies beyond it",
    keys=_triage_keys, describe=_describe,
    header="%d finding(s) beyond baseline:")


def cmd_triage(args) -> int:
    from repro.cliutil import campaign_spec_from_args
    from repro.errors import UsageError
    from repro.faults.campaign import run_campaign
    from repro.store import open_store
    from repro.triage import triage_campaign

    store = open_store(args.store)
    spec = campaign_spec_from_args(args).replace(
        telemetry=not args.no_telemetry)
    try:
        result = run_campaign(spec, jobs=args.jobs, store=store,
                              keep_records=True)
        report = triage_campaign(result, spec=spec, store=store,
                                 merge_distance=args.merge_distance)
    except Exception as exc:
        raise UsageError("triage failed: %s" % exc) from None
    payload = report.to_dict()
    return TRIAGE_GATE.finish(args, payload,
                              lambda: report.render_text() + "\n",
                              "%d cluster(s)" % payload["summary"]["clusters"])


def register(sub) -> None:
    """The ``triage`` subcommand."""
    parser = sub.add_parser(
        "triage", help="run a campaign and triage its failure modes",
        description="Run a fault-injection campaign and report its "
                    "clustered failure modes plus similarity-based "
                    "performance anomalies.")
    add_shared_options(parser, "program", "inputs", "campaign")
    parser.add_argument("--no-telemetry", action="store_true",
                        help="skip per-injection event traces (loses the "
                             "trace witness tokens and the performance "
                             "arm)")
    parser.add_argument("--merge-distance", type=int, default=1,
                        metavar="D",
                        help="merge witness buckets within D token edits "
                             "of a same-site bucket (default: 1; 0 = "
                             "exact-hash clusters only)")
    TRIAGE_GATE.add_options(parser)
    add_shared_options(parser, "jobs", "opt", "store")
    parser.set_defaults(func=cmd_triage)
