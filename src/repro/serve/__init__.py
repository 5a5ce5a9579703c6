"""Distributed campaign fabric: serve fault-injection campaigns over TCP.

A ``repro serve`` server accepts :class:`repro.CampaignSpec` jobs over
a newline-delimited-JSON protocol, shards each campaign's injection
range across local worker processes, checkpoints every completed
injection to a crash-safe journal in its artifact store, and serves
results, golden fingerprints, and merged telemetry back out of that
store.  Because the campaign engine derives every fault from
``(base_seed, injection_index)``, a served campaign — at any shard
count, even killed and resumed by a different server process — is
bit-identical to a serial :func:`repro.run_campaign` of the same spec.

See ``docs/INTERNALS.md`` §15 for the protocol, backpressure, and
quota semantics.
"""

from repro.serve.client import ServeClient
from repro.serve.protocol import (
    DEFAULT_PORT,
    MAX_LINE,
    PROTOCOL_VERSION,
    TERMINAL_STATES,
)
from repro.serve.scheduler import CampaignScheduler, Job, ServeConfig
from repro.serve.server import CampaignServer, ServerThread, run_server

__all__ = [
    "DEFAULT_PORT", "MAX_LINE", "PROTOCOL_VERSION", "TERMINAL_STATES",
    "CampaignScheduler", "CampaignServer", "Job", "ServeClient",
    "ServeConfig", "ServerThread", "run_server",
]
