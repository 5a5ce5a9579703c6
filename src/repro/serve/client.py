"""Blocking client for the campaign fabric.

Connection-per-request over plain sockets: every call opens a fresh
TCP connection, sends one NDJSON request line, and reads the response.
That makes the client naturally tolerant of server restarts —
:meth:`ServeClient.wait` keeps polling through connection errors, so a
campaign submitted before a server was SIGKILLed is picked up again
(resumed from its journal) after a new server starts on the same store.

    client = ServeClient(port=port)
    job_id = client.submit(spec, shards=4)
    client.wait(job_id)
    result = client.fetch(job_id)      # a repro.CampaignResult
"""

from __future__ import annotations

import socket
import time
from typing import Iterator, List, Optional

from repro.errors import ServeError
from repro.faults.spec import CampaignSpec
from repro.serve import protocol
from repro.store.serialize import result_from_dict


class ServeClient:
    """Talk to one ``repro serve`` endpoint."""

    def __init__(self, host: str = "127.0.0.1",
                 port: int = protocol.DEFAULT_PORT,
                 timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    # -- transport --------------------------------------------------------

    def call(self, op: str, **fields) -> dict:
        """One request/response round trip; raises :class:`ServeError`
        on protocol errors and on ``{"ok": false}`` responses."""
        request = {"op": op, "v": protocol.PROTOCOL_VERSION}
        request.update(fields)
        with socket.create_connection((self.host, self.port),
                                      timeout=self.timeout) as conn:
            conn.sendall(protocol.encode(request))
            response = protocol.decode(self._read_line(conn))
        if not response.get("ok"):
            raise ServeError(response.get("error", "request failed"))
        return response

    @staticmethod
    def _read_line(conn: socket.socket) -> bytes:
        chunks: List[bytes] = []
        size = 0
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            size += len(chunk)
            if chunk.endswith(b"\n") or size > protocol.MAX_LINE:
                break
        line = b"".join(chunks)
        if not line:
            raise ServeError("server closed the connection without a "
                             "response")
        return line

    # -- operations -------------------------------------------------------

    def ping(self) -> dict:
        return self.call("ping")

    def submit(self, spec: CampaignSpec, tenant: str = "default",
               shards: Optional[int] = None) -> str:
        """Submit a campaign; returns the job id.

        The client sends its own plan hash alongside the spec; the
        server re-derives it from the decoded spec and rejects the job
        on any disagreement.
        """
        response = self.call("submit", spec=spec.to_dict(),
                             spec_hash=spec.plan_hash, tenant=tenant,
                             shards=shards)
        return response["job"]["job_id"]

    def status(self, job_id: Optional[str] = None) -> dict:
        if job_id is None:
            return self.call("status")["server"]
        return self.call("status", job_id=job_id)["job"]

    def jobs(self) -> List[dict]:
        return self.call("jobs")["jobs"]

    def fetch_raw(self, job_id: str) -> dict:
        return self.call("fetch", job_id=job_id)["result"]

    def fetch(self, job_id: str):
        """The finished job's :class:`repro.CampaignResult`."""
        return result_from_dict(self.fetch_raw(job_id))

    def golden(self, job_id: str) -> dict:
        return self.call("golden", job_id=job_id)["golden"]

    def telemetry(self, job_id: str) -> Optional[dict]:
        return self.call("telemetry", job_id=job_id)["telemetry"]

    def triage(self, job_id: str) -> dict:
        """The server-side clustered triage report of a finished job
        (a :class:`repro.triage.TriageReport` payload dict)."""
        return self.call("triage", job_id=job_id)["triage"]

    def drain(self) -> dict:
        return self.call("drain")

    # -- waiting ----------------------------------------------------------

    def wait(self, job_id: str, timeout: Optional[float] = None,
             poll: float = 0.2) -> dict:
        """Poll until the job reaches a terminal state; returns its
        final summary.

        Connection errors are retried, not raised: a server that was
        killed mid-campaign comes back (on the same store) with the job
        re-enqueued, so the sensible client behavior is to keep asking.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                job = self.status(job_id)
                if job["state"] in protocol.TERMINAL_STATES:
                    return job
            except (ConnectionError, OSError, ServeError) as exc:
                # ServeError("unknown job ...") can happen transiently
                # while a restarted server is still rescanning; every
                # other ServeError here is also safest retried under
                # the caller's deadline.
                if deadline is not None and time.monotonic() > deadline:
                    raise ServeError(
                        "timed out waiting for job %s (%s)"
                        % (job_id, exc))
            if deadline is not None and time.monotonic() > deadline:
                raise ServeError("timed out waiting for job %s" % job_id)
            time.sleep(poll)

    def watch(self, job_id: str) -> Iterator[dict]:
        """Stream the server's progress events for one job (ends with
        the ``{"event": "end"}`` message)."""
        request = {"op": "watch", "v": protocol.PROTOCOL_VERSION,
                   "job_id": job_id}
        with socket.create_connection((self.host, self.port),
                                      timeout=self.timeout) as conn:
            conn.sendall(protocol.encode(request))
            buffer = b""
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    return
                buffer += chunk
                while b"\n" in buffer:
                    line, buffer = buffer.split(b"\n", 1)
                    message = protocol.decode(line)
                    if message.get("ok") is False:
                        raise ServeError(message.get("error",
                                                     "watch failed"))
                    yield message
                    if message.get("event") == "end":
                        return
