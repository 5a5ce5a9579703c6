"""Asyncio TCP front end of the campaign fabric.

One connection, one request, one response (``watch`` streams progress
events before its final line).  All campaign work happens in the
scheduler's worker threads; the handlers here only translate protocol
messages into scheduler calls, so the server keeps answering ``status``
while injections grind.

Three ways to run it:

* :func:`run_server` — blocking, with SIGTERM/SIGINT wired to a
  graceful drain (the ``repro serve start`` command).
* :class:`CampaignServer` — the async object, for embedding.
* :class:`ServerThread` — an in-process server on a background thread
  (binds port 0 by default), for tests and notebooks.
"""

from __future__ import annotations

import asyncio
import signal
import threading
from typing import Optional

from repro.errors import ServeError
from repro.serve import protocol
from repro.serve.scheduler import CampaignScheduler, ServeConfig
from repro.store.runtime import store_for


async def _read_line(reader: asyncio.StreamReader) -> bytes:
    """One request line; :class:`ServeError` if it is over the limit."""
    try:
        return await reader.readline()
    except ValueError:  # how ``readline`` reports a line over the limit
        raise ServeError("protocol line exceeds %d bytes"
                         % protocol.MAX_LINE) from None


class CampaignServer:
    """The TCP server plus its scheduler; lives on one event loop."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.scheduler: Optional[CampaignScheduler] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopped = asyncio.Event()
        self.port: Optional[int] = None

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        store = store_for(self.config.store_root)
        self.scheduler = CampaignScheduler(store, self.config)
        await self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=protocol.MAX_LINE)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self, drain: bool = True) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if drain and self.scheduler is not None:
            await self.scheduler.drain()
        self._stopped.set()

    async def wait_stopped(self) -> None:
        await self._stopped.wait()

    # -- request handling -------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            try:
                line = await _read_line(reader)
                if not line:
                    return
                request = protocol.decode(line)
                op = protocol.check_request(request)
                await self._dispatch(op, request, writer)
            except ServeError as exc:
                writer.write(protocol.encode(protocol.error(str(exc))))
            await writer.drain()
        except ConnectionError:
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _dispatch(self, op: str, request: dict,
                        writer: asyncio.StreamWriter) -> None:
        scheduler = self.scheduler
        if op == "ping":
            writer.write(protocol.encode(protocol.ok(
                v=protocol.PROTOCOL_VERSION, server="repro serve")))
        elif op == "submit":
            spec_dict = request.get("spec")
            if not isinstance(spec_dict, dict):
                raise ServeError("submit requires a 'spec' object")
            try:
                job = scheduler.submit(
                    spec_dict, request.get("spec_hash"),
                    tenant=str(request.get("tenant") or "default"),
                    shards=request.get("shards"))
            except ValueError as exc:  # SpecError and friends
                raise ServeError("invalid spec: %s" % exc)
            writer.write(protocol.encode(protocol.ok(job=job.summary())))
        elif op == "status":
            job_id = request.get("job_id")
            if job_id is None:
                writer.write(protocol.encode(protocol.ok(
                    server=scheduler.server_status())))
            else:
                job = scheduler.get_job(str(job_id))
                writer.write(protocol.encode(protocol.ok(
                    job=job.summary())))
        elif op == "jobs":
            summaries = [job.summary() for job in sorted(
                scheduler.jobs.values(), key=lambda j: j.created)]
            writer.write(protocol.encode(protocol.ok(jobs=summaries)))
        elif op == "fetch":
            payload = scheduler.fetch(str(request.get("job_id")))
            writer.write(protocol.encode(protocol.ok(result=payload)))
        elif op == "golden":
            writer.write(protocol.encode(protocol.ok(
                golden=scheduler.golden(str(request.get("job_id"))))))
        elif op == "telemetry":
            writer.write(protocol.encode(protocol.ok(
                telemetry=scheduler.job_telemetry(
                    str(request.get("job_id"))))))
        elif op == "triage":
            # Triage may compile the program and replay one observation
            # run; off the event loop so status/watch stay responsive.
            report = await asyncio.get_running_loop().run_in_executor(
                None, scheduler.triage, str(request.get("job_id")))
            writer.write(protocol.encode(protocol.ok(triage=report)))
        elif op == "watch":
            await self._watch(str(request.get("job_id")), writer)
        elif op == "drain":
            writer.write(protocol.encode(protocol.ok(draining=True)))
            await writer.drain()
            # Stop accepting, checkpoint-stop running jobs, then let
            # run_server/ServerThread observe the stop and exit.
            asyncio.get_running_loop().create_task(self.stop(drain=True))

    async def _watch(self, job_id: str,
                     writer: asyncio.StreamWriter) -> None:
        """Stream ``{"event": "progress"}`` lines until the job is
        terminal, then one ``{"event": "end"}`` line."""
        job = self.scheduler.get_job(job_id)
        last = (None, None)
        while job.state not in protocol.TERMINAL_STATES:
            current = (job.state, job.done)
            if current != last:
                last = current
                writer.write(protocol.encode(
                    {"event": "progress", "state": job.state,
                     "done": job.done, "total": job.total}))
                await writer.drain()
            if job.state == protocol.INTERRUPTED:
                break
            await asyncio.sleep(0.05)
        writer.write(protocol.encode({"event": "end",
                                      "job": job.summary()}))


def run_server(config: ServeConfig, host: str = "127.0.0.1",
               port: int = protocol.DEFAULT_PORT) -> int:
    """Blocking entry point with signal-driven graceful drain."""
    async def main() -> None:
        server = CampaignServer(config)
        await server.start(host, port)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum,
                    lambda: loop.create_task(server.stop(drain=True)))
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        print("repro serve: listening on %s:%d (store %s)"
              % (host, server.port, config.store_root))
        await server.wait_stopped()
        print("repro serve: drained; unfinished jobs resume on restart")

    asyncio.run(main())
    return 0


class ServerThread:
    """An in-process server on a daemon thread (tests, notebooks).

    ``start()`` blocks until the socket is bound and returns the port;
    ``stop()`` drains and joins.
    """

    def __init__(self, config: ServeConfig, host: str = "127.0.0.1",
                 port: int = 0):
        self.config = config
        self.host = host
        self.port = port
        self.server: Optional[CampaignServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()

    def start(self) -> int:
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="repro serve")
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise ServeError("server thread failed to start")
        return self.port

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            self.server = CampaignServer(self.config)
            await self.server.start(self.host, self.port)
            self.port = self.server.port
            self._ready.set()
            await self.server.wait_stopped()

        asyncio.run(main())

    def stop(self, drain: bool = True) -> None:
        if self._loop is None or self.server is None:
            return
        def _stop() -> None:
            asyncio.get_running_loop().create_task(
                self.server.stop(drain=drain))
        try:
            self._loop.call_soon_threadsafe(_stop)
        except RuntimeError:  # loop already closed
            pass
        if self._thread is not None:
            self._thread.join(timeout=60)
