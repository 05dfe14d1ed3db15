"""Stream-socket front door of the sweep-job service.

:class:`SweepJobServer` binds a :class:`~repro.service.service.SweepJobService`
to a local unix socket, a TCP endpoint, or both at once, and speaks the
JSON-lines protocol of :mod:`repro.service.protocol` — the protocol is
transport-agnostic, so both accept loops share one connection handler.
One connection carries one operation; ``watch`` streams a job's events
and closes after the terminal one, so clients are plain line readers
with no framing state.

The server is deliberately boring: every client-side mistake — bad
JSON, unknown op, unknown job, a full queue — becomes an ``ok: false``
response line on that connection and nothing else.  Only ``shutdown``
(or cancelling the serve task) ends the accept loop, and the service is
drained (cache spilled) on the way out.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
from typing import Optional, Union

from repro.errors import ConfigurationError, ReproError
from repro.service.jobs import JobState
from repro.service.protocol import (
    MAX_LINE_BYTES,
    OPS,
    decode_line,
    encode_line,
    error_response,
    parse_spec,
    parse_tcp_endpoint,
    resolve_spec,
)
from repro.service.service import SweepJobService

__all__ = ["SweepJobServer"]


class SweepJobServer:
    """Serve one :class:`SweepJobService` over stream sockets.

    Parameters
    ----------
    service:
        The service instance to expose (not started yet; the server
        starts and stops it around its own lifetime).
    socket_path:
        Filesystem path to bind the unix transport.  A stale socket
        file from a previous run is removed before binding; the file is
        unlinked again on shutdown.  ``None`` disables the unix
        transport (TCP-only server).
    tcp:
        ``"host:port"`` endpoint to bind the TCP transport (port ``0``
        binds an ephemeral port; :attr:`tcp_port` reports the real
        one after :meth:`start`).  ``None`` disables TCP.  At least one
        transport must be configured.

    Usage::

        server = SweepJobServer(service, "repro.sock")
        await server.serve_forever()          # returns after shutdown op

    or, for embedding in tests::

        await server.start()
        ...
        await server.stop()
    """

    def __init__(
        self,
        service: SweepJobService,
        socket_path: Optional[Union[str, os.PathLike]] = None,
        tcp: Optional[str] = None,
    ) -> None:
        if socket_path is None and tcp is None:
            raise ConfigurationError(
                "server needs at least one transport: a unix socket_path "
                "and/or a 'host:port' tcp endpoint"
            )
        self.service = service
        self.socket_path = (
            os.fspath(socket_path) if socket_path is not None else None
        )
        self.tcp_endpoint = (
            parse_tcp_endpoint(tcp) if tcp is not None else None
        )
        #: The actually bound TCP port (meaningful after start(); with
        #: an endpoint of port 0 this is the kernel-assigned one).
        self.tcp_port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._tcp_server: Optional[asyncio.AbstractServer] = None
        # Created in start(): an Event built here would bind whatever
        # loop (if any) exists at construction time, and the natural
        # call pattern — build the server, then asyncio.run(...) — runs
        # on a *different* loop (a hard failure on Python 3.9).
        self._shutdown: Optional[asyncio.Event] = None

    async def start(self) -> None:
        """Start the service and begin accepting connections."""
        if self._server is not None or self._tcp_server is not None:
            raise ReproError("server already started")
        self._shutdown = asyncio.Event()
        await self.service.start()
        # readline()'s default 64 KiB limit is well below the protocol's
        # line bound; give both transports the full bound plus slack so
        # the explicit MAX_LINE_BYTES check below is what a too-long
        # line actually hits.
        limit = MAX_LINE_BYTES + 1024
        if self.socket_path is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.socket_path)
            self._server = await asyncio.start_unix_server(
                self._handle_connection,
                path=self.socket_path,
                limit=limit,
            )
        if self.tcp_endpoint is not None:
            host, port = self.tcp_endpoint
            self._tcp_server = await asyncio.start_server(
                self._handle_connection,
                host=host,
                port=port,
                limit=limit,
            )
            self.tcp_port = self._tcp_server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, drain the service, spill the cache, unbind."""
        if self._server is None and self._tcp_server is None:
            return
        for server in (self._server, self._tcp_server):
            if server is not None:
                server.close()
                await server.wait_closed()
        self._server = None
        self._tcp_server = None
        self.tcp_port = None
        await self.service.stop()
        if self.socket_path is not None:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.socket_path)

    async def wait_shutdown(self) -> None:
        """Block until a ``shutdown`` operation arrives."""
        if self._shutdown is None:
            raise ReproError("server is not started")
        await self._shutdown.wait()

    async def serve_forever(self) -> None:
        """Run until a ``shutdown`` operation arrives, then drain."""
        await self.start()
        try:
            await self.wait_shutdown()
        finally:
            await self.stop()

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            try:
                try:
                    line = await reader.readline()
                except ValueError as exc:
                    # StreamReader limit overrun: the line outgrew even
                    # the slack past MAX_LINE_BYTES without a newline.
                    raise ConfigurationError(
                        f"protocol line exceeds {MAX_LINE_BYTES} bytes"
                    ) from exc
                if len(line) > MAX_LINE_BYTES:
                    raise ConfigurationError(
                        f"protocol line exceeds {MAX_LINE_BYTES} bytes"
                    )
                if not line.strip():
                    return  # client connected and went away; nothing owed
                request = decode_line(line)
                await self._dispatch(request, writer)
            except Exception as exc:  # noqa: BLE001 - uniform error line
                writer.write(encode_line(error_response(exc)))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished mid-reply; its problem, not ours
        finally:
            writer.close()
            with contextlib.suppress(
                ConnectionResetError, BrokenPipeError
            ):
                await writer.wait_closed()

    async def _dispatch(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        op = request.get("op")
        if op not in OPS:
            known = ", ".join(sorted(OPS))
            raise ConfigurationError(
                f"unknown op {op!r}; expected one of: {known}"
            )
        if op == "submit":
            spec = parse_spec(request.get("spec"))
            job = self.service.submit(resolve_spec(spec))
            writer.write(encode_line({
                "ok": True,
                **job.status_row(),
            }))
        elif op == "watch":
            await self._watch(request, writer)
        elif op == "cancel":
            job_id = self._job_id(request)
            cancelled = self.service.cancel(job_id)
            writer.write(encode_line({
                "ok": True,
                "cancelled": cancelled,
                **self.service.get(job_id).status_row(),
            }))
        elif op == "status":
            writer.write(encode_line({"ok": True, **self.service.stats()}))
        elif op == "jobs":
            writer.write(encode_line({
                "ok": True,
                "jobs": [job.status_row() for job in self.service.jobs()],
            }))
        elif op == "report":
            job = self.service.get(self._job_id(request))
            if not job.finished:
                raise ReproError(
                    f"job {job.job_id} is {job.state.value}; the report "
                    "exists once the job is terminal"
                )
            if job.state is JobState.CANCELLED or job.report is None:
                raise ReproError(
                    f"job {job.job_id} was cancelled and has no report"
                )
            writer.write(encode_line({
                "ok": True,
                "job_id": job.job_id,
                "report": job.report,
            }))
        elif op == "shutdown":
            writer.write(encode_line({"ok": True, "shutdown": True}))
            if self._shutdown is not None:
                self._shutdown.set()

    def _job_id(self, request: dict) -> str:
        job_id = request.get("job_id")
        if not isinstance(job_id, str) or not job_id:
            raise ConfigurationError(
                "request is missing a string 'job_id'"
            )
        return job_id

    async def _watch(
        self, request: dict, writer: asyncio.StreamWriter
    ) -> None:
        job_id = self._job_id(request)
        async for event in self.service.watch(job_id):
            writer.write(encode_line(event.to_wire()))
            await writer.drain()
