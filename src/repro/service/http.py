"""The REST/JSON control plane over a :class:`FleetService`.

Pure standard library: ``asyncio.start_server`` plus a deliberately
small HTTP/1.1 implementation (request line, headers, Content-Length
body, ``Connection: close`` responses).  Every route is a thin JSON
skin over a :class:`~repro.service.fleet_service.FleetService` method;
snapshots travel as raw ``application/octet-stream`` bodies so a
checkpoint round-trip is byte-transparent.

Routes::

    GET  /status                    fleet summary (time, energy, layout)
    GET  /servers                   per-server summaries
    GET  /workers                   worker processes: pid, servers, peak RSS
    GET  /servers/{i}               one server: residency, energy, config
    GET  /servers/{i}/events?n=K    daemon decision log tail
    GET  /servers/{i}/snapshot      checkpoint (binary)
    POST /servers/{i}/restore       restore from a checkpoint body
    POST /servers/{i}/migrate       {"worker": w}
    POST /servers/{i}/fault         a fault-plan JSON document
    POST /ingest                    {"vm_id", "memory_bytes", "time_s",
                                     "lifetime_s"?, "vcpus"?, "image_id"?}
    POST /depart                    {"vm_id", "time_s"}
    POST /advance                   {"until_s"} or {"dt_s"}
    POST /retune                    {"overrides": {...}, "server"?: i}
    POST /reshard                   {"workers": n}
    POST /shutdown                  stop serving

Routes call the :class:`FleetService` methods directly on the event
loop, one method per request: there is no thread hop and no lock, since
no route awaits while it holds simulation state.  A long ``/advance``
therefore holds the loop, and a connection that arrives meanwhile is
served after it; so are ``/shutdown`` and the read deadline of a request
already being read.  The simulation itself runs in the service's worker
processes, which tick in parallel.  A :class:`~repro.errors.ReproError`
(raised here or in a worker) answers 400, any other error 500.
"""

from __future__ import annotations

import asyncio
import json
import re
import traceback
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.errors import ReproError
from repro.service.fleet_service import FleetService

#: Largest accepted request body (snapshots of big fleets are MBs).
MAX_BODY_BYTES = 256 * 1024 * 1024

#: Most header lines accepted in one request.
MAX_HEADERS = 100

#: Seconds a client gets to send its whole request (line, headers and
#: body); a connection that stalls past it is answered 408 and closed.
REQUEST_READ_TIMEOUT_S = 30.0

_CONTENT_LENGTH = re.compile(r"[0-9]+")

_SERVER_ROUTE = re.compile(r"^/servers/(\d+)(/[a-z]+)?$")


class _HttpError(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


#: Marks a request field that has no default.
_REQUIRED = object()


def _field(data: Dict[str, object], name: str, cast: type,
           default: object = _REQUIRED) -> object:
    """``cast(data[name])``; a missing or non-numeric field answers 400."""
    if name not in data:
        if default is _REQUIRED:
            raise _HttpError(400, f"missing field {name!r}")
        return default
    try:
        return cast(data[name])
    except (TypeError, ValueError, OverflowError):
        raise _HttpError(
            400, f"field {name!r} must be a number, "
                 f"not {data[name]!r}") from None


_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 408: "Request Timeout",
            413: "Payload Too Large", 414: "URI Too Long",
            431: "Request Header Fields Too Large",
            500: "Internal Server Error"}


class ControlPlane:
    """Serves one :class:`FleetService` over HTTP until shut down."""

    def __init__(self, service: FleetService, host: str = "127.0.0.1",
                 port: int = 8023):
        self.service = service
        self.host = host
        self.port = port
        self._shutdown = asyncio.Event()
        self._server: Optional[asyncio.base_events.Server] = None

    @property
    def bound_port(self) -> int:
        """The actual port (useful with ``port=0`` in tests)."""
        if self._server is None:
            raise ReproError("control plane is not serving")
        return self._server.sockets[0].getsockname()[1]

    # --- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)

    async def serve_until_shutdown(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._shutdown.wait()

    # --- plumbing -----------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            status, content_type, body = await self._respond(reader)
        except _HttpError as err:
            status, content_type, body = (
                err.status, "application/json",
                json.dumps({"error": err.message}).encode())
        except ReproError as err:
            status, content_type, body = (
                400, "application/json",
                json.dumps({"error": str(err)}).encode())
        except Exception as err:
            traceback.print_exc()
            status, content_type, body = (
                500, "application/json",
                json.dumps({"error": f"{type(err).__name__}: {err}"})
                .encode())
        reason = _REASONS.get(status, "Unknown")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"Connection: close\r\n\r\n").encode()
        try:
            writer.write(head + body)
            await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _readline(reader: asyncio.StreamReader, status: int) -> bytes:
        """One line, or *status* when it overruns the stream's limit."""
        try:
            return await reader.readline()
        except ValueError:  # past StreamReader's 64 KiB line limit
            raise _HttpError(status, "request line or header too long") \
                from None

    async def _read_request(self, reader: asyncio.StreamReader
                            ) -> Tuple[str, str, Dict[str, str], bytes]:
        request_line = await self._readline(reader, 414)
        if not request_line.strip():
            raise _HttpError(400, "empty request")
        try:
            method, target, _version = \
                request_line.decode("latin-1").split()
        except ValueError:
            raise _HttpError(400, "malformed request line") from None
        headers: Dict[str, str] = {}
        lines = 0
        while True:
            line = await self._readline(reader, 431)
            if line in (b"\r\n", b"\n", b""):
                break
            lines += 1
            if lines > MAX_HEADERS:
                raise _HttpError(431, "too many header fields")
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        declared = headers.get("content-length", "0") or "0"
        if not _CONTENT_LENGTH.fullmatch(declared):
            raise _HttpError(400, f"malformed Content-Length {declared!r}")
        length = int(declared)
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, "request body too large")
        try:
            body = await reader.readexactly(length) if length else b""
        except asyncio.IncompleteReadError as err:
            raise _HttpError(
                400, f"request body ended after {len(err.partial)} of "
                     f"{length} bytes") from None
        return method, target, headers, body

    @staticmethod
    def _json(body: bytes) -> Dict[str, object]:
        if not body:
            return {}
        try:
            data = json.loads(body)
        except json.JSONDecodeError as err:
            raise _HttpError(400, f"malformed JSON body: {err}") from None
        if not isinstance(data, dict):
            raise _HttpError(400, "JSON body must be an object")
        return data

    @staticmethod
    def _ok(payload: object) -> Tuple[int, str, bytes]:
        return 200, "application/json", json.dumps(payload).encode()

    # --- routing ------------------------------------------------------------

    async def _respond(self, reader: asyncio.StreamReader
                       ) -> Tuple[int, str, bytes]:
        # Only the read is under the deadline, never a route handler.
        try:
            method, target, _headers, body = await asyncio.wait_for(
                self._read_request(reader), REQUEST_READ_TIMEOUT_S)
        except asyncio.TimeoutError:
            raise _HttpError(408, "request not received in time") from None
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"
        query = parse_qs(url.query)
        service = self.service

        match = _SERVER_ROUTE.match(path)
        if match:
            return self._server_route(method, int(match.group(1)),
                                      match.group(2), query, body)

        if method == "GET":
            if path == "/status":
                return self._ok(service.status())
            if path == "/servers":
                return self._ok(service.servers())
            if path == "/workers":
                return self._ok(service.workers())
            raise _HttpError(404, f"unknown path {path!r}")

        if method != "POST":
            raise _HttpError(405, f"unsupported method {method}")

        if path == "/ingest":
            data = self._json(body)
            return self._ok(service.ingest(
                vm_id=_field(data, "vm_id", int),
                memory_bytes=_field(data, "memory_bytes", int),
                time_s=_field(data, "time_s", float, service.now_s),
                lifetime_s=_field(data, "lifetime_s", float, None),
                vcpus=_field(data, "vcpus", int, 2),
                image_id=_field(data, "image_id", int, 0)))
        if path == "/depart":
            data = self._json(body)
            return self._ok(service.depart(
                vm_id=_field(data, "vm_id", int),
                time_s=_field(data, "time_s", float, service.now_s)))
        if path == "/advance":
            data = self._json(body)
            return self._ok({"now_s": service.advance(
                until_s=_field(data, "until_s", float, None),
                dt_s=_field(data, "dt_s", float, None))})
        if path == "/retune":
            data = self._json(body)
            overrides = data.get("overrides")
            if not isinstance(overrides, dict) or not overrides:
                raise _HttpError(400, "need a non-empty 'overrides' object")
            return self._ok(service.retune(
                overrides, index=_field(data, "server", int, None)))
        if path == "/reshard":
            data = self._json(body)
            return self._ok(service.reshard(_field(data, "workers", int)))
        if path == "/shutdown":
            self._shutdown.set()
            return self._ok({"shutdown": True})
        raise _HttpError(404, f"unknown path {path!r}")

    def _server_route(self, method: str, index: int, sub: Optional[str],
                      query: Dict[str, list],
                      body: bytes) -> Tuple[int, str, bytes]:
        service = self.service
        if method == "GET":
            if sub is None:
                return self._ok(service.server_status(index))
            if sub == "/events":
                args = {name: values[0] for name, values in query.items()}
                limit = _field(args, "n", int, 50)
                return self._ok(service.server_events(index, limit=limit))
            if sub == "/snapshot":
                return (200, "application/octet-stream",
                        service.snapshot(index))
            raise _HttpError(404, f"unknown server endpoint {sub!r}")
        if method != "POST":
            raise _HttpError(405, f"unsupported method {method}")
        if sub == "/restore":
            if not body:
                raise _HttpError(400, "restore needs a snapshot body")
            service.restore(index, body)
            return self._ok({"server": index, "restored": True})
        if sub == "/migrate":
            data = self._json(body)
            return self._ok(service.migrate(index,
                                            _field(data, "worker", int)))
        if sub == "/fault":
            data = self._json(body)
            return self._ok(service.inject_fault_plan(index, data))
        raise _HttpError(404, f"unknown server endpoint {sub!r}")


async def serve(service: FleetService, host: str = "127.0.0.1",
                port: int = 8023,
                ready: Optional[asyncio.Event] = None) -> None:
    """Run the control plane until ``POST /shutdown``."""
    plane = ControlPlane(service, host=host, port=port)
    await plane.start()
    if ready is not None:
        ready.set()
    print(f"repro service: {service.num_servers} servers on "
          f"{service.num_workers} workers, "
          f"http://{host}:{plane.bound_port}", flush=True)
    await plane.serve_until_shutdown()
