"""Asyncio HTTP JSON API over :class:`~repro.service.engine.RetimeService`.

Endpoints (see ``docs/SERVICE.md`` for the full reference):

* ``POST /retime`` — submit a job.  Body: ``{"netlist": "...",
  "fmt": "blif", "name": "...", "flow": "mcretime", "objective":
  "minarea", "delay_model": null, "target_period": null,
  "semantic_classes": true, "output_fmt": null, "wait": false}``.
  Only ``netlist`` is required.  With ``"wait": true`` the response is
  the finished job record; otherwise submission returns immediately
  with the job id for polling.  Under load shedding the response is
  ``429`` with a ``Retry-After`` header.

  **ECO submissions** (``docs/ECO.md``) replace ``netlist`` with
  ``{"base_key": "<design_key>", "edit": [ ...op dicts... ]}``: the
  server resolves the base design from a previous submission's
  ``design_key`` (returned in every job record), applies the edit
  script, and submits the edited design — routed to the worker
  holding the base's warm solver state, which retimes incrementally
  (bit-identical to a cold solve).  Unknown ``base_key`` or a
  malformed script is a ``400``.
* ``GET /jobs/<id>`` — job status/result by content-addressed id
  (404 once the service has evicted a finished job).
* ``GET /healthz`` — liveness plus worker/queue counts and the
  retained jobs by state.
* ``GET /metrics`` — Prometheus text exposition (with exemplars).
* ``GET /slo`` — SLO burn rates over the rolling window
  (:mod:`repro.obs.slo`; targets from the service's SLO config).
* ``GET /trace/<job>`` — the job's stitched distributed trace
  (front-end + worker timelines merged; live telemetry-bus buffer for
  in-flight jobs).  404 until anything is known about the job.
* ``GET /explain/<job>`` — the job's certificate-backed explanation
  (``docs/EXPLAIN.md``; jobs submitted with ``"explain": true``).
  404 for unknown/unfinished jobs and jobs run without explanations.
* ``GET /runs?n=N`` — the newest N records of the service run ledger,
  streamed with chunked transfer encoding (404 when the service was
  started without one).
* ``GET /debug/profile?seconds=S`` — sample the server process for S
  seconds (all threads) and return speedscope JSON flame data.

The front-end is a single asyncio event loop speaking HTTP/1.1 with
keep-alive and request pipelining: one connection serves any number of
requests, and requests a client writes back-to-back are parsed straight
out of the buffer without waiting for earlier responses to be read.
Blocking service calls (pool-backed submits, ``wait=true``) run on an
executor thread pool, so slow jobs never wedge health checks — the
event loop itself only parses, routes, and writes.

:func:`make_server` preserves the stdlib server facade
(``server_address`` / ``serve_forever`` / ``shutdown`` /
``server_close``): the listening socket binds synchronously, so
``port=0`` resolves to a concrete port before the loop starts.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _REASONS
from urllib.parse import parse_qs, urlsplit

from .. import obs
from ..netlist import NetlistError
from .client import ServiceOverloadedError
from .engine import RetimeService
from .jobs import RetimeJob

#: hard ceilings for the on-demand profiler endpoint
_PROFILE_MAX_SECONDS = 60.0
_RUNS_MAX = 500

#: drop keep-alive connections idle for this long (seconds)
_IDLE_TIMEOUT = 120.0

#: executor threads for blocking service calls — bounds the number of
#: concurrently *blocking* requests (``wait=true`` submitters), not the
#: number of open connections
_EXECUTOR_THREADS = 32

_JOB_FIELDS = (
    "fmt",
    "name",
    "flow",
    "objective",
    "delay_model",
    "target_period",
    "semantic_classes",
    "verify",
    "verify_cycles",
    "explain",
    "output_fmt",
    "transform",
    "stages",
    "factor",
)


def job_from_request(body: dict, resolve_base=None) -> RetimeJob:
    """Build a :class:`RetimeJob` from a ``POST /retime`` JSON body.

    Two request shapes: a full submission carrying ``netlist``, or an
    ECO submission carrying ``base_key`` + ``edit`` (``docs/ECO.md``).
    For the latter, *resolve_base* maps a design fingerprint to its
    canonical BLIF (:meth:`RetimeService.base_netlist`); the edit
    script is applied here so the job's ``netlist`` — hence its content
    address and every cold/correctness path — is the full edited
    design, with the ECO fields riding along for the warm path.
    """
    if not isinstance(body, dict):
        raise ValueError("request body must be a JSON object")
    options = {
        key: body[key]
        for key in _JOB_FIELDS
        if key in body and body[key] is not None
    }
    netlist = body.get("netlist")
    if netlist is None and body.get("base_key") is not None:
        from ..eco import apply_edit_script
        from ..netlist import read_blif, write_blif

        base_key = body["base_key"]
        if not isinstance(base_key, str):
            raise ValueError("'base_key' must be a design fingerprint string")
        edit = body.get("edit")
        if not isinstance(edit, list):
            raise ValueError("ECO submissions need 'edit': a list of op dicts")
        base_text = resolve_base(base_key) if resolve_base else None
        if base_text is None:
            raise ValueError(
                f"unknown base_key {base_key[:16]!r}: the base design is "
                "not (or no longer) known to this service — submit it "
                "first and use the returned design_key"
            )
        base = read_blif(base_text)
        try:
            edited = apply_edit_script(base, edit)
        except (KeyError, ValueError) as exc:
            raise ValueError(f"bad edit script: {exc}") from None
        options.setdefault("fmt", "blif")
        return RetimeJob(
            netlist=write_blif(edited),
            base_key=base_key,
            base_netlist=base_text,
            edit=json.dumps(edit),
            **options,
        )
    if not isinstance(netlist, str) or not netlist.strip():
        raise ValueError("missing required field 'netlist'")
    return RetimeJob(netlist=netlist, **options)


class _Response:
    """One route outcome: status + payload (+ optional extras)."""

    __slots__ = ("status", "payload", "content_type", "headers", "stream")

    def __init__(
        self,
        status: int,
        payload,
        content_type: str = "application/json",
        headers: dict[str, str] | None = None,
        stream=None,
    ) -> None:
        self.status = status
        self.payload = payload
        self.content_type = content_type
        self.headers = headers or {}
        #: optional iterable of byte chunks — sent with chunked
        #: transfer encoding instead of a buffered body
        self.stream = stream


def _error(status: int, message: str, headers=None) -> _Response:
    return _Response(status, {"error": message}, headers=headers)


class AsyncRetimeServer:
    """Asyncio HTTP/1.1 front-end with the stdlib server facade.

    The socket binds in ``__init__`` (so ``server_address`` is final
    immediately); the event loop runs inside :meth:`serve_forever`,
    typically on a dedicated thread.  :meth:`shutdown` is threadsafe
    and blocks until the loop has exited, mirroring
    ``socketserver.BaseServer.shutdown``.
    """

    def __init__(
        self,
        service: RetimeService,
        host: str = "127.0.0.1",
        port: int = 8117,
        quiet: bool = True,
    ) -> None:
        self.service = service
        self.quiet = quiet
        self._sock = socket.create_server((host, port), reuse_port=False)
        self.server_address = self._sock.getsockname()[:2]
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown_requested = threading.Event()
        self._finished = threading.Event()
        self._finished.set()  # not running yet
        self._executor = ThreadPoolExecutor(
            max_workers=_EXECUTOR_THREADS, thread_name_prefix="retime-http"
        )

    # -- lifecycle (stdlib-server facade) ------------------------------

    def serve_forever(self) -> None:
        """Run the event loop until :meth:`shutdown` (blocking)."""
        self._finished.clear()
        try:
            asyncio.run(self._main())
        finally:
            self._loop = None
            self._finished.set()

    def shutdown(self) -> None:
        """Stop :meth:`serve_forever` from any thread; blocks until
        the loop has exited."""
        self._shutdown_requested.set()
        loop = self._loop
        if loop is not None:
            try:
                loop.call_soon_threadsafe(lambda: None)  # wake the waiter
            except RuntimeError:
                pass
        self._finished.wait(timeout=30.0)

    def server_close(self) -> None:
        """Release the listening socket and the executor."""
        try:
            self._sock.close()
        except OSError:
            pass
        self._executor.shutdown(wait=False)

    def __enter__(self) -> "AsyncRetimeServer":
        return self

    def __exit__(self, *exc) -> None:
        self.server_close()

    # -- event loop ----------------------------------------------------

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        server = await asyncio.start_server(
            self._handle_connection, sock=self._sock, start_serving=True
        )
        try:
            while not self._shutdown_requested.is_set():
                await asyncio.sleep(0.05)
        finally:
            server.close()
            # connections in flight finish their current response;
            # wait_closed on 3.12+ would block on keep-alive idlers, so
            # just let the loop tear them down
            await asyncio.sleep(0)

    async def _handle_connection(self, reader, writer) -> None:
        try:
            # asyncio sets TCP_NODELAY only on sockets created with
            # proto=IPPROTO_TCP, and create_server's has proto 0: without
            # this every response waits ~40 ms on Nagle + delayed ACK
            writer.get_extra_info("socket").setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                method, target, version, headers, body = request
                keep_alive = (
                    version == "HTTP/1.1"
                    and headers.get("connection", "").lower() != "close"
                )
                try:
                    response = await self._route(method, target, headers, body)
                except Exception as exc:  # noqa: BLE001 - never kill the loop
                    if not self.quiet:
                        obs.count("service.http.internal_error")
                    response = _error(500, f"internal error: {exc}")
                await self._write_response(writer, response, keep_alive)
                if not keep_alive:
                    break
        except (
            asyncio.TimeoutError,
            asyncio.IncompleteReadError,
            ConnectionError,
            OSError,
            ValueError,  # readline() limit overrun on a garbage request
        ):
            pass
        except asyncio.CancelledError:
            pass  # loop teardown cancelled an idle keep-alive reader
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(self, reader):
        """Parse one HTTP request; None at EOF / idle timeout."""
        request_line = await asyncio.wait_for(
            reader.readline(), timeout=_IDLE_TIMEOUT
        )
        if not request_line or request_line in (b"\r\n", b"\n"):
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) == 3:
            method, target, version = parts
        elif len(parts) == 2:
            method, target, version = parts[0], parts[1], "HTTP/1.0"
        else:
            return None
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = b""
        if headers.get("transfer-encoding", "").lower() == "chunked":
            # streamed request bodies: decode chunked framing
            chunks = []
            while True:
                size_line = await reader.readline()
                try:
                    size = int(size_line.split(b";")[0].strip() or b"0", 16)
                except ValueError:
                    return None
                if size == 0:
                    await reader.readline()  # trailing CRLF
                    break
                chunks.append(await reader.readexactly(size))
                await reader.readexactly(2)  # chunk CRLF
            body = b"".join(chunks)
        elif "content-length" in headers:
            try:
                length = int(headers["content-length"])
            except ValueError:
                return None
            body = await reader.readexactly(length)
        return method, target, version, headers, body

    async def _write_response(
        self, writer, response: _Response, keep_alive: bool
    ) -> None:
        reason = _REASONS.get(response.status, "Unknown")
        head = [
            f"HTTP/1.1 {response.status} {reason}",
            f"Content-Type: {response.content_type}",
            "Server: mcretime-service/2.0",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        for name, value in response.headers.items():
            head.append(f"{name}: {value}")
        if response.stream is not None:
            head.append("Transfer-Encoding: chunked")
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
            for chunk in response.stream:
                if not chunk:
                    continue
                writer.write(f"{len(chunk):x}\r\n".encode())
                writer.write(chunk)
                writer.write(b"\r\n")
                await writer.drain()
            writer.write(b"0\r\n\r\n")
        else:
            payload = response.payload
            body = (
                payload.encode()
                if isinstance(payload, str)
                else json.dumps(payload, indent=1).encode()
            )
            head.append(f"Content-Length: {len(body)}")
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
            writer.write(body)
        await writer.drain()

    # -- routing -------------------------------------------------------

    async def _route(self, method, target, headers, body) -> _Response:
        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = {
            key: values[-1]
            for key, values in parse_qs(split.query).items()
        }
        if method == "GET":
            return await self._route_get(path, query)
        if method == "POST":
            return await self._route_post(path, body)
        return _error(405, f"method {method} not allowed")

    async def _in_executor(self, fn, *args):
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, fn, *args)

    async def _route_get(self, path: str, query: dict) -> _Response:
        service = self.service
        if path == "/healthz":
            return _Response(
                200,
                {
                    "status": "ok",
                    "workers": service.pool.workers,
                    "queue_depth": service.pool.queue_depth(),
                    "jobs": service.job_counts(),
                    "cache_hit_rate": round(service.cache_hit_rate(), 4),
                },
            )
        if path == "/metrics":
            text = await self._in_executor(service.metrics.render)
            return _Response(
                200, text, content_type="text/plain; version=0.0.4"
            )
        if path == "/slo":
            status = await self._in_executor(service.slo_status)
            return _Response(200, status)
        if path == "/runs":
            return await self._get_runs(query)
        if path == "/debug/profile":
            return await self._get_profile(query)
        if path.startswith("/trace/"):
            job = path[len("/trace/"):]
            if not job:
                return _error(400, "missing job id")
            events = await self._in_executor(service.trace_events, job)
            if events is None:
                return _error(404, f"no trace for job {job!r}")
            return _Response(200, {"job": job, "events": events})
        if path.startswith("/explain/"):
            job = path[len("/explain/"):]
            if not job:
                return _error(400, "missing job id")
            payload = await self._in_executor(service.explanation, job)
            if payload is None:
                return _error(
                    404,
                    f"no explanation for job {job!r} (submit with "
                    '"explain": true)',
                )
            return _Response(200, payload)
        if path.startswith("/jobs/"):
            job_id = path[len("/jobs/"):]
            record = service.status(job_id)
            if record is None:
                return _error(404, f"unknown job {job_id!r}")
            return _Response(200, record)
        return _error(404, f"no route for GET {path}")

    async def _get_runs(self, query: dict) -> _Response:
        service = self.service
        if service.ledger is None:
            return _error(404, "service started without a run ledger")
        try:
            n = int(query.get("n", "20"))
        except ValueError:
            return _error(400, "query parameter 'n' must be an integer")
        n = max(1, min(n, _RUNS_MAX))
        runs = await self._in_executor(service.ledger.tail, n)

        def stream():
            # stream the (potentially large) runs array record by
            # record so the event loop never buffers the whole body
            prefix = json.dumps(
                {"ledger": str(service.ledger.path),
                 "skipped": service.ledger.skipped}
            )[:-1]
            yield (prefix + ', "runs": [').encode()
            for index, record in enumerate(runs):
                sep = b",\n " if index else b"\n "
                yield sep + json.dumps(record).encode()
            yield b"\n]}"

        return _Response(200, None, stream=stream())

    async def _get_profile(self, query: dict) -> _Response:
        try:
            seconds = float(query.get("seconds", "5"))
            interval = float(query.get("interval", "0.005"))
        except ValueError:
            return _error(400, "'seconds'/'interval' must be numbers")
        if not 0 < seconds <= _PROFILE_MAX_SECONDS:
            return _error(
                400, f"'seconds' must be in (0, {_PROFILE_MAX_SECONDS:g}]"
            )
        profile = await self._in_executor(
            obs.profile_block, seconds, interval
        )
        return _Response(200, profile.speedscope(name="mcretime-service"))

    async def _route_post(self, path: str, body: bytes) -> _Response:
        if path != "/retime":
            return _error(404, f"no route for POST {path}")
        try:
            parsed = json.loads(body or b"{}")
        except json.JSONDecodeError:
            return _error(400, "request body is not valid JSON")
        service = self.service

        def admit():
            job = job_from_request(parsed, resolve_base=service.base_netlist)
            record = service.admit(job)
            if parsed.get("wait"):
                record.wait()
            return record.to_dict()

        try:
            record = await self._in_executor(admit)
        except ServiceOverloadedError as exc:
            return _error(
                429,
                str(exc),
                headers={"Retry-After": f"{max(1, round(exc.retry_after))}"},
            )
        except (NetlistError, ValueError, TypeError) as exc:
            return _error(400, str(exc))
        return _Response(200, record)


def make_server(
    service: RetimeService,
    host: str = "127.0.0.1",
    port: int = 8117,
    quiet: bool = True,
) -> AsyncRetimeServer:
    """Bind (but don't start) the HTTP server; port 0 picks a free one."""
    return AsyncRetimeServer(service, host, port, quiet=quiet)


def serve_forever(
    service: RetimeService, host: str = "127.0.0.1", port: int = 8117
) -> None:
    """Blocking serve loop used by ``mcretime serve``."""
    httpd = make_server(service, host, port, quiet=False)
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
        service.close()
