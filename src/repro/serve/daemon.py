"""The asyncio advisor daemon: intake, batching, backpressure, drain.

Architecture (one process)::

    clients ──lines──▶ asyncio loop ──puts──▶ bounded queue
                                                  │ (batch_max, batch_linger)
                                       dispatcher task ──▶ 1-thread executor
                                                  │         EnginePool.resolve
    clients ◀─responses/events── futures ◀────────┘         (engine process pool)

The asyncio loop owns every socket; it never computes.  The bounded
queue is the **backpressure contract**: when it is full, new requests
are answered immediately with ``status="rejected"`` and a
``retry_after`` hint (the protocol's 429) instead of being buffered
without bound.  A single dispatcher task collects up to ``batch_max``
queued requests (lingering ``batch_linger`` seconds to let a burst
accumulate) and hands the batch to a one-thread executor running
:meth:`~repro.serve.pool.EnginePool.resolve` — one batch in flight at a
time, because the runner's memo is process-global and the engine's
cache view is swapped per tenant.
Parallelism across a batch comes from the engine's worker processes.

Shutdown: SIGTERM/SIGINT (or :meth:`AdvisorServer.shutdown`) stops the
listener, flips the daemon into *draining* — queued and in-flight
requests finish and their responses are delivered, anything newly read
from a surviving connection is rejected — then closes connections once
the queue is empty or ``drain_seconds`` elapses.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import socket
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro import obs
from repro.api import AdvisorRequest, AdvisorResponse
from repro.errors import ExperimentError
from repro.retry import RetryPolicy
from repro.serve import protocol
from repro.serve.pool import EnginePool
from repro.serve.tenancy import TenantCaches

__all__ = ["AdvisorServer", "ServeOptions", "serve_forever"]

_LOG = obs.get_logger("repro.serve")


@dataclass(frozen=True)
class ServeOptions:
    """Configuration of one :class:`AdvisorServer`.

    Exactly one of ``port`` (TCP on ``host``) or ``unix_socket`` must be
    given.  Cache options mirror the engine CLI flags: ``use_cache``
    turns on per-tenant persistent namespaces under ``cache_dir``,
    each budgeted to ``cache_quota`` bytes.
    """

    host: str = "127.0.0.1"
    port: int | None = None
    unix_socket: str | None = None
    queue_capacity: int = 64
    batch_max: int = 16
    batch_linger: float = 0.005
    jobs: int | None = None
    cache_dir: str | None = None
    use_cache: bool = False
    cache_quota: int | None = None
    retry: RetryPolicy | None = None
    drain_seconds: float = 5.0

    def __post_init__(self) -> None:
        if (self.port is None) == (self.unix_socket is None):
            raise ExperimentError(
                "exactly one of port= or unix_socket= must be given"
            )
        if self.queue_capacity < 1:
            raise ExperimentError("queue_capacity must be >= 1")
        if self.batch_max < 1:
            raise ExperimentError("batch_max must be >= 1")


class AdvisorServer:
    """One advisor daemon instance (create, ``await start()``, serve).

    Usable standalone in tests::

        server = AdvisorServer(ServeOptions(unix_socket=path))
        await server.start()
        ...
        await server.shutdown()
    """

    def __init__(self, options: ServeOptions) -> None:
        self.options = options
        self.tenants: TenantCaches | None = None
        if options.use_cache:
            from repro.cache import default_cache_dir

            self.tenants = TenantCaches(
                options.cache_dir or default_cache_dir(),
                quota_bytes=options.cache_quota,
            )
        self.pool = EnginePool(
            jobs=options.jobs,
            tenants=self.tenants,
            retry=options.retry,
        )
        self.draining = False
        #: Requests accepted into the queue / rejected at the door.
        self.accepted = 0
        self.rejected = 0
        self._queue: asyncio.Queue | None = None
        self._server: asyncio.AbstractServer | None = None
        self._dispatcher: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._connections: set[asyncio.StreamWriter] = set()
        #: Event callbacks of the streaming requests in the running batch.
        self._in_flight_streamers: list = []
        self._span_listener_installed = False
        self._closed = asyncio.Event()
        #: EMA of per-request resolution seconds; feeds retry_after.
        self._ema_seconds = 0.05

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> "AdvisorServer":
        opts = self.options
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue(maxsize=opts.queue_capacity)
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-dispatch"
        )
        if opts.unix_socket is not None:
            path = Path(opts.unix_socket)
            with contextlib.suppress(OSError):
                if path.is_socket():
                    path.unlink()
            path.parent.mkdir(parents=True, exist_ok=True)
            self._server = await asyncio.start_unix_server(
                self._handle_client,
                path=str(path),
                limit=protocol.MAX_LINE_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_client,
                host=opts.host,
                port=opts.port,
                limit=protocol.MAX_LINE_BYTES,
            )
        self._dispatcher = asyncio.create_task(
            self._dispatch_loop(), name="serve-dispatcher"
        )
        self._span_listener_installed = obs.add_span_listener(self._on_span)
        _LOG.info("[serve] listening on %s", self.endpoint())
        return self

    def endpoint(self) -> str:
        """Human-readable address the daemon is bound to."""
        if self.options.unix_socket is not None:
            return f"unix:{self.options.unix_socket}"
        if self._server is not None and self._server.sockets:
            bound = self._server.sockets[0].getsockname()
            return f"tcp:{bound[0]}:{bound[1]}"
        return f"tcp:{self.options.host}:{self.options.port}"

    @property
    def port(self) -> int | None:
        """The actual bound TCP port (resolves ``port=0``)."""
        if self._server is None or not self._server.sockets:
            return self.options.port
        sock = self._server.sockets[0]
        if sock.family == socket.AF_UNIX:  # pragma: no cover - unix path
            return None
        return sock.getsockname()[1]

    async def shutdown(self, drain: bool = True) -> None:
        """Stop listening, drain in-flight work, close every connection."""
        if self._closed.is_set():
            return
        self.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain and self._queue is not None:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    self._queue.join(), timeout=self.options.drain_seconds
                )
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatcher
        if self._span_listener_installed:
            obs.remove_span_listener(self._on_span)
        for writer in list(self._connections):
            with contextlib.suppress(OSError):
                writer.close()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        if self.options.unix_socket is not None:
            with contextlib.suppress(OSError):
                Path(self.options.unix_socket).unlink()
        self._closed.set()
        _LOG.info(
            "[serve] shut down: %d accepted, %d rejected, %d batches",
            self.accepted,
            self.rejected,
            self.pool.batches,
        )

    # -- intake (asyncio loop thread) -----------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()
        try:
            writer.write(
                protocol.encode_hello(
                    queue_capacity=self.options.queue_capacity,
                    batch_max=self.options.batch_max,
                )
            )
            await writer.drain()
            while True:
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    asyncio.IncompleteReadError,
                    ConnectionError,
                ):
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                # Pipelined: each request resolves in its own task so a
                # slow cell never blocks the connection's intake; the
                # request_id correlates out-of-order responses.
                task = asyncio.create_task(
                    self._handle_line(line, writer, write_lock)
                )
                pending.add(task)
                task.add_done_callback(pending.discard)
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        except ConnectionError:  # pragma: no cover - client vanished
            pass
        finally:
            self._connections.discard(writer)
            with contextlib.suppress(OSError):
                writer.close()

    async def _handle_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        request_id = ""
        try:
            payload = protocol.decode_line(line)
            request_id = str(payload.get("request_id", "") or "")
            if payload.get("kind") != "request":
                raise protocol.ProtocolError(
                    f"clients send kind=request lines, got {payload.get('kind')!r}"
                )
            request = protocol.decode_request(payload)
        except protocol.ProtocolError as exc:
            self._count("serve.requests.invalid")
            await self._send(
                writer,
                write_lock,
                protocol.encode_response(
                    AdvisorResponse(
                        status="error", request_id=request_id, error=str(exc)
                    )
                ),
            )
            return
        response = await self.submit(request, writer=writer, write_lock=write_lock)
        await self._send(writer, write_lock, protocol.encode_response(response))

    async def submit(
        self,
        request: AdvisorRequest,
        writer: asyncio.StreamWriter | None = None,
        write_lock: asyncio.Lock | None = None,
    ) -> AdvisorResponse:
        """Queue one request and await its response (the intake core).

        Rejects immediately — without blocking — when the daemon is
        draining or the queue is full.
        """
        if self.draining:
            self.rejected += 1
            self._count("serve.requests.rejected")
            return AdvisorResponse(
                status="rejected",
                request_id=request.request_id,
                tenant=request.tenant,
                error="server is draining",
                retry_after=self.options.drain_seconds,
            )
        assert self._queue is not None and self._loop is not None
        future: asyncio.Future = self._loop.create_future()
        stream_cb = None
        if request.stream and writer is not None and write_lock is not None:
            stream_cb = self._streamer(request, writer, write_lock)
        item = (request, future, stream_cb)
        try:
            self._queue.put_nowait(item)
        except asyncio.QueueFull:
            self.rejected += 1
            self._count("serve.requests.rejected")
            self._count("serve.queue.full")
            return AdvisorResponse(
                status="rejected",
                request_id=request.request_id,
                tenant=request.tenant,
                error="intake queue is full",
                retry_after=self._retry_after(),
            )
        self.accepted += 1
        self._count("serve.requests.accepted")
        self._gauge("serve.queue.depth", self._queue.qsize())
        if stream_cb is not None:
            stream_cb("queued", depth=self._queue.qsize())
        return await future

    def _streamer(self, request, writer, write_lock):
        """An event callback bound to one streaming request's connection.

        Callable from the loop thread (lifecycle events) or from the
        dispatcher/worker threads (forwarded obs spans).
        """

        def emit(event: str, **fields) -> None:
            data = protocol.encode_event(
                event, request_id=request.request_id, **fields
            )
            coro = self._send(writer, write_lock, data)
            if self._on_loop_thread():
                asyncio.ensure_future(coro)
            else:
                asyncio.run_coroutine_threadsafe(coro, self._loop)

        return emit

    def _on_loop_thread(self) -> bool:
        try:
            return asyncio.get_running_loop() is self._loop
        except RuntimeError:
            return False

    async def _send(self, writer, write_lock, data: bytes) -> None:
        try:
            async with write_lock:
                writer.write(data)
                await writer.drain()
        except (ConnectionError, RuntimeError, OSError):
            pass  # client went away; its loss

    # -- dispatch (batching) --------------------------------------------

    async def _dispatch_loop(self) -> None:
        assert self._queue is not None and self._loop is not None
        while True:
            items = [await self._queue.get()]
            # Linger briefly so a burst coalesces into one batch.
            deadline = self._loop.time() + self.options.batch_linger
            while len(items) < self.options.batch_max:
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    break
                try:
                    items.append(
                        await asyncio.wait_for(self._queue.get(), timeout=remaining)
                    )
                except asyncio.TimeoutError:
                    break
            await self._run_batch(items)

    async def _run_batch(self, items) -> None:
        assert self._loop is not None and self._executor is not None
        requests = [request for request, _future, _cb in items]
        self._in_flight_streamers = [cb for _r, _f, cb in items if cb is not None]
        for _request, _future, stream_cb in items:
            if stream_cb is not None:
                stream_cb("dispatched", batch=len(items))
        started = self._loop.time()
        try:
            responses = await self._loop.run_in_executor(
                self._executor, self.pool.resolve, requests
            )
        except Exception as exc:  # defensive: the pool traps per-request errors
            _LOG.warning("[serve] batch failed wholesale: %s", exc)
            responses = [
                AdvisorResponse(
                    status="error",
                    request_id=request.request_id,
                    tenant=request.tenant,
                    error=f"{type(exc).__name__}: {exc}",
                )
                for request in requests
            ]
        finally:
            self._in_flight_streamers = []
        elapsed = self._loop.time() - started
        self._ema_seconds = 0.8 * self._ema_seconds + 0.2 * (
            elapsed / max(1, len(items))
        )
        for (request, future, stream_cb), response in zip(items, responses):
            if stream_cb is not None:
                stream_cb("done", status=response.status)
            if not future.done():
                future.set_result(response)
            self._queue.task_done()
            self._count(f"serve.requests.{response.status}")
        self._gauge("serve.queue.depth", self._queue.qsize())

    def _on_span(self, event: dict) -> None:
        """obs span listener: forward engine/advise spans to streamers.

        Runs on the dispatcher (or worker-shipping) thread; scheduling
        onto the loop is thread-safe.  Only coarse, request-relevant
        categories are forwarded to keep event volume sane.
        """
        if not self._in_flight_streamers:
            return
        category = event["name"].split(".", 1)[0]
        if category not in ("engine", "serve", "plan", "profile"):
            return
        for emit in list(self._in_flight_streamers):
            emit(
                "span",
                name=event["name"],
                dur_us=round(event["dur"], 1),
            )

    def _retry_after(self) -> float:
        """Backpressure hint: roughly one queue-drain at the current rate."""
        depth = self._queue.qsize() if self._queue is not None else 0
        return round(max(0.05, self._ema_seconds * max(1, depth)), 3)

    # -- metrics --------------------------------------------------------

    @staticmethod
    def _count(name: str, n: int = 1) -> None:
        if obs.enabled():
            obs.metrics().counter(name).inc(n)

    @staticmethod
    def _gauge(name: str, value: float) -> None:
        if obs.enabled():
            obs.metrics().gauge(name).set(value)


async def _serve_async(options: ServeOptions) -> int:
    server = AdvisorServer(options)
    await server.start()
    loop = asyncio.get_running_loop()
    shutdown_requested = asyncio.Event()
    installed: list[int] = []
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, shutdown_requested.set)
            installed.append(sig)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass
    try:
        await shutdown_requested.wait()
        _LOG.info("[serve] shutdown signal received; draining")
        await server.shutdown(drain=True)
    finally:
        for sig in installed:
            loop.remove_signal_handler(sig)
    return 0


def serve_forever(options: ServeOptions) -> int:
    """Run a daemon until SIGTERM/SIGINT; returns the process exit code."""
    return asyncio.run(_serve_async(options))
