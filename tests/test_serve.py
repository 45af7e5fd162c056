"""Tests for the advisor daemon (`repro.serve`).

Covers the wire protocol, tenancy isolation, the sharded engine pool,
and — through a real daemon on a unix socket — the concurrency
contract: N clients across mixed tenants, backpressure rejection when
the intake queue is full, byte-identical responses between the serve
path and the one-shot :func:`repro.api.advise`, and graceful drain on
shutdown/SIGTERM.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import socket as socket_module
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api import AdvisorRequest, AdvisorResponse, advise
from repro.cache import ResultCache
from repro.errors import ExperimentError
from repro.serve import protocol
from repro.serve.advisor import compute_advice, trace_profile_seed
from repro.serve.client import AdvisorClient
from repro.serve.daemon import AdvisorServer, ServeOptions
from repro.serve.pool import EnginePool
from repro.serve.tenancy import TenantCaches

SCALE = 0.05

#: A small strided trace: enough events for the sampler to catch a few.
TRACE = tuple(
    (0x1000 + 4 * (i % 7), 0x100000 + 64 * i, 0) for i in range(400)
)


def trace_request(**overrides) -> AdvisorRequest:
    fields = dict(trace=TRACE, config="swnt", want_stats=False)
    fields.update(overrides)
    return AdvisorRequest(**fields)


def workload_request(**overrides) -> AdvisorRequest:
    fields = dict(workload="libquantum", config="swnt", scale=SCALE)
    fields.update(overrides)
    return AdvisorRequest(**fields)


def entry_count(cache: ResultCache) -> int:
    return sum(b["entries"] for b in cache.entry_stats()["kinds"].values())


# ---------------------------------------------------------------------------
# wire protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_encoding_is_canonical(self):
        # Key order in the input dict must not matter.
        a = protocol.encode_message({"kind": "event", "event": "x", "n": 1})
        b = protocol.encode_message({"n": 1, "event": "x", "kind": "event"})
        assert a == b
        assert a.endswith(b"\n")
        assert b" " not in a  # compact separators

    def test_hello_declares_protocol_and_limits(self):
        hello = protocol.decode_line(
            protocol.encode_hello(queue_capacity=7, batch_max=3)
        )
        assert hello["protocol"] == "repro-advisor-v1"
        assert hello["queue_capacity"] == 7
        assert hello["batch_max"] == 3

    def test_request_round_trip(self):
        request = trace_request(tenant="acme", request_id="r-1", stream=True)
        payload = protocol.decode_line(protocol.encode_request(request))
        assert payload["kind"] == "request"
        assert protocol.decode_request(payload) == request

    def test_response_round_trip_bytes(self):
        response = AdvisorResponse(status="ok", request_id="r-2", spec={"a": 1})
        line = protocol.encode_response(response)
        payload = protocol.decode_line(line)
        assert payload["kind"] == "response"
        # Canonical encoding: re-encoding the decoded payload is stable.
        assert protocol.encode_message(payload) == line

    def test_decode_line_rejects_garbage(self):
        with pytest.raises(protocol.ProtocolError, match="invalid JSON"):
            protocol.decode_line(b"not json\n")
        with pytest.raises(protocol.ProtocolError, match="JSON objects"):
            protocol.decode_line(b"[1,2,3]\n")
        with pytest.raises(protocol.ProtocolError, match="unknown message kind"):
            protocol.decode_line(b'{"kind":"teapot"}\n')
        with pytest.raises(protocol.ProtocolError, match="exceeds"):
            protocol.decode_line(b"x" * (protocol.MAX_LINE_BYTES + 1))

    def test_decode_request_wraps_validation_errors(self):
        payload = protocol.decode_line(
            protocol.encode_request(trace_request())
        )
        payload["tenant"] = "quarantine"  # reserved name
        with pytest.raises(protocol.ProtocolError, match="invalid request"):
            protocol.decode_request(payload)


# ---------------------------------------------------------------------------
# tenancy
# ---------------------------------------------------------------------------


class TestTenancy:
    def test_tenant_view_is_namespaced(self, tmp_path):
        parent = ResultCache(tmp_path)
        view = parent.tenant_view("acme")
        assert view.root == tmp_path / "tenants" / "acme"
        with pytest.raises(ExperimentError, match="reserved"):
            parent.tenant_view("stats")
        with pytest.raises(ExperimentError, match="invalid tenant"):
            parent.tenant_view("../escape")

    def test_tenant_entries_invisible_to_parent(self, tmp_path):
        parent = ResultCache(tmp_path)
        view = parent.tenant_view("acme")
        assert view._write("stats", "aabbccdd", {"value": 1})
        assert entry_count(parent) == 0
        assert entry_count(view) == 1
        assert parent.tenants() == ["acme"]

    def test_tenant_caches_reuse_views(self, tmp_path):
        caches = TenantCaches(tmp_path)
        assert caches.get("a") is caches.get("a")
        assert caches.get("a") is not caches.get("b")
        assert caches.known() == ["a", "b"]

    def test_quota_eviction_stays_per_tenant(self, tmp_path):
        caches = TenantCaches(tmp_path, quota_bytes=1)
        hog, neighbour = caches.get("hog"), caches.get("neighbour")
        for i in range(3):
            assert hog._write("stats", f"aa{i:06d}", {"payload": "x" * 64})
        assert neighbour._write("stats", "bb000000", {"payload": "y"})
        evicted = caches.enforce_quotas()
        assert evicted >= 3
        assert entry_count(hog) == 0
        # The 1-byte quota evicts the neighbour's entry too — but only
        # from the neighbour's own sweep, never the hog's.
        assert entry_count(neighbour) == 0


# ---------------------------------------------------------------------------
# pool
# ---------------------------------------------------------------------------


class TestEnginePool:
    def test_resolve_preserves_order_across_tenants(self, tmp_path):
        pool = EnginePool(jobs=1, tenants=TenantCaches(tmp_path))
        requests = [
            trace_request(tenant="a", request_id="0"),
            trace_request(tenant="b", request_id="1"),
            trace_request(tenant="a", request_id="2"),
        ]
        responses = pool.resolve(requests)
        assert [r.request_id for r in responses] == ["0", "1", "2"]
        assert [r.tenant for r in responses] == ["a", "b", "a"]
        assert all(r.status == "ok" for r in responses)
        assert pool.batches == 1 and pool.requests == 3

    def test_bad_request_does_not_sink_neighbours(self):
        pool = EnginePool(jobs=1)
        responses = pool.resolve(
            [
                trace_request(request_id="good"),
                workload_request(workload="no-such-benchmark", request_id="bad"),
                trace_request(request_id="also-good"),
            ]
        )
        assert [r.status for r in responses] == ["ok", "error", "ok"]
        assert "no-such-benchmark" in responses[1].error


# ---------------------------------------------------------------------------
# compute kernel
# ---------------------------------------------------------------------------


class TestAdvisor:
    def test_trace_seed_ignores_tenant_but_not_content(self):
        a = trace_request(tenant="a")
        b = trace_request(tenant="b")
        assert trace_profile_seed(a) == trace_profile_seed(b)
        other = trace_request(trace=TRACE[:-1])
        assert trace_profile_seed(a) != trace_profile_seed(other)

    def test_trace_advice_carries_plan_only(self):
        response = compute_advice(trace_request(request_id="t-1"))
        assert response.ok
        assert response.request_id == "t-1"
        assert response.plan is not None and response.stats is None
        assert response.spec["trace_events"] == len(TRACE)

    def test_trace_with_planless_config_is_an_error_response(self):
        response = compute_advice(trace_request(config="baseline"))
        assert response.status == "error"
        assert "no software plan" in response.error

    def test_deterministic_response_bytes(self):
        first = protocol.encode_response(compute_advice(trace_request()))
        second = protocol.encode_response(compute_advice(trace_request()))
        assert first == second


# ---------------------------------------------------------------------------
# daemon: async unit tests (no sockets involved beyond the listener)
# ---------------------------------------------------------------------------


def run_async(coro):
    return asyncio.run(coro)


class TestServeOptions:
    def test_exactly_one_address(self, tmp_path):
        with pytest.raises(ExperimentError, match="exactly one"):
            ServeOptions()
        with pytest.raises(ExperimentError, match="exactly one"):
            ServeOptions(port=1234, unix_socket=str(tmp_path / "s"))
        with pytest.raises(ExperimentError, match="queue_capacity"):
            ServeOptions(port=1234, queue_capacity=0)
        with pytest.raises(ExperimentError, match="batch_max"):
            ServeOptions(port=1234, batch_max=0)

    def test_unix_socket_form_is_valid(self, tmp_path):
        options = ServeOptions(unix_socket=str(tmp_path / "s"))
        assert options.port is None


class TestBackpressure:
    def test_full_queue_rejects_with_retry_after(self, tmp_path):
        async def scenario():
            server = AdvisorServer(
                ServeOptions(
                    unix_socket=str(tmp_path / "adv.sock"),
                    queue_capacity=2,
                    jobs=1,
                )
            )
            await server.start()
            try:
                # Freeze the dispatcher so the queue genuinely fills.
                server._dispatcher.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await server._dispatcher
                server._dispatcher = None
                for _ in range(2):
                    server._queue.put_nowait((trace_request(), asyncio.Future(), None))
                response = await server.submit(trace_request(request_id="over"))
            finally:
                await server.shutdown(drain=False)
            return response, server.rejected

        response, rejected = run_async(scenario())
        assert response.status == "rejected"
        assert response.request_id == "over"
        assert response.retry_after > 0
        assert "queue is full" in response.error
        assert rejected == 1

    def test_draining_server_rejects_new_work(self, tmp_path):
        async def scenario():
            server = AdvisorServer(
                ServeOptions(
                    unix_socket=str(tmp_path / "adv.sock"),
                    jobs=1,
                    drain_seconds=1.25,
                )
            )
            await server.start()
            server.draining = True
            response = await server.submit(trace_request())
            server.draining = False
            await server.shutdown(drain=False)
            return response

        response = run_async(scenario())
        assert response.status == "rejected"
        assert response.retry_after == 1.25
        assert "draining" in response.error


class TestGracefulDrain:
    def test_shutdown_drains_queued_requests(self, tmp_path):
        async def scenario():
            server = AdvisorServer(
                ServeOptions(unix_socket=str(tmp_path / "adv.sock"), jobs=1)
            )
            await server.start()
            pending = [
                asyncio.create_task(server.submit(trace_request(request_id=str(i))))
                for i in range(3)
            ]
            await asyncio.sleep(0)  # let every submit enqueue
            await server.shutdown(drain=True)
            responses = await asyncio.gather(*pending)
            late = await server.submit(trace_request(request_id="late"))
            return responses, late

        responses, late = run_async(scenario())
        assert [r.status for r in responses] == ["ok", "ok", "ok"]
        assert {r.request_id for r in responses} == {"0", "1", "2"}
        assert late.status == "rejected"


# ---------------------------------------------------------------------------
# daemon: end-to-end over real sockets
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def running_server(options: ServeOptions):
    """An AdvisorServer on a background event-loop thread."""
    loop = asyncio.new_event_loop()
    started = threading.Event()
    box: dict = {}

    def run() -> None:
        asyncio.set_event_loop(loop)
        server = AdvisorServer(options)
        loop.run_until_complete(server.start())
        box["server"] = server
        started.set()
        loop.run_forever()
        loop.close()

    thread = threading.Thread(target=run, name="serve-test-loop", daemon=True)
    thread.start()
    assert started.wait(timeout=30), "server failed to start"
    server = box["server"]
    try:
        yield server
    finally:
        if not server._closed.is_set():
            asyncio.run_coroutine_threadsafe(server.shutdown(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)


class TestDaemonEndToEnd:
    def test_hello_then_advice_on_unix_socket(self, tmp_path):
        sock = str(tmp_path / "advisor.sock")
        with running_server(ServeOptions(unix_socket=sock, jobs=1)) as server:
            with AdvisorClient(unix_socket=sock) as client:
                assert client.hello["protocol"] == "repro-advisor-v1"
                assert client.hello["queue_capacity"] == 64
                response = client.advise(trace_request(request_id="e2e"))
            assert response.ok and response.request_id == "e2e"
            assert server.accepted == 1 and server.rejected == 0
        assert not Path(sock).exists()  # socket unlinked on shutdown

    def test_tcp_listener_resolves_port_zero(self, tmp_path):
        with running_server(ServeOptions(port=0, jobs=1)) as server:
            assert server.port not in (None, 0)
            with AdvisorClient(port=server.port) as client:
                response = client.advise(trace_request())
            assert response.ok

    def test_malformed_lines_get_error_responses(self, tmp_path):
        sock = str(tmp_path / "advisor.sock")
        with running_server(ServeOptions(unix_socket=sock, jobs=1)):
            with AdvisorClient(unix_socket=sock) as client:
                client.send_raw(b"this is not json\n")
                response = client.read_response()
                assert response.status == "error"
                assert "invalid JSON" in response.error

                # Wrong kind: clients may only send requests.
                client.send_raw(protocol.encode_event("sneaky", request_id="x"))
                response = client.read_response()
                assert response.status == "error"
                assert response.request_id == "x"

                # The connection survives both errors.
                assert client.advise(trace_request()).ok

    def test_streaming_request_emits_lifecycle_events(self, tmp_path):
        sock = str(tmp_path / "advisor.sock")
        with running_server(ServeOptions(unix_socket=sock, jobs=1)):
            with AdvisorClient(unix_socket=sock) as client:
                events: list = []
                response = client.advise(
                    trace_request(request_id="s-1", stream=True),
                    collect_events=events,
                )
        assert response.ok
        names = [e["event"] for e in events]
        assert [n for n in names if n != "span"] == ["queued", "dispatched", "done"]
        assert all(e["request_id"] == "s-1" for e in events)

    def test_concurrent_mixed_tenants_with_cache_isolation(self, tmp_path):
        sock = str(tmp_path / "advisor.sock")
        cache_root = tmp_path / "cache"
        options = ServeOptions(
            unix_socket=sock,
            jobs=1,
            use_cache=True,
            cache_dir=str(cache_root),
        )
        tenants = ("alpha", "beta", "gamma")
        results: dict[int, AdvisorResponse] = {}
        errors: list = []

        def client_turn(i: int) -> None:
            try:
                with AdvisorClient(unix_socket=sock, timeout=120) as client:
                    request = workload_request(
                        tenant=tenants[i % len(tenants)],
                        request_id=f"c-{i}",
                        want_stats=(i % 2 == 0),
                    )
                    results[i] = client.advise(request)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append((i, exc))

        with running_server(options) as server:
            threads = [
                threading.Thread(target=client_turn, args=(i,)) for i in range(9)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=300)
            assert not errors, errors
            assert len(results) == 9
            for i, response in results.items():
                assert response.ok, response.error
                assert response.tenant == tenants[i % len(tenants)]
                assert response.request_id == f"c-{i}"
                assert response.plan is not None
            assert server.tenants.known() == sorted(tenants)

        # Persistent isolation: every tenant namespace holds its own
        # entries; the parent cache root holds none of them directly.
        parent = ResultCache(cache_root)
        assert parent.tenants() == sorted(tenants)
        assert entry_count(parent) == 0
        for tenant in tenants:
            assert entry_count(parent.tenant_view(tenant)) > 0

    def test_serve_path_matches_one_shot_advise_byte_for_byte(self, tmp_path):
        sock = str(tmp_path / "advisor.sock")
        request = workload_request(request_id="parity")
        with running_server(ServeOptions(unix_socket=sock, jobs=1)):
            with AdvisorClient(unix_socket=sock) as client:
                served = client.advise(request)
        one_shot = advise(request)
        assert protocol.encode_response(served) == protocol.encode_response(one_shot)


# ---------------------------------------------------------------------------
# the real process: CLI serve + SIGTERM drain
# ---------------------------------------------------------------------------


class TestServeProcess:
    def test_cli_daemon_serves_and_drains_on_sigterm(self, tmp_path):
        sock = str(tmp_path / "advisor.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--unix-socket",
                sock,
                "--jobs",
                "1",
                "--cache-dir",
                str(tmp_path / "cache"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not Path(sock).exists():
                assert process.poll() is None, process.stdout.read()
                assert time.monotonic() < deadline, "daemon never bound its socket"
                time.sleep(0.05)
            with AdvisorClient(unix_socket=sock, timeout=120) as client:
                response = client.advise(trace_request(request_id="proc"))
            assert response.ok and response.request_id == "proc"

            process.send_signal(signal.SIGTERM)
            output = process.communicate(timeout=60)[0]
        finally:
            if process.poll() is None:  # pragma: no cover - cleanup path
                process.kill()
                process.communicate()
        assert process.returncode == 0, output
        assert "draining" in output
        assert not Path(sock).exists()


# ---------------------------------------------------------------------------
# JSON shape of the wire documents (client-less consumers)
# ---------------------------------------------------------------------------


class TestWireDocuments:
    def test_response_line_is_plain_json(self, tmp_path):
        sock = str(tmp_path / "advisor.sock")
        with running_server(ServeOptions(unix_socket=sock, jobs=1)):
            raw = socket_module.socket(
                socket_module.AF_UNIX, socket_module.SOCK_STREAM
            )
            raw.settimeout(60)
            raw.connect(sock)
            with raw, raw.makefile("rwb") as stream:
                hello = json.loads(stream.readline())
                assert hello["kind"] == "hello"
                stream.write(protocol.encode_request(trace_request()))
                stream.flush()
                line = stream.readline()
        document = json.loads(line)
        assert document["kind"] == "response"
        assert document["format"] == "repro-advisor-response-v1"
        assert document["status"] == "ok"
