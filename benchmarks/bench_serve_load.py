"""Load benchmark for the advisor daemon (`repro serve`).

Boots a real `AdvisorServer` on a unix socket, drives it with
concurrent clients spread over several tenants, and publishes a
throughput / latency-percentile artifact.  Two properties gate:

* **scale** — at least ``REPRO_BENCH_SERVE_REQUESTS`` (default 120,
  gate applies at >=100) requests served concurrently, all ``ok``;
* **warm-path latency** — warm-cache served p50 under 10x one warm
  one-shot ``api.run`` call (fresh memo, warm persistent cache — what
  a one-shot CLI invocation of the same cell pays).

The served responses are additionally checked byte-identical to the
one-shot :func:`repro.api.advise` path for the same requests — the
daemon must never trade correctness for throughput.
"""

from __future__ import annotations

import asyncio
import os
import statistics
import threading
import time

from conftest import save_artifact

from repro import api
from repro.api import AdvisorRequest, ExperimentSpec
from repro.experiments import runner
from repro.experiments.tables import render_table
from repro.serve import protocol
from repro.serve.client import AdvisorClient
from repro.serve.daemon import AdvisorServer, ServeOptions

WORKLOAD = "libquantum"
MACHINE = "amd-phenom-ii"
CONFIG = "swnt"
N_REQUESTS = int(os.environ.get("REPRO_BENCH_SERVE_REQUESTS", "120"))
CLIENTS = 12
TENANTS = ("alpha", "beta", "gamma", "delta")
MAX_WARM_P50_RATIO = 10.0
GATED = N_REQUESTS >= 100


def _request(i: int, scale: float) -> AdvisorRequest:
    return AdvisorRequest(
        workload=WORKLOAD,
        machine=MACHINE,
        config=CONFIG,
        scale=scale,
        tenant=TENANTS[i % len(TENANTS)],
        request_id=f"load-{i}",
    )


def _baseline_warm_run(spec: ExperimentSpec, tmp_path) -> float:
    """One warm one-shot `api.run`: cold memo, warm persistent cache."""
    api.configure(jobs=1, use_cache=True, cache_dir=str(tmp_path / "oneshot"))
    try:
        api.run(spec)  # populate the persistent cache
        best = float("inf")
        for _ in range(3):
            runner.clear_memo()
            start = time.perf_counter()
            api.run(spec)
            best = min(best, time.perf_counter() - start)
    finally:
        api.reset_default_engine()
    return best


def _percentile(sorted_values: list[float], q: float) -> float:
    index = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[index]


def test_serve_load(bench_scale, results_dir, tmp_path):
    spec = ExperimentSpec(WORKLOAD, MACHINE, CONFIG, scale=bench_scale)
    warm_single = _baseline_warm_run(spec, tmp_path)

    socket_path = str(tmp_path / "advisor.sock")
    options = ServeOptions(
        unix_socket=socket_path,
        jobs=1,
        queue_capacity=max(64, N_REQUESTS),
        batch_linger=0.0,
        use_cache=True,
        cache_dir=str(tmp_path / "serve-cache"),
    )

    loop = asyncio.new_event_loop()
    started = threading.Event()
    box: dict = {}

    def run_server() -> None:
        asyncio.set_event_loop(loop)
        server = AdvisorServer(options)
        loop.run_until_complete(server.start())
        box["server"] = server
        started.set()
        loop.run_forever()
        loop.close()

    server_thread = threading.Thread(target=run_server, daemon=True)
    server_thread.start()
    assert started.wait(timeout=60)
    server = box["server"]

    latencies: list[float] = []
    responses: dict[int, object] = {}
    errors: list = []
    lock = threading.Lock()
    per_client = N_REQUESTS // CLIENTS
    total = per_client * CLIENTS

    def client_turn(client_index: int) -> None:
        try:
            with AdvisorClient(unix_socket=socket_path, timeout=600) as client:
                for j in range(per_client):
                    i = client_index * per_client + j
                    start = time.perf_counter()
                    response = client.advise(_request(i, bench_scale))
                    elapsed = time.perf_counter() - start
                    with lock:
                        latencies.append(elapsed)
                        responses[i] = response
        except Exception as exc:  # pragma: no cover - failure detail
            errors.append((client_index, exc))

    # Warm pass: the first request computes the cell; everything after
    # measures the warm path the gate is about.
    with AdvisorClient(unix_socket=socket_path, timeout=600) as client:
        assert client.advise(_request(0, bench_scale)).ok

    threads = [
        threading.Thread(target=client_turn, args=(c,)) for c in range(CLIENTS)
    ]
    wall_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall_start

    try:
        assert not errors, errors
        assert len(responses) == total
        assert all(r.status == "ok" for r in responses.values())

        # Byte-identity spot check against the one-shot path.
        for i in (0, total // 2, total - 1):
            one_shot = api.advise(_request(i, bench_scale))
            assert protocol.encode_response(responses[i]) == protocol.encode_response(
                one_shot
            ), f"served response {i} diverged from one-shot advise"

        ordered = sorted(latencies)
        p50 = statistics.median(ordered)
        ratio = p50 / max(warm_single, 1e-9)
        if GATED:
            assert total >= 100, f"only {total} concurrent requests served"
            assert ratio < MAX_WARM_P50_RATIO, (
                f"warm served p50 {p50 * 1e3:.2f} ms is {ratio:.2f}x one warm "
                f"api.run call ({warm_single * 1e3:.2f} ms); bound "
                f"{MAX_WARM_P50_RATIO}x"
            )

        rows = [
            ("requests served (all ok)", f"{total}"),
            ("concurrent clients x tenants", f"{CLIENTS} x {len(TENANTS)}"),
            ("wall clock", f"{wall:.2f} s"),
            ("throughput", f"{total / wall:.0f} req/s"),
            ("latency p50", f"{p50 * 1e3:.2f} ms"),
            ("latency p90", f"{_percentile(ordered, 0.90) * 1e3:.2f} ms"),
            ("latency p99", f"{_percentile(ordered, 0.99) * 1e3:.2f} ms"),
            ("latency max", f"{ordered[-1] * 1e3:.2f} ms"),
            ("one warm api.run (baseline)", f"{warm_single * 1e3:.2f} ms"),
            ("p50 / baseline", f"{ratio:.3f}x (bound {MAX_WARM_P50_RATIO}x)"),
            ("batches dispatched", f"{server.pool.batches}"),
            ("one-shot byte-identity", "ok (3 spot checks)"),
        ]
        text = render_table(
            ("metric", "value"),
            rows,
            title=(
                f"Advisor daemon load — {WORKLOAD}/{MACHINE}/{CONFIG}, "
                f"scale {bench_scale:g}, unix socket, jobs=1"
                + ("" if GATED else " (reduced scale: gates skipped)")
            ),
        )
        save_artifact(results_dir, "serve_load.txt", text)
    finally:
        asyncio.run_coroutine_threadsafe(server.shutdown(), loop).result(60)
        loop.call_soon_threadsafe(loop.stop)
        server_thread.join(timeout=30)
