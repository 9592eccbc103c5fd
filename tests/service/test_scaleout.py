"""Dispatch: hash ring, shard affinity, backpressure, async HTTP front-end."""

import json
import socket
import statistics
import threading
import time
from pathlib import Path

import pytest

from repro.service import (
    HashRing,
    RetimeClient,
    RetimeJob,
    RetimePool,
    RetimeService,
    PoolSaturatedError,
    ServiceOverloadedError,
    make_server,
)

DATA = Path(__file__).resolve().parent.parent / "data"


def _job(name="c2_small_mapped", **options):
    return RetimeJob.from_file(DATA / f"{name}.blif", **options)


def _spin_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:  # pragma: no cover
            raise AssertionError("condition not reached in time")
        time.sleep(0.01)


class TestHashRing:
    def test_deterministic_and_stable_across_rebuilds(self):
        keys = [f"design-{i}" for i in range(200)]
        one, two = HashRing(4), HashRing(4)
        assert [one.shard(k) for k in keys] == [two.shard(k) for k in keys]

    def test_spread_is_roughly_balanced(self):
        ring = HashRing(4)
        keys = [f"fp{i:04x}" for i in range(400)]
        counts = [0, 0, 0, 0]
        for key in keys:
            counts[ring.shard(key)] += 1
        assert min(counts) > 0
        assert max(counts) < 0.6 * len(keys)

    def test_single_shard_degenerates_to_zero(self):
        ring = HashRing(1)
        assert {ring.shard(f"k{i}") for i in range(32)} == {0}


class TestShardAffinity:
    def test_same_design_lands_on_one_shard(self):
        """A target-period sweep of one design keeps its home worker."""
        svc = RetimeService(workers=2, job_timeout=120.0)
        try:
            periods = [20.0, 21.0, 22.0, 23.0]
            jobs = [_job(target_period=p) for p in periods]
            results = svc.batch(jobs)
            assert all(r.ok for r in results)
            stats = svc.pool.stats()
            homes = {
                slot
                for slot, shard in enumerate(stats["shards"])
                if shard["dispatched"] - shard["stolen"] > 0
            }
            # every non-stolen dispatch of this design went to one home
            assert len(homes) == 1
        finally:
            svc.close()

    def test_pool_shard_for_is_stable(self):
        pool = RetimePool(workers=4)
        keys = [f"fp-{i}" for i in range(64)]
        want = [pool.shard_for(k) for k in keys]
        again = RetimePool(workers=4)
        assert [again.shard_for(k) for k in keys] == want
        assert len(set(want)) > 1  # actually spreads


class TestBackpressure:
    def test_pool_submit_raises_when_full(self):
        pool = RetimePool(workers=1, job_timeout=5.0, max_pending=1).start()
        try:
            pool.submit("h1", _job(flow="__hang__"))
            _spin_until(lambda: pool.queue_depth() == 0)  # h1 dispatched
            pool.submit("h2", _job("c3_small", flow="__hang__"))
            with pytest.raises(PoolSaturatedError) as info:
                pool.submit("h3", _job("c3_small_mapped", flow="__hang__"))
            assert info.value.pending == 1 and info.value.limit == 1
        finally:
            pool.close()

    def test_service_sheds_with_typed_error_and_metrics(self):
        svc = RetimeService(workers=1, job_timeout=2.0, max_retries=0,
                            max_pending=1)
        try:
            svc.submit(_job(flow="__hang__"))
            _spin_until(lambda: svc.pool.queue_depth() == 0)
            svc.submit(_job("c3_small", flow="__hang__"))
            shed = _job("c3_small_mapped", flow="__hang__")
            with pytest.raises(ServiceOverloadedError) as info:
                svc.submit(shed)
            assert info.value.status == 429
            assert info.value.retry_after >= 1
            assert svc.metrics.counter("repro_jobs_shed_total").total() == 1
            # a shed job leaves no ghost record behind
            assert svc.status(shed.canonical_key) is None
        finally:
            svc.close()

    def test_shed_surfaces_as_429_through_http_client(self):
        svc = RetimeService(workers=1, job_timeout=2.0, max_retries=0,
                            max_pending=1)
        httpd = make_server(svc, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        client = RetimeClient(f"http://127.0.0.1:{httpd.server_address[1]}")
        try:
            client.submit((DATA / "c2_small.blif").read_text(), flow="__hang__")
            _spin_until(lambda: svc.pool.queue_depth() == 0)
            client.submit((DATA / "c3_small.blif").read_text(), flow="__hang__")
            with pytest.raises(ServiceOverloadedError) as info:
                client.submit(
                    (DATA / "c2_small_mapped.blif").read_text(),
                    flow="__hang__",
                )
            assert info.value.status == 429
            assert info.value.retry_after >= 1
        finally:
            client.close()
            httpd.shutdown()
            httpd.server_close()
            svc.close()


@pytest.fixture(scope="module")
def async_server():
    service = RetimeService(workers=1, job_timeout=120.0)
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield httpd.server_address[1]
    httpd.shutdown()
    httpd.server_close()
    service.close()


class TestAsyncFrontEnd:
    def test_keep_alive_reuses_one_connection(self, async_server):
        client = RetimeClient(f"http://127.0.0.1:{async_server}")
        try:
            client.healthz()
            sock_before = client._conn.sock
            assert sock_before is not None
            client.healthz()
            client.metrics_text()
            assert client._conn.sock is sock_before
        finally:
            client.close()

    def test_pipelined_requests_on_one_socket(self, async_server):
        """Two requests written back-to-back get two in-order responses."""
        request = (
            "GET /healthz HTTP/1.1\r\n"
            f"Host: 127.0.0.1:{async_server}\r\n"
            "\r\n"
        )
        with socket.create_connection(("127.0.0.1", async_server), 10) as sock:
            sock.sendall((request + request).encode())
            sock.settimeout(10)
            data = b""
            deadline = time.monotonic() + 10
            while data.count(b'"status": "ok"') < 2:
                if time.monotonic() > deadline:  # pragma: no cover
                    raise AssertionError(f"pipelined responses missing: {data!r}")
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        # two complete, parseable responses arrived in order
        head, _, rest = data.partition(b"\r\n")
        assert head == b"HTTP/1.1 200 OK"
        assert data.count(b"HTTP/1.1 200 OK") == 2

    def test_connection_close_is_honored(self, async_server):
        with socket.create_connection(("127.0.0.1", async_server), 10) as sock:
            sock.sendall(
                (
                    "GET /healthz HTTP/1.1\r\n"
                    f"Host: x\r\nConnection: close\r\n\r\n"
                ).encode()
            )
            sock.settimeout(10)
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        assert b"HTTP/1.1 200 OK" in data
        assert b'"status": "ok"' in data

    def test_keep_alive_round_trip_has_no_nagle_floor(self, async_server):
        """Responses leave at once: without TCP_NODELAY on the accepted
        socket each keep-alive round trip waits ~40 ms on Nagle plus
        the client's delayed ACK."""
        client = RetimeClient(f"http://127.0.0.1:{async_server}")
        try:
            client.healthz()
            times = []
            for _ in range(21):
                t0 = time.perf_counter()
                client.healthz()
                times.append(time.perf_counter() - t0)
        finally:
            client.close()
        assert statistics.median(times) < 0.020

    def test_stale_client_connection_retries_transparently(self, async_server):
        client = RetimeClient(f"http://127.0.0.1:{async_server}")
        try:
            client.healthz()
            # simulate a server-side idle drop between requests
            client._conn.sock.close()
            assert client.healthz()["status"] == "ok"
        finally:
            client.close()

    def test_runs_streams_chunked(self, async_server):
        # /runs without a ledger 404s; exercise chunked framing on a
        # streaming-capable route via raw HTTP to see the wire format
        with socket.create_connection(("127.0.0.1", async_server), 10) as sock:
            sock.sendall(
                (
                    "GET /metrics HTTP/1.1\r\n"
                    f"Host: x\r\nConnection: close\r\n\r\n"
                ).encode()
            )
            sock.settimeout(10)
            data = b""
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                data += chunk
        assert b"repro_jobs_submitted_total" in data
