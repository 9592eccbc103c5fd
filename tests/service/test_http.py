"""HTTP API integration: server routes, client, error handling."""

import json
import threading
import urllib.request
from pathlib import Path

import pytest

from repro.service import (
    RetimeClient,
    RetimeService,
    ServiceError,
    make_server,
)

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="module")
def server():
    service = RetimeService(workers=2, job_timeout=120.0)
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    client = RetimeClient(f"http://127.0.0.1:{httpd.server_address[1]}")
    yield client
    httpd.shutdown()
    httpd.server_close()
    service.close()


class TestRoutes:
    def test_healthz(self, server):
        health = server.healthz()
        assert health["status"] == "ok"
        assert health["workers"] == 2
        assert set(health["jobs"]) >= {"queued", "running", "done", "failed"}

    def test_retime_blocking(self, server):
        text = (DATA / "c2_small_mapped.blif").read_text()
        record = server.retime(text, name="c2_small_mapped")
        assert record["state"] == "done"
        result = record["result"]
        assert result["status"] == "done"
        assert result["output"].startswith(".model")
        assert result["metrics"]["final"]["n_ff"] > 0

    def test_submit_then_poll(self, server):
        text = (DATA / "c3_small_mapped.blif").read_text()
        record = server.submit(text, name="c3_small_mapped")
        assert "job_id" in record
        final = server.wait(record["job_id"], timeout=120)
        assert final["state"] == "done"

    def test_resubmission_is_cache_hit(self, server):
        text = (DATA / "c2_small_mapped.blif").read_text()
        server.retime(text, name="c2_small_mapped")
        record = server.retime(text, name="c2_small_mapped")
        assert record["result"]["cached"] is True

    def test_metrics_exposition(self, server):
        text = server.metrics_text()
        assert "# TYPE repro_jobs_submitted_total counter" in text
        assert "repro_job_latency_seconds_bucket" in text

    def test_transform_job_over_http(self, server):
        text = (DATA / "c2_small_mapped.blif").read_text()
        record = server.retime(text, transform="cslow", factor=2)
        assert record["state"] == "done"
        transform = record["result"]["metrics"]["transform"]
        assert transform["kind"] == "cslow" and transform["factor"] == 2

    def test_bad_transform_factor_is_400(self, server):
        with pytest.raises(ServiceError) as info:
            server.retime("text", transform="cslow", factor=0)
        assert info.value.status == 400

    def test_job_options_rejected_cleanly(self, server):
        with pytest.raises(ServiceError) as info:
            server.retime("text", flow="bogus")
        assert info.value.status == 400

    def test_unparsable_netlist_is_400(self, server):
        with pytest.raises(ServiceError) as info:
            server.retime(".model x\nnot blif at all\n")
        assert info.value.status == 400

    def test_unknown_job_is_404(self, server):
        with pytest.raises(ServiceError) as info:
            server.job("deadbeef")
        assert info.value.status == 404

    def test_unknown_route_is_404(self, server):
        with pytest.raises(ServiceError) as info:
            server._request("GET", "/nope")
        assert info.value.status == 404

    def test_malformed_json_body_is_400(self, server):
        req = urllib.request.Request(
            server.base_url + "/retime",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(req, timeout=30)
        assert info.value.code == 400
        assert "error" in json.loads(info.value.read())


class TestObservabilityRoutes:
    def test_build_info_and_uptime_on_metrics(self, server):
        text = server.metrics_text()
        assert "# TYPE repro_build_info gauge" in text
        assert 'repro_build_info{' in text and 'git_sha="' in text
        assert "# TYPE repro_process_uptime_seconds gauge" in text
        uptime = [
            line
            for line in text.splitlines()
            if line.startswith("repro_process_uptime_seconds ")
        ]
        assert uptime and float(uptime[0].split()[-1]) > 0

    def test_runs_404_without_ledger(self, server):
        with pytest.raises(ServiceError) as info:
            server._request("GET", "/runs")
        assert info.value.status == 404

    def test_profile_bad_params_400(self, server):
        for query in ("seconds=0", "seconds=bogus", "seconds=9999"):
            with pytest.raises(ServiceError) as info:
                server._request("GET", f"/debug/profile?{query}")
            assert info.value.status == 400


@pytest.fixture()
def ledger_server(tmp_path):
    service = RetimeService(
        workers=2, job_timeout=120.0, ledger=tmp_path / "runs.jsonl"
    )
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    client = RetimeClient(f"http://127.0.0.1:{httpd.server_address[1]}")
    yield client, service
    httpd.shutdown()
    httpd.server_close()
    service.close()


class TestRunsAndProfile:
    def test_runs_tail_after_job(self, ledger_server):
        client, service = ledger_server
        text = (DATA / "c2_small_mapped.blif").read_text()
        record = client.retime(text, name="c2_small_mapped")
        assert record["state"] == "done"
        body = client._request("GET", "/runs?n=10")
        assert len(body["runs"]) == 1
        run = body["runs"][0]
        assert run["kind"] == "service.job"
        assert run["run_id"] == record["job_id"][:16]
        assert run["fingerprint"] == record["job_id"]
        assert run["spans"], "worker span totals missing from ledger record"
        assert run["config"]["flow"] == "mcretime"
        assert run["metrics"]["elapsed"] > 0

    def test_span_exemplars_name_the_job(self, ledger_server):
        client, _service = ledger_server
        text = (DATA / "c2_small_mapped.blif").read_text()
        record = client.retime(text, name="c2_small_mapped")
        run_id = record["job_id"][:16]
        exemplars = [
            line
            for line in client.metrics_text().splitlines()
            if line.startswith("repro_span_seconds_bucket") and " # {" in line
        ]
        assert exemplars
        assert all(f'run="{run_id}"' in line for line in exemplars)

    def test_debug_profile_speedscope(self, ledger_server):
        client, _service = ledger_server
        scope = client._request("GET", "/debug/profile?seconds=0.2&interval=0.01")
        assert scope["$schema"].startswith("https://www.speedscope.app")
        assert scope["profiles"][0]["type"] == "sampled"


class TestNoRetainedJobs:
    def test_wait_returns_the_result_with_cache_memory_zero(self):
        """With no finished job retained, a blocking POST still answers
        from the record it waited on; the id is a 404 afterwards."""
        service = RetimeService(workers=1, job_timeout=120.0, cache_memory=0)
        httpd = make_server(service, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        client = RetimeClient(f"http://127.0.0.1:{httpd.server_address[1]}")
        try:
            text = (DATA / "c2_small_mapped.blif").read_text()
            record = client.retime(text, name="c2_small_mapped")
            assert record["state"] == "done"
            assert record["result"]["output"].startswith(".model")
            again = client.retime(text, name="c2_small_mapped")
            assert again["state"] == "done" and again["cached"] is False
            assert again["result"]["output"] == record["result"]["output"]
            with pytest.raises(ServiceError) as info:
                client.job(record["job_id"])
            assert info.value.status == 404
            assert client.healthz()["jobs"]["done"] == 0
        finally:
            client.close()
            httpd.shutdown()
            httpd.server_close()
            service.close()
