"""The served ECO path: ``{base_key, edit}`` requests end to end."""

import threading

import pytest

from repro.eco import apply_edit_script
from repro.mcretime import mc_retime
from repro.netlist import GateFn, read_blif, write_blif
from repro.service import (
    RetimeClient,
    RetimeService,
    ServiceError,
    make_server,
)
from repro.service import engine as engine_module
from repro.synth import generate
from repro.timing import XC4000E_DELAY
from repro.verify.fuzz import random_spec

OPTIONS = {"delay_model": "xc4000e"}


def _design(k: int) -> str:
    return write_blif(generate(random_spec(k)).circuit)


def _lut_edit(text: str) -> list[dict]:
    """Flip one truth-table bit of the first LUT (a delay-preserving
    retype, the edit docs/ECO.md keeps warm)."""
    luts = [
        g for g in read_blif(text).gates.values()
        if g.fn is GateFn.LUT and g.inputs
    ]
    lut = min(luts, key=lambda g: g.name)
    flipped = lut.table ^ 1
    return [{"op": "retype_gate", "name": lut.name, "fn": "lut", "table": flipped}]


def _serve(service):
    httpd = make_server(service, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    return httpd, RetimeClient(f"http://127.0.0.1:{httpd.server_address[1]}")


@pytest.fixture(scope="module")
def served():
    service = RetimeService(workers=1, job_timeout=120.0)
    httpd, client = _serve(service)
    yield client
    client.close()
    httpd.shutdown()
    httpd.server_close()
    service.close()


def test_edit_output_matches_a_cold_solve(served):
    text = _design(3)
    base = served.retime(text, **OPTIONS)
    edit = _lut_edit(text)
    record = served.retime(None, base_key=base["design_key"], edit=edit, **OPTIONS)
    assert record["state"] == "done"
    cold = mc_retime(
        apply_edit_script(read_blif(text), edit), delay_model=XC4000E_DELAY
    )
    assert record["result"]["output"] == write_blif(cold.circuit)


def test_repeat_edit_reuses_the_workers_state(served):
    """A verified repeat has a new job key but the same solve key, so
    the one worker answers it from its retained EcoState."""
    text = _design(4)
    key = served.retime(text, **OPTIONS)["design_key"]
    edit = _lut_edit(text)
    first = served.retime(None, base_key=key, edit=edit, **OPTIONS)
    assert first["result"]["metrics"]["eco"]["plan"] == "resolve"
    again = served.retime(None, base_key=key, edit=edit, verify=True, **OPTIONS)
    assert again["job_id"] != first["job_id"]
    assert not again["cached"]
    metrics = again["result"]["metrics"]
    assert metrics["eco"]["plan"] == "reuse"
    assert metrics["verify"]["equivalent"] is True
    assert again["result"]["output"] == first["result"]["output"]


def test_unknown_base_is_a_400(served):
    with pytest.raises(ServiceError) as info:
        served.retime(None, base_key="0" * 64, edit=[], **OPTIONS)
    assert info.value.status == 400


def test_base_pushed_out_of_the_design_memory_is_a_400(monkeypatch):
    monkeypatch.setattr(engine_module, "_DESIGN_MEMORY", 1)
    service = RetimeService(workers=1, job_timeout=120.0)
    httpd, client = _serve(service)
    try:
        old = client.retime(_design(1), **OPTIONS)["design_key"]
        client.retime(_design(2), **OPTIONS)
        with pytest.raises(ServiceError) as info:
            client.retime(None, base_key=old, edit=[], **OPTIONS)
        assert info.value.status == 400
        assert "unknown base_key" in str(info.value)
    finally:
        client.close()
        httpd.shutdown()
        httpd.server_close()
        service.close()
