"""The differential fuzzer: pipeline mode, mutation mode, determinism."""

from __future__ import annotations

import pytest

from repro.netlist import check_circuit
from repro.verify import (
    MUTATION_KINDS,
    fuzz_one,
    fuzz_run,
    inject_mutation,
    mutate_one,
    random_spec,
)


def test_pipeline_fuzz_clean_on_fixed_seeds():
    report = fuzz_run(rounds=4, seed=0, cycles=32)
    assert report.rounds == 4
    assert report.ok, [
        (c.seed, c.error or c.check.reason) for c in report.failures
    ]


def test_mutation_fuzz_kills_every_confirmed_mutant():
    report = fuzz_run(rounds=6, seed=0, cycles=32, mutate=True)
    assert report.ok, [
        (c.seed, c.mutation, c.error) for c in report.failures
    ]
    assert report.confirmed >= 1  # the seeds must actually exercise kills
    assert report.kill_rate == 1.0


def test_inject_mutation_is_deterministic_and_valid():
    from repro.synth import generate

    circuit = generate(random_spec(2)).circuit
    first = inject_mutation(circuit, seed=5)
    second = inject_mutation(circuit, seed=5)
    assert first is not None and second is not None
    mutant, description = first
    assert description == second[1]
    check_circuit(mutant)  # mutants are structurally valid by contract
    kind = description.split(":")[0]
    assert kind in MUTATION_KINDS + ("force_reset",)
    # the input circuit is never modified
    check_circuit(circuit)


def test_mutate_one_reports_oracle_confirmation():
    case = mutate_one(seed=1, cycles=32)
    assert case.error is None
    assert case.mutation is not None
    if case.confirmed:
        assert case.killed and case.ok


def test_time_budget_stops_early():
    report = fuzz_run(rounds=1000, seed=0, cycles=8, time_budget=0.01)
    assert 1 <= report.rounds < 1000


def test_random_spec_is_stable():
    assert random_spec(3).__dict__ == random_spec(3).__dict__


@pytest.mark.parametrize(
    "seed",
    [
        pytest.param(seed, marks=pytest.mark.xfail(strict=True, reason=reason))
        for seed, reason in (
            (96, "seed 96: fails refinement after 1 re-solve"),
            (122, "seed 122: fails refinement after 2 re-solves"),
            (114, "seed 114: fails refinement after 3 global justifications"),
            (159, "seed 159: fails refinement after 2 global justifications"),
        )
    ],
)
def test_pipeline_fuzz_known_failures(seed):
    # the CI pipeline-fuzz step (200 rounds) finds these four; the
    # failures come from mc_retime, not from the checker
    case = fuzz_one(seed)
    assert case.ok, case.error or case.check.reason
