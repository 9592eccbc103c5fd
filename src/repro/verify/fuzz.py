"""Differential fuzzing of the retiming pipeline.

Two modes, both deterministic in the seed:

* **pipeline fuzzing** (:func:`fuzz_one` / :func:`fuzz_run`) — generate
  a random multi-class design, push it through the production pipeline
  (arch prepare, LUT mapping, :func:`~repro.mcretime.mc_retime`), and
  refinement-check every result with the coverage-directed sequential
  checker.  Any failure comes back with a shrunk scalar counterexample.

* **mutation fuzzing** (:func:`inject_mutation` / ``fuzz_run(...,
  mutate=True)``) — take a *correct* retiming result and corrupt it
  with a known-bad register move (flipped reset value, deleted /
  inserted register, dropped or inverted enable), then demand the
  checker catch it.  A mutation that happens to be behaviourally benign
  (for example deleting a dead register) is first filtered out by the
  scalar-oracle engine over the identical stimulus plan, so the kill
  rate is an honest differential statement: every oracle-confirmed bad
  mutant must be killed by the bit-parallel engine.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable

from .. import obs
from ..netlist import Circuit, GateFn, check_circuit
from ..logic.ternary import T0, T1, TX
from .sequential import SequentialCheckResult, check_sequential

#: mutation kinds, in the order :func:`inject_mutation` tries them
MUTATION_KINDS = (
    "flip_reset",
    "drop_register",
    "extra_register",
    "drop_enable",
    "invert_enable",
)


def random_spec(seed: int):
    """A random multi-class :class:`~repro.synth.DesignSpec` for *seed*.

    Small enough to fuzz in bulk, broad enough to hit every register
    class combination (EN / SS-SC / AS-AC, derived controls, multiple
    classes).
    """
    from ..synth import DesignSpec

    rng = random.Random(seed * 0x9E3779B1 + 1)
    return DesignSpec(
        name=f"fuzz{seed}",
        seed=rng.randrange(1 << 30),
        target_ff=rng.randint(8, 26),
        target_gates=rng.randint(50, 200),
        n_classes=rng.randint(1, 5),
        has_enable=rng.random() < 0.8,
        has_async=rng.random() < 0.8,
        has_sync=rng.random() < 0.4,
        derived_controls=rng.choice((0.0, 0.3, 0.6)),
        logic_depth=rng.randint(3, 9),
        n_inputs=rng.randint(4, 10),
    )


@dataclass
class FuzzCase:
    """One fuzzed pipeline run."""

    seed: int
    ok: bool
    #: checker verdict (None when the pipeline itself raised)
    check: SequentialCheckResult | None = None
    #: pipeline exception, formatted (pipeline bugs count as failures)
    error: str | None = None
    #: mutation description when running in mutation mode
    mutation: str | None = None
    #: mutation-mode only: scalar oracle confirmed the mutant as bad
    confirmed: bool = False
    #: mutation-mode only: the bit-parallel checker caught it
    killed: bool = False


@dataclass
class FuzzReport:
    """Aggregate outcome of a fuzzing run."""

    rounds: int = 0
    failures: list[FuzzCase] = field(default_factory=list)
    #: mutation mode: oracle-confirmed bad mutants / killed by checker
    confirmed: int = 0
    killed: int = 0
    #: mutation mode: mutants the oracle found behaviourally benign
    benign: int = 0
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def kill_rate(self) -> float:
        """Killed / confirmed-bad; 1.0 when nothing was confirmed."""
        if not self.confirmed:
            return 1.0
        return self.killed / self.confirmed

    def summary(self) -> str:
        parts = [f"{self.rounds} rounds", f"{len(self.failures)} failures"]
        if self.confirmed or self.benign:
            parts.append(
                f"{self.killed}/{self.confirmed} mutants killed "
                f"({self.benign} benign)"
            )
        parts.append(f"{self.elapsed:.1f}s")
        return ", ".join(parts)


def _pipeline(seed: int, objective: str):
    """generate -> arch prepare -> map -> mc_retime; returns the mapped
    original and the retimed circuit."""
    from ..mcretime import mc_retime
    from ..synth import generate
    from ..techmap import XC4000E_ARCH, map_luts
    from ..timing import XC4000E_DELAY

    design = generate(random_spec(seed))
    work = design.circuit.clone()
    XC4000E_ARCH.prepare(work)
    mapped = map_luts(work).circuit
    result = mc_retime(mapped, delay_model=XC4000E_DELAY, objective=objective)
    check_circuit(result.circuit)
    return mapped, result.circuit


def fuzz_one(
    seed: int,
    cycles: int = 48,
    engine: str = "bits",
) -> FuzzCase:
    """Run one random design through the full pipeline and check it."""
    objective = "minperiod" if seed % 3 == 0 else "minarea"
    try:
        mapped, retimed = _pipeline(seed, objective)
        check = check_sequential(
            mapped, retimed, cycles=cycles, seed=seed, engine=engine
        )
        return FuzzCase(seed, ok=check.equivalent, check=check)
    except Exception as exc:  # pipeline bug — report, don't crash the run
        return FuzzCase(seed, ok=False, error=f"{type(exc).__name__}: {exc}")


# --------------------------------------------------------------------- #
# mutation mode


def inject_mutation(
    circuit: Circuit, seed: int
) -> tuple[Circuit, str] | None:
    """Corrupt *circuit* with one known-bad register move.

    Returns ``(mutant, description)``, or None when the circuit offers
    no mutation site (no registers).  The mutant is a fresh clone and
    is structurally valid (:func:`check_circuit` passes) — dropping a
    register on a feedback path would create a combinational cycle, so
    candidates like that are discarded and the next kind is tried.  The
    input circuit is never modified.  Note "known-bad" means
    *structurally* wrong — a valid mutation can still be behaviourally
    benign (dead register, enable that never gates anything); callers
    filter those with the scalar oracle.
    """
    rng = random.Random(seed * 0x51ED2701 + 3)
    regs = sorted(circuit.registers)
    if not regs:
        return None

    def attempt(kind: str) -> tuple[Circuit, str] | None:
        mutant = circuit.clone()
        reg = mutant.registers[rng.choice(regs)]
        if kind == "flip_reset":
            if reg.sval in (T0, T1):
                reg.sval = T1 if reg.sval == T0 else T0
                return mutant, f"flip_reset: {reg.name} sval"
            if reg.aval in (T0, T1):
                reg.aval = T1 if reg.aval == T0 else T0
                return mutant, f"flip_reset: {reg.name} aval"
        elif kind == "drop_register":
            mutant.remove_register(reg.name)
            mutant.replace_net(reg.q, reg.d)
            return mutant, f"drop_register: {reg.name}"
        elif kind == "extra_register":
            gates = sorted(mutant.gates)
            if not gates:
                return None
            gate = mutant.gates[rng.choice(gates)]
            net = gate.output
            delayed = mutant.new_net("mut_q")
            mutant.replace_net(net, delayed)
            mutant.add_register(d=net, q=delayed, clk=reg.clk, aval=T0)
            return mutant, f"extra_register: after {net}"
        elif kind == "drop_enable":
            if reg.has_enable:
                mutant.set_register_pin(reg, "en", None)
                return mutant, f"drop_enable: {reg.name}"
        elif kind == "invert_enable":
            if reg.has_enable:
                inv = mutant.add_gate(
                    GateFn.NOT, [reg.en], mutant.new_net("mut_nen")
                )
                mutant.set_register_pin(reg, "en", inv.output)
                return mutant, f"invert_enable: {reg.name}"
        return None

    for kind in rng.sample(MUTATION_KINDS, len(MUTATION_KINDS)):
        injected = attempt(kind)
        if injected is None:
            continue
        try:
            check_circuit(injected[0])
        except Exception:
            continue  # e.g. dropping a feedback register: comb. cycle
        return injected
    # fall back to forcing a reset value onto a reset-free register
    mutant = circuit.clone()
    reg = mutant.registers[rng.choice(regs)]
    if reg.sval == TX and reg.aval == TX:
        reg.aval = T1
        # tie async reset to the clock net: always on
        mutant.set_register_pin(reg, "ar", reg.clk)
        return mutant, f"force_reset: {reg.name}"
    return None


def mutate_one(
    seed: int,
    cycles: int = 48,
) -> FuzzCase:
    """One mutation round: retime correctly, corrupt the result, demand
    the bit-parallel checker kill every oracle-confirmed bad mutant."""
    objective = "minperiod" if seed % 3 == 0 else "minarea"
    try:
        mapped, retimed = _pipeline(seed, objective)
        injected = inject_mutation(retimed, seed)
        if injected is None:
            return FuzzCase(seed, ok=True, mutation="no mutation site")
        mutant, description = injected
        check_circuit(mutant)
        oracle = check_sequential(
            mapped, mutant, cycles=cycles, seed=seed,
            engine="scalar", shrink=False,
        )
        if oracle.equivalent:
            return FuzzCase(
                seed, ok=True, mutation=f"{description} (benign)"
            )
        check = check_sequential(
            mapped, mutant, cycles=cycles, seed=seed, engine="bits"
        )
        killed = not check.equivalent
        return FuzzCase(
            seed,
            ok=killed,
            check=check,
            mutation=description,
            confirmed=True,
            killed=killed,
        )
    except Exception as exc:
        return FuzzCase(seed, ok=False, error=f"{type(exc).__name__}: {exc}")


def fuzz_run(
    rounds: int = 20,
    seed: int = 0,
    cycles: int = 48,
    mutate: bool = False,
    time_budget: float | None = None,
    on_case: Callable[[FuzzCase], None] | None = None,
) -> FuzzReport:
    """Fuzz for *rounds* rounds (or until *time_budget* seconds elapse,
    whichever comes first).  ``mutate=True`` switches to mutation mode.
    """
    report = FuzzReport()
    start = time.monotonic()
    with obs.span(
        "verify.fuzz", rounds=rounds, mutate=mutate, seed=seed
    ):
        for i in range(rounds):
            if (
                time_budget is not None
                and report.rounds > 0
                and time.monotonic() - start > time_budget
            ):
                break
            case = (
                mutate_one(seed + i, cycles=cycles)
                if mutate
                else fuzz_one(seed + i, cycles=cycles)
            )
            report.rounds += 1
            obs.count("verify.fuzz_rounds")
            if case.confirmed:
                report.confirmed += 1
                report.killed += case.killed
            elif mutate and case.ok and case.error is None:
                report.benign += 1
            if not case.ok:
                report.failures.append(case)
                obs.count("verify.fuzz_failures")
            if on_case is not None:
                on_case(case)
    report.elapsed = time.monotonic() - start
    return report
