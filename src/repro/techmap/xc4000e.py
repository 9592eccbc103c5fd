"""Xilinx XC4000E architecture model (paper Sec. 6 target).

The relevant architectural facts (from the 1996 Programmable Logic Data
Book, mirrored by the paper's experimental setup):

* each CLB offers 4-input function generators — we model plain 4-LUTs;
* every CLB flip-flop has a clock enable (EN) and an asynchronous set
  *or* reset, but **no synchronous set/clear** — so SS/SC pins must be
  decomposed into logic before mapping (exactly what the paper does);
* delays come from :class:`repro.timing.delay_models.XC4000EDelayModel`.

:meth:`~XC4000E.prepare` performs the architecture legalisation,
:meth:`~XC4000E.bind_async_resets` gives every async set/reset a
definite value, and :meth:`~XC4000E.check_mapped` verifies a netlist is
implementable.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..logic.ternary import T0, TX
from ..netlist import Circuit, GateFn
from ..timing.delay_models import XC4000E_DELAY, XC4000EDelayModel
from .decompose import decompose_sync_resets


class ArchitectureError(Exception):
    """Raised when a netlist cannot be implemented on the target."""


@dataclass(frozen=True)
class XC4000E:
    """Architecture capability record."""

    lut_inputs: int = 4
    ff_has_enable: bool = True
    ff_has_async: bool = True
    ff_has_sync: bool = False
    delay_model: XC4000EDelayModel = XC4000E_DELAY

    def prepare(self, circuit: Circuit) -> int:
        """Legalise registers in place (decompose SS/SC, bind don't-care
        async reset values); returns the number of SS/SC decomposed."""
        self.bind_async_resets(circuit)
        return decompose_sync_resets(circuit)

    def bind_async_resets(self, circuit: Circuit) -> None:
        """Bind every don't-care (``-``) async reset value to 0 in place.

        An on-chip flip-flop's set/reset loads a definite value, and 0
        refines ``-``.  Relocation can leave ``-`` on retimed registers;
        left alone, ternary simulation loses that X differently through
        a remapped LUT structure.
        """
        for reg in circuit.registers.values():
            if reg.aval == TX and reg.has_async_reset:
                reg.aval = T0

    def check_mapped(self, circuit: Circuit) -> None:
        """Raise :class:`ArchitectureError` on unimplementable cells."""
        for gate in circuit.gates.values():
            if gate.fn is GateFn.CARRY:
                continue  # dedicated carry-chain resource
            if gate.fn is not GateFn.LUT:
                raise ArchitectureError(
                    f"gate {gate.name!r} is not a LUT (run map_luts)"
                )
            if gate.n_inputs > self.lut_inputs:
                raise ArchitectureError(
                    f"LUT {gate.name!r} has {gate.n_inputs} inputs "
                    f"(max {self.lut_inputs})"
                )
        for reg in circuit.registers.values():
            if reg.has_sync_reset and not self.ff_has_sync:
                raise ArchitectureError(
                    f"register {reg.name!r} uses a synchronous set/clear"
                )
            if reg.has_enable and not self.ff_has_enable:
                raise ArchitectureError(
                    f"register {reg.name!r} uses a clock enable"
                )
            if reg.has_async_reset and not self.ff_has_async:
                raise ArchitectureError(
                    f"register {reg.name!r} uses an async set/clear"
                )
            if reg.has_async_reset and reg.aval == TX:
                raise ArchitectureError(
                    f"register {reg.name!r} has a don't-care async reset "
                    "value (run bind_async_resets)"
                )


#: Shared architecture instance.
XC4000E_ARCH = XC4000E()
