"""Cipher Instruction Search against an address-scrambled DS5002FP.

The real DS5002FP enciphered the *address bus* as well as the data bus
(survey §3: "all data and addresses are in decrypted form inside the CPU
and encrypted outside"); :class:`repro.attacks.kuhn.DallasBoard` models it
with a ``scrambler``.  That kills the bus-address shortcut of
:class:`repro.attacks.kuhn.KuhnAttack` (operand values can no longer be
read off the data-address pins) — but not the attack.  Kuhn's actual
procedure was port-based, and :class:`PortBasedKuhnAttack` reproduces it
on the shared :class:`repro.attacks.kuhn.CipherInstructionSearch` harness:

* the logical->physical map is *learned from the bus*: each executed
  instruction's fetch addresses reveal where consecutive logical cells
  live physically (the CPU itself walks the permutation for the attacker);
* decryption tables are tabulated through the **parallel port**: a forged
  ``[loader, operand, OUT]`` gadget prints D(operand) for all 256 values —
  the loader class (``MOV/ADD/ORL/XRL A,#imm``) is exactly identity on the
  immediate from the reset state A = 0;
* the dump gadget is the same ``MOV A,addr16; OUT`` pair, with operands
  forged through the recovered tables (operands are *logical* addresses —
  the CPU applies the scrambler itself).

Works identically on the unscrambled board (the map learns out to be the
identity), demonstrating that address scrambling raises the probe count by
a small constant only — the security of the scheme still collapses with the
8-bit data block.
"""

from __future__ import annotations

from typing import Dict, List

from ..isa.mcu import Op, StepEvent
from .kuhn import AttackFailure, CipherInstructionSearch

__all__ = ["PortBasedKuhnAttack"]


class PortBasedKuhnAttack(CipherInstructionSearch):
    """The scrambler-immune strategy: the address map is learned from the
    fetch addresses, the tables through the parallel port, and an
    instruction's shape is the number of bytes it fetched."""

    #: The branch probe (a branch lands on cell 2), the register probe
    #: (MOV R,#imm sets R1 = 1, so a MOVI A at cell 3 reads cell 1), the
    #: one-byte probe (A shows on the port) and the two-byte probe
    #: (A = imm shows on the port).
    PLAN = (({1: 0x02, 2: 0x00}, 2),
            ({1: 1, 2: 1, 3: Op.MOVI_A}, 2),
            ({1: Op.OUT}, 2),
            ({1: 0x21, 2: Op.OUT}, 2))

    def __init__(self, board, verbose: bool = False):
        super().__init__(board, verbose)
        self._falls: Dict[int, int] = {}    # logical cell -> fall-through

    def _shape(self, event: StepEvent) -> object:
        return len(event.fetched)

    def _search(self) -> None:
        self._phase("classify-cell0")
        # The factory byte at cell 0 runs once, to show where cell 0 lives.
        self.phys[0] = self._probe({}, 1)[0].fetched[0]
        fetched = self._classify_cell0({}).fetched
        # MOV A,addr16's operand fetches reveal where logical 1 and 2 live.
        self.phys[1], self.phys[2] = fetched[1], fetched[2]
        self._log(
            f"E_0(MOV A,addr16) = {self.mov0:#04x}; "
            f"phys[0..2] = {[hex(self.phys[c]) for c in range(3)]}"
        )

        self._phase("build-runway")
        self._falls[0] = self._find_fall(0)
        self._falls[1] = self._find_fall(1)
        self.outs[2] = self._find_out(2, self._runway(2), 2)
        self._discover_next_cell(3)
        self.outs[3] = self._find_out(3, self._runway(3), 3)

        self._phase("tabulate-via-port")
        loader0 = self._find_loader0()
        self._log(f"loader at cell 0 = {loader0:#04x}")
        self.d_tables[1] = self._tabulate_via_port(1, 0, loader0, 2)
        self.d_tables[2] = self._tabulate_via_port(
            2, 1, self._forge(1, Op.MOV_A_IMM), 3
        )
        self._discover_next_cell(4)
        self.outs[4] = self._find_out(4, self._runway(4), 4)
        self.d_tables[3] = self._tabulate_via_port(
            3, 2, self._forge(2, Op.MOV_A_IMM), 4
        )
        self._log("D tables for cells 1-3 tabulated through the port")

    def _runway(self, depth: int) -> Dict[int, int]:
        """Injection map covering logical cells 0..depth-1 with known
        fall-throughs (OUT counts: it falls through)."""
        setup = {}
        for cell in range(depth):
            if cell in self._falls:
                setup[self.phys[cell]] = self._falls[cell]
            elif cell in self.outs:
                setup[self.phys[cell]] = self.outs[cell]
            else:
                raise AttackFailure(f"no runway filler for cell {cell}")
        return setup

    def _discover_next_cell(self, cell: int) -> None:
        """Learn phys[cell] by running the runway and watching the fetch."""
        events = self._probe(self._runway(cell), cell + 1)
        if len(events) <= cell:
            raise AttackFailure(f"runway stalled before cell {cell}")
        self.phys[cell] = events[cell].fetched[0]
        self._log(f"phys[{cell}] = {self.phys[cell]:#06x}")

    def _find_fall(self, cell: int) -> int:
        """A 1-byte no-effect *fall-through* encoding at logical ``cell``.

        RET shares the 1-byte no-effect signature but jumps to logical 0
        (zeroed stack) — so the candidate must also be seen handing control
        to the next cell, whose physical address is already known.
        """
        next_phys = self.phys[cell + 1]
        prefix = self._runway(cell)
        candidates = range(256)
        if cell == 0:
            candidates = [
                c for c, sig in self._signatures0.items()
                if sig[0] == 1 and not any(sig[1:])
            ]
        for candidate in candidates:
            events = self._probe({**prefix, self.phys[cell]: candidate},
                                 cell + 2)
            if len(events) <= cell + 1:
                continue
            shape, port, data_read, data_write, halted = \
                self._signature(events[cell])
            if shape != 1 or port or data_read or data_write or halted:
                continue
            following = events[cell + 1]
            if following.fetched and following.fetched[0] == next_phys:
                return candidate
        raise AttackFailure(f"no fall-through at cell {cell}")

    # -- table building through the port -------------------------------------

    def _find_loader0(self) -> int:
        """A 2-byte identity-class immediate instruction at cell 0."""
        two_byte = [
            c for c, sig in self._signatures0.items()
            if sig[0] == 2 and not any(sig[1:])
        ]
        for candidate in two_byte:
            outputs = []
            for v in (0x11, 0xB7):
                events = self._probe({
                    self.phys[0]: candidate,
                    self.phys[1]: v,
                    self.phys[2]: self.outs[2],
                }, 2)
                if len(events) < 2 or events[1].port_write is None:
                    outputs = []
                    break
                outputs.append(events[1].port_write)
            if len(outputs) == 2 and outputs[0] != outputs[1]:
                return candidate
        raise AttackFailure("no immediate loader found at cell 0")

    def _tabulate_via_port(self, cell: int, loader_cell: int,
                           loader_byte: int, out_cell: int) -> List[int]:
        """D table for ``cell`` = the operand of a loader at ``cell - 1``."""
        prefix = self._runway(loader_cell)
        prefix[self.phys[loader_cell]] = loader_byte
        out_setup = {self.phys[out_cell]: self.outs[out_cell]}
        table = [0] * 256
        seen = set()
        steps = loader_cell + 2
        for candidate in range(256):
            events = self._probe(
                {**prefix, self.phys[cell]: candidate, **out_setup}, steps
            )
            if len(events) < steps or events[steps - 1].port_write is None:
                raise AttackFailure(
                    f"port tabulation at cell {cell} lost its OUT"
                )
            value = events[steps - 1].port_write
            table[candidate] = value
            seen.add(value)
        if len(seen) != 256:
            raise AttackFailure(
                f"port table at cell {cell} is not a bijection "
                f"({len(seen)} values)"
            )
        return table
