"""Kuhn's Cipher Instruction Search attack on the DS5002FP ([6], §2.3).

"The security principle of this microcontroller is based on a ciphering by
block of 8-bit instructions.  The hacker circumvents the cryptographic
problem by finding a hole in the architecture processing and by applying
exhaustive attack (8-bit instruction <=> 256 possibilities).  After having
identified the MOV instruction, he dumped the external memory content in
clear form through the parallel-port."

Attacker model (a board-level class-II adversary, per the survey's IBM
taxonomy): raw read/write access to external memory (ciphertext bytes),
control of reset, single stepping, observation of the bus (fetch and data
addresses) and of the parallel port, and knowledge of the instruction set —
the part is a standard 8051 flavour; only the key is secret.

The attack never touches the key.  It exploits the 8-bit block: at any
address there are only 256 possible ciphertext bytes, so the per-address
decryption function can be tabulated *by experiment*:

1. **Classify address 0.**  Inject each of the 256 candidate bytes at
   address 0 and observe one instruction execute.  Behaviour (instruction
   length read off the fetch addresses, port strobes, data-bus activity)
   identifies the candidate decoding to the 3-byte ``MOV A, addr16`` —
   uniquely, because it is the only length-3 instruction that issues a data
   read.  The signatures of all 256 candidates are kept (they also decode
   the factory byte at cell 0 later).
2. **Tabulate D_1 and D_2 from the bus.**  With ``MOV A, addr16`` planted
   at 0, the *decoded* operands appear on the bus as the data address:
   sweeping the ciphertext byte at address 1 reads off the full D_1 table
   (low address byte), sweeping address 2 reads off D_2.  These tables are
   the decryption of those cells — and their inverses let the attacker
   *forge* arbitrary bytes there, including opcodes.
3. **Find E_3(OUT).**  Point the read gadget somewhere harmless and sweep
   address 3 until a port strobe appears.
4. **Dump.**  For every target t outside the gadget,
   ``[E_0(MOV A,addr16), E_1(lo t), E_2(hi t), E_3(OUT)]`` prints the
   plaintext byte on the port.
5. **The gadget's own cells.**  Cells 1 and 2 are table lookups
   (plaintext = D[factory byte]).  Cell 3's table D_3 is built by forging a
   second read instruction *at address 1* (possible since D_1/D_2 are
   known) whose operand cell is 3.  Cell 0 cannot appear as an operand of
   any reachable instruction (execution always begins there), so it is
   decoded by simulating the public ISA: each of the 256 candidate
   plaintexts runs on a key-less :class:`repro.isa.mcu.MCU` over the known
   plaintexts of cells 1-3, and survives while it shows what the board
   showed (its phase-1 signature, then the strategy's ``PLAN`` probes).
   Opcodes behaviourally identical from reset (e.g. ``MOV A,#x`` vs
   ``XRL A,#x`` with A=0) survive together and are reported as an
   explicit ambiguity set — the same residual uncertainty the physical
   attack has.

Cost: ~5 x 256 probe runs, at most four more for cell 0 (a ``PLAN`` probe
runs only when the survivors disagree on it), and one run per dumped
byte — exactly the "exhaustive attack, 256 possibilities" scale the
survey describes.

:class:`DallasBoard` is the one board model; its optional ``scrambler``
enciphers the address bus as the real part did.  What every strategy
shares — probing, restoring the factory image, forging bytes through the
D tables, the dump gadget and the dump loop — is
:class:`CipherInstructionSearch`.  :class:`KuhnAttack` is the bus-address
strategy above, for a clear address bus;
:class:`repro.attacks.kuhn_scrambled.PortBasedKuhnAttack` is the
port-based one that also breaks the scrambled board.

Against the DS5240's 64-bit blocks the same experiment collapses:
:func:`brute_force_tries` counts the 2^64 per-address search space, and
:func:`block_diffusion_probe` shows single-byte probes garbling whole
blocks, denying the search its foothold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from ..crypto.address_scrambler import AddressScrambler
from ..crypto.feistel import SmallBlockCipher, TweakableFeistel
from ..isa.mcu import MCU, Op, StepEvent
from ..obs import EventSink, current_sink

__all__ = ["DallasBoard", "CipherInstructionSearch", "KuhnAttack",
           "AttackFailure", "AttackReport", "brute_force_tries",
           "block_diffusion_probe"]


class AttackFailure(Exception):
    """The search did not find the gadget it needed."""


class DallasBoard:
    """The victim: encrypted firmware + MCU, exposed at board level.

    The attacker talks only to this class's public API; the cipher instance
    and the address map are sealed inside the hooks handed to the MCU — the
    key never leaves the "chip".  With a ``scrambler`` the part enciphers
    its address bus as well (survey §3): logical cell ``l`` lives at
    physical ``scrambler.scramble(l)``, enciphered under that physical
    address, and the bus shows physical addresses only.
    """

    def __init__(self, cipher: SmallBlockCipher, firmware: bytes,
                 memory_size: int = 4096,
                 scrambler: Optional[AddressScrambler] = None,
                 sink: Optional[EventSink] = None):
        if not 1 <= memory_size <= 0x10000:
            raise ValueError(
                f"memory_size must be in [1, 0x10000] (16-bit operands), "
                f"got {memory_size}"
            )
        if len(firmware) > memory_size:
            raise ValueError("firmware larger than external memory")
        if scrambler is not None and scrambler.size != memory_size:
            raise ValueError(
                f"scrambler covers {scrambler.size} addresses, "
                f"the board has {memory_size}"
            )
        self.sink = sink if sink is not None else current_sink()
        self.memory_size = memory_size
        # The logical -> physical map, built once.  Without a scrambler the
        # MCU gets no translate hook, so the clear bus keeps showing the
        # unwrapped 16-bit operand the bus-address strategy reads.
        if scrambler is None:
            phys = np.arange(memory_size, dtype=np.uint64)
            translate = None
        else:
            table = [scrambler.scramble(a) for a in range(memory_size)]
            phys = np.array(table, dtype=np.uint64)
            translate = table.__getitem__
        padded = bytes(firmware).ljust(memory_size, b"\x00")
        image = np.empty(memory_size, dtype=np.uint8)
        image[phys] = np.frombuffer(cipher.encrypt(phys, padded),
                                    dtype=np.uint8)
        self.memory = bytearray(image.tobytes())
        self._mcu = MCU(
            self.memory,
            decrypt=cipher.decrypt_byte,
            encrypt=cipher.encrypt_byte,
            translate=translate,
        )
        self.runs = 0
        self.steps_executed = 0

    # -- attacker API (physical addresses only) ------------------------------

    def read_raw(self, addr: int, nbytes: int = 1) -> bytes:
        """Board-level memory read (ciphertext)."""
        return bytes(self.memory[addr: addr + nbytes])

    def write_raw(self, addr: int, data: bytes) -> None:
        """Board-level memory write (inject ciphertext)."""
        self.memory[addr: addr + len(data)] = data

    def reset_and_step(self, steps: int) -> List[StepEvent]:
        """Pulse reset, then single-step ``steps`` instructions."""
        self._mcu.reset()
        self._mcu.port_log.clear()
        self.runs += 1
        if self.sink is not None:
            self.sink.note("probe-run", size=steps)
        events = []
        pc = 0
        # The sink test is hoisted out of the loop: the attack single-steps
        # millions of instructions, and the disabled path must stay free.
        sink = self.sink
        for _ in range(steps):
            event = self._mcu.step()
            events.append(event)
            self.steps_executed += 1
            if sink is not None:
                sink.note("mcu-step", addr=pc,
                          detail="halted" if event.halted else "")
            pc = event.next_pc
            if event.halted:
                break
        return events


# Behaviour signature: (shape, port?, data_read?, data_write?, halted?)
# where shape is what the strategy reads off the bus (see ``_shape``).
_Signature = Tuple[object, bool, bool, bool, bool]

# The gadget's cells, whose plaintexts the cell-0 decoder knows.
_GADGET = range(4)


def _invert(table: List[int]) -> List[int]:
    inverse = [0] * 256
    for c, p in enumerate(table):
        inverse[p] = c
    return inverse


@dataclass
class AttackReport:
    """Everything the attack recovered, plus its cost."""

    plaintext: bytes
    ambiguous_cells: Dict[int, Set[int]]
    probe_runs: int
    steps_executed: int
    d_tables: Dict[int, List[int]] = field(default_factory=dict)

    @property
    def fully_determined(self) -> bool:
        return not self.ambiguous_cells


class CipherInstructionSearch:
    """Kuhn's Cipher Instruction Search [6] against a :class:`DallasBoard`.

    A strategy's :meth:`_search` fills ``phys`` (logical cell -> physical
    address, cells 0-3 at least), ``d_tables`` (decryption tables of cells
    1-3), ``mov0`` (E_0(MOV A,addr16)) and ``outs[3]`` (E_3(OUT)); its
    ``PLAN`` lists the probes that decode cell 0 (:meth:`_decode0`).
    This class probes, restores the factory image, forges bytes through
    the tables, and dumps every other cell with the gadget
    ``[MOV A,addr16; lo; hi; OUT]`` over ``phys[0..3]``.
    """

    #: The dump gadget needs cells 0-3 plus the cell OUT falls through to.
    MIN_MEMORY = 5

    #: The cell-0 probes, in order: forged plaintexts ``{cell: byte}`` at
    #: cells 1-3 and the number of steps to run.
    PLAN: Tuple[Tuple[Dict[int, int], int], ...] = ()

    def __init__(self, board: DallasBoard, verbose: bool = False):
        self.board = board
        self.verbose = verbose
        #: logical cell -> physical address.
        self.phys: Dict[int, int] = {}
        #: logical cell -> decryption table (plaintext = table[ciphertext]).
        self.d_tables: Dict[int, List[int]] = {}
        #: logical cell -> E_cell(OUT).
        self.outs: Dict[int, int] = {}
        self.mov0 = -1
        self.ambiguous_cells: Dict[int, Set[int]] = {}
        #: Behaviour signatures of every candidate at cell 0, and the
        #: {physical address: ciphertext} background they ran over.
        self._signatures0: Dict[int, _Signature] = {}
        self._background0: Dict[int, int] = {}
        self._inverses: Dict[int, List[int]] = {}
        self._snapshot = b""

    # -- what a strategy supplies ---------------------------------------------

    def _shape(self, event: StepEvent) -> object:
        """The instruction's shape as this strategy observes it."""
        raise NotImplementedError

    def _search(self) -> None:
        """Fill ``phys``, ``d_tables``, ``mov0`` and ``outs[3]``."""
        raise NotImplementedError

    # -- probing ----------------------------------------------------------------

    def _probe(self, setup: Dict[int, int], steps: int) -> List[StepEvent]:
        """Inject ``{physical address: ciphertext byte}`` and run from reset."""
        for addr, value in setup.items():
            self.board.write_raw(addr, bytes((value,)))
        return self.board.reset_and_step(steps)

    def _restore(self) -> None:
        self.board.write_raw(0, self._snapshot)

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[kuhn] {message}")

    def _phase(self, name: str) -> None:
        if self.board.sink is not None:
            self.board.sink.note("attack-phase", detail=name)

    def _signature(self, event: StepEvent) -> _Signature:
        return (
            1 if event.halted else self._shape(event),
            event.port_write is not None,
            event.data_read is not None,
            event.data_write is not None,
            event.halted,
        )

    def _forge(self, cell: int, plain: int) -> int:
        """The ciphertext byte that decodes to ``plain`` at logical ``cell``;
        each table is inverted once per run."""
        inverse = self._inverses.get(cell)
        if inverse is None:
            inverse = self._inverses[cell] = _invert(self.d_tables[cell])
        return inverse[plain]

    # -- search steps both strategies take ------------------------------------

    def _classify_cell0(self, background: Dict[int, int]) -> StepEvent:
        """Run each of the 256 candidates at cell 0 for one step over
        ``background``, keeping its signature: the unique length-3
        instruction that reads data is ``MOV A, addr16``.  Returns its
        event."""
        p0 = self.phys[0]
        self._background0 = dict(background)
        matches = []
        for candidate in range(256):
            event = self._probe({**background, p0: candidate}, 1)[0]
            sig = self._signature(event)
            self._signatures0[candidate] = sig
            shape, port, data_read, data_write, _ = sig
            if shape == 3 and data_read and not data_write and not port:
                matches.append((candidate, event))
        if len(matches) != 1:
            raise AttackFailure(
                f"MOV A,addr16 search at cell 0: {len(matches)} candidates"
            )
        self.mov0, event = matches[0]
        return event

    def _find_out(self, cell: int, prefix: Dict[int, int],
                  step_index: int) -> int:
        """E_cell(OUT): the 1-byte port writer at logical ``cell``, which
        ``prefix`` reaches as step ``step_index``."""
        for candidate in range(256):
            events = self._probe({**prefix, self.phys[cell]: candidate},
                                 step_index + 1)
            if len(events) <= step_index:
                continue
            shape, port, data_read, data_write, _ = \
                self._signature(events[step_index])
            if port and shape == 1 and not (data_read or data_write):
                return candidate
        raise AttackFailure(f"no port-writing instruction found at cell {cell}")

    def _simulate(self, opcode: int, cells: Dict[int, int],
                  steps: int) -> List[StepEvent]:
        """Run plaintext ``opcode`` at cell 0 on the public ISA, cells 1-3
        holding what the ciphertexts ``cells`` decode to: no cipher, no
        key.  The other cells hold zeros, which :meth:`_observe` never
        shows."""
        memory = bytearray(self.board.memory_size)
        memory[0] = opcode
        for cell, byte in cells.items():
            memory[cell] = self.d_tables[cell][byte]
        return MCU(memory).run(steps)

    def _observe(self, events: List[StepEvent],
                 cells: Dict[int, int]) -> tuple:
        """What the attacker sees of a run, ``cells`` mapping each address
        (mod the board size) to its logical cell, None off the known map:
        per step the signature, port value, fetched cells and data cells.
        A step that fetches outside the gadget cells 0-3, whose contents
        the attacker does not know, shows only that it left them and to
        where; one that reads data from outside them ends the view, as
        what follows depends on the value read."""
        size = self.board.memory_size
        seen = []
        for event in events:
            fetched = tuple(cells.get(a % size) for a in event.fetched)
            outside = [c for c in fetched if c not in _GADGET]
            if outside:
                seen.append(("left", outside[0]))
                break
            read, write = (None if a is None else cells.get(a % size)
                           for a in (event.data_read, event.data_write))
            seen.append((self._signature(event), event.port_write, fetched,
                         read, write))
            if event.data_read is not None and read not in _GADGET:
                break
        return tuple(seen)

    def _decode0(self) -> Tuple[int, Optional[Set[int]]]:
        """Decode the factory byte at cell 0 by simulating the candidates.

        Cell 0 is never an operand of a reachable instruction (execution
        always begins there).  Each of the 256 candidate plaintexts
        survives while its simulated observables equal the board's: first
        the phase-1 signature, then each ``PLAN`` probe on which the
        survivors disagree (the others are not run).  Returns the lowest
        survivor and, when several remain, all of them as the ambiguity
        set.
        """
        p0 = self.phys[0]
        factory0 = self._snapshot[p0]
        on_board = {p: c for c, p in self.phys.items()}
        simulated = {c: c for c in self.phys}
        phase1 = {c: self._background0.get(self.phys[c],
                                           self._snapshot[self.phys[c]])
                  for c in (1, 2, 3)}
        signature = self._signatures0[factory0]
        survivors = [
            op for op in range(256)
            if self._signature(self._simulate(op, phase1, 1)[0]) == signature
        ]
        for forged, steps in self.PLAN:
            setup = {p0: factory0}
            setup.update((self.phys[c], self._forge(c, plain))
                         for c, plain in forged.items())
            cells = {c: setup.get(self.phys[c],
                                  self.board.read_raw(self.phys[c])[0])
                     for c in (1, 2, 3)}
            predicted = {
                op: self._observe(self._simulate(op, cells, steps), simulated)
                for op in survivors
            }
            if len(set(predicted.values())) > 1:
                seen = self._observe(self._probe(setup, steps), on_board)
                survivors = [op for op in survivors if predicted[op] == seen]
        if not survivors:
            raise AttackFailure("no instruction behaves like cell 0")
        return survivors[0], set(survivors) if len(survivors) > 1 else None

    def _dump_byte(self, target: int) -> int:
        events = self._probe({
            self.phys[0]: self.mov0,
            self.phys[1]: self._forge(1, target & 0xFF),
            self.phys[2]: self._forge(2, target >> 8),
            self.phys[3]: self.outs[3],
        }, 2)
        if len(events) < 2 or events[1].port_write is None:
            raise AttackFailure(f"dump gadget failed for target {target:#06x}")
        return events[1].port_write

    # -- entry point --------------------------------------------------------------

    def run(self, dump_range: Optional[Tuple[int, int]] = None) -> AttackReport:
        """Execute the full attack; returns the recovered plaintext image."""
        size = self.board.memory_size
        if size < self.MIN_MEMORY:
            raise ValueError(
                f"a {size}-byte board is too small: the dump gadget needs "
                f"{self.MIN_MEMORY} cells"
            )
        start, end = dump_range or (0, size)
        if start < 0 or end > size or start >= end:
            raise ValueError(f"bad dump range [{start}, {end})")

        # Snapshot the whole ciphertext image before anything executes:
        # sweep candidates decoding to store instructions scribble on
        # arbitrary cells, and the dump must read factory bytes.
        self._snapshot = bytes(self.board.memory)
        self._inverses.clear()
        self._search()
        self._restore()

        self._phase("dump")
        recovered = bytearray(end - start)
        for target in range(start, end):
            if target == 0:
                value, ambiguity = self._decode0()
                if ambiguity:
                    self.ambiguous_cells[0] = ambiguity
            elif target in self.d_tables:
                value = self.d_tables[target][
                    self._snapshot[self.phys[target]]
                ]
            else:
                value = self._dump_byte(target)
            recovered[target - start] = value

        self._restore()
        return AttackReport(
            plaintext=bytes(recovered),
            ambiguous_cells=dict(self.ambiguous_cells),
            probe_runs=self.board.runs,
            steps_executed=self.board.steps_executed,
            d_tables=dict(self.d_tables),
        )


class KuhnAttack(CipherInstructionSearch):
    """The bus-address strategy, against a board without a scrambler:
    operand tables are read off the data-address pins, and a jump shows
    as a program counter that does not fall through."""

    #: Safe data address the probe gadgets read when the target is irrelevant.
    SAFE_ADDR = 0x0010

    #: The register probe (MOV R,#imm sets R1 = 1, so a MOVI A at cell 3
    #: reads cell 1; a branch lands on 0x101), the two-byte probe (A = imm
    #: shows on the port) and the one-byte probe (A shows on the port).
    PLAN = (({1: 1, 2: 1, 3: Op.MOVI_A}, 2),
            ({1: 0x05, 2: Op.OUT}, 2),
            ({1: Op.OUT}, 2))

    def _shape(self, event: StepEvent) -> object:
        delta = event.next_pc - event.pc
        return delta if delta in (1, 2, 3, 4) else "jump"

    def _search(self) -> None:
        self.phys = {cell: cell for cell in range(4)}

        self._phase("classify-address0")
        self._log("phase 1: classifying 256 candidates at address 0")
        self._classify_cell0({1: 0, 2: 0, 3: 0})
        self._log(f"E_0(MOV A,addr16) = {self.mov0:#04x}")

        self._phase("tabulate-operands")
        self.d_tables[1] = self._tabulate(
            1, {0: self.mov0, 2: 0}, extract_high=False, step_index=0
        )
        self.d_tables[2] = self._tabulate(
            2, {0: self.mov0, 1: 0}, extract_high=True, step_index=0
        )
        self._log("D_1 and D_2 tabulated from bus addresses")

        self._phase("find-out")
        prefix = {
            0: self.mov0,
            1: self._forge(1, self.SAFE_ADDR & 0xFF),
            2: self._forge(2, self.SAFE_ADDR >> 8),
        }
        self.outs[3] = self._find_out(3, prefix, step_index=1)
        self._log(f"E_3(OUT) = {self.outs[3]:#04x}")

        self._phase("tabulate-d3")
        self.d_tables[3] = self._tabulate_d3()
        self._log("D_3 tabulated via forged read at address 1")

    # -- phase 2: operand tables off the bus ----------------------------------

    def _tabulate(self, sweep_cell: int, fixed: Dict[int, int],
                  extract_high: bool, step_index: int) -> List[int]:
        table = [0] * 256
        seen = set()
        for candidate in range(256):
            events = self._probe({**fixed, sweep_cell: candidate},
                                 step_index + 1)
            if len(events) <= step_index or events[step_index].data_read is None:
                raise AttackFailure(
                    f"operand sweep at {sweep_cell:#x}: probe gadget broke"
                )
            addr = events[step_index].data_read
            decoded = (addr >> 8) & 0xFF if extract_high else addr & 0xFF
            table[candidate] = decoded
            seen.add(decoded)
        if len(seen) != 256:
            raise AttackFailure(
                f"operand table at cell {sweep_cell:#x} is not a bijection "
                f"({len(seen)} distinct values)"
            )
        return table

    # -- phase 5 helpers: the gadget's own cells ---------------------------------

    def _find_fall_through0(self) -> int:
        """A 1-byte fall-through at address 0, from the phase-1 signatures."""
        for candidate, sig in self._signatures0.items():
            shape, port, data_read, data_write, halted = sig
            if shape == 1 and not (port or data_read or data_write or halted):
                return candidate
        raise AttackFailure("no single-byte fall-through exists at address 0")

    def _tabulate_d3(self) -> List[int]:
        """Build D_3 by forging a read instruction at address 1.

        D_1/D_2 inverses let the attacker write the ``MOV A, addr16`` opcode
        at cell 1 and a fixed low operand at cell 2; cell 3 becomes the high
        operand, and sweeping it reads D_3 off the bus.
        """
        fixed = {
            0: self._find_fall_through0(),
            1: self._forge(1, Op.MOV_A_DIR),
            2: self._forge(2, self.SAFE_ADDR & 0xFF),
        }
        return self._tabulate(3, fixed, extract_high=True, step_index=1)


def brute_force_tries(block_bits: int) -> int:
    """Probes needed to tabulate one address's decryption by experiment.

    2^8 = 256 for the DS5002FP; 2^64 for the DS5240 — the survey's
    "strengthened robustness" in one number.
    """
    if block_bits <= 0:
        raise ValueError(f"block_bits must be positive, got {block_bits}")
    return 1 << block_bits


def block_diffusion_probe(cipher: TweakableFeistel, tweak: int = 0,
                          trials: int = 64) -> float:
    """Average fraction of output bits flipped by single-bit input changes.

    For the 64-bit DS5240-class cipher this sits near 0.5 across the block:
    a one-byte probe garbles all eight bytes, denying byte-at-a-time search
    the per-cell independence the DS5002FP attack needs.
    """
    total_bits = 0
    flipped = 0
    base = 0x0123456789ABCDEF & ((1 << cipher.block_bits) - 1)
    reference = cipher.encrypt_int(base, tweak)
    for bit in range(min(trials, cipher.block_bits)):
        probed = cipher.encrypt_int(base ^ (1 << bit), tweak)
        flipped += bin(probed ^ reference).count("1")
        total_bits += cipher.block_bits
    return flipped / total_bits if total_bits else 0.0
