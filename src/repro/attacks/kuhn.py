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
   decoded from its recorded phase-1 behaviour signature; a handful of
   opcode pairs are behaviourally identical from reset (e.g. ``MOV A,#x``
   vs ``XRL A,#x`` with A=0) and are reported as an explicit ambiguity set
   — the same residual uncertainty the physical attack has.

Cost: ~5 x 256 probe runs plus one run per dumped byte — exactly the
"exhaustive attack, 256 possibilities" scale the survey describes.

Against the DS5240's 64-bit blocks the same experiment collapses:
:func:`brute_force_tries` counts the 2^64 per-address search space, and
:func:`block_diffusion_probe` shows single-byte probes garbling whole
blocks, denying the search its foothold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..crypto.feistel import SmallBlockCipher, TweakableFeistel
from ..isa.mcu import INSTRUCTION_LENGTHS, MCU, Op, StepEvent
from ..obs import EventSink, current_sink

__all__ = ["DallasBoard", "KuhnAttack", "AttackFailure", "AttackReport",
           "brute_force_tries", "block_diffusion_probe"]


class AttackFailure(Exception):
    """The search did not find the gadget it needed."""


class DallasBoard:
    """The victim: encrypted firmware + MCU, exposed at board level.

    The attacker talks only to this class's public API; the cipher instance
    is sealed inside the closures handed to the MCU — the key never leaves
    the "chip".
    """

    def __init__(self, cipher: SmallBlockCipher, firmware: bytes,
                 memory_size: int = 4096,
                 sink: Optional[EventSink] = None):
        if len(firmware) > memory_size:
            raise ValueError("firmware larger than external memory")
        self.sink = sink if sink is not None else current_sink()
        self.memory_size = memory_size
        self.memory = bytearray(
            cipher.encrypt(0, bytes(firmware).ljust(memory_size, b"\x00"))
        )
        self._mcu = MCU(
            self.memory,
            decrypt=cipher.decrypt_byte,
            encrypt=cipher.encrypt_byte,
        )
        self.runs = 0
        self.steps_executed = 0

    # -- attacker API ------------------------------------------------------

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
# where shape is the instruction length 1-4 or "jump".
_Signature = Tuple[object, bool, bool, bool, bool]


def _signature_of(event: StepEvent, pc: int) -> _Signature:
    if event.halted:
        shape: object = 1
    else:
        delta = event.next_pc - pc
        shape = delta if delta in (1, 2, 3, 4) else "jump"
    return (
        shape,
        event.port_write is not None,
        event.data_read is not None,
        event.data_write is not None,
        event.halted,
    )


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


class KuhnAttack:
    """End-to-end Cipher Instruction Search against a :class:`DallasBoard`."""

    #: Safe data address the probe gadgets read when the target is irrelevant.
    SAFE_ADDR = 0x0010

    def __init__(self, board: DallasBoard, verbose: bool = False):
        self.board = board
        self.verbose = verbose
        #: Factory ciphertext bytes, saved before the first injection.
        self._factory: Dict[int, int] = {}
        #: Phase-1 behaviour signatures of every candidate at address 0.
        self._signatures0: Dict[int, _Signature] = {}
        self.d1: List[int] = []
        self.d2: List[int] = []
        self.d3: List[int] = []
        self.mov0 = -1   # E_0(MOV A, addr16)
        self.out3 = -1   # E_3(OUT)
        self.ambiguous_cells: Dict[int, Set[int]] = {}

    # -- probing ------------------------------------------------------------

    def _inject(self, setup: Dict[int, int]) -> None:
        for addr, value in setup.items():
            if addr not in self._factory:
                self._factory[addr] = self.board.memory[addr]
            self.board.write_raw(addr, bytes([value]))

    def _probe(self, setup: Dict[int, int], steps: int) -> List[StepEvent]:
        self._inject(setup)
        return self.board.reset_and_step(steps)

    def _restore_all(self) -> None:
        for addr, value in self._factory.items():
            self.board.write_raw(addr, bytes([value]))

    def _log(self, message: str) -> None:
        if self.verbose:
            print(f"[kuhn] {message}")

    def _phase(self, name: str) -> None:
        if self.board.sink is not None:
            self.board.sink.note("attack-phase", detail=name)

    # -- phase 1: classify address 0 -----------------------------------------

    def _classify_address0(self) -> None:
        self._log("phase 1: classifying 256 candidates at address 0")
        matches = []
        for candidate in range(256):
            events = self._probe({0: candidate, 1: 0, 2: 0, 3: 0}, 1)
            sig = _signature_of(events[0], 0)
            self._signatures0[candidate] = sig
            shape, port, data_read, data_write, halted = sig
            if shape == 3 and data_read and not data_write and not port:
                matches.append(candidate)
        if len(matches) != 1:
            raise AttackFailure(
                f"MOV A,addr16 search at 0: {len(matches)} candidates"
            )
        self.mov0 = matches[0]

    # -- phase 2: operand tables off the bus ----------------------------------

    def _tabulate(self, sweep_cell: int, fixed: Dict[int, int],
                  extract_high: bool, step_index: int) -> List[int]:
        table = [0] * 256
        seen = set()
        for candidate in range(256):
            setup = dict(fixed)
            setup[sweep_cell] = candidate
            events = self._probe(setup, step_index + 1)
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

    # -- phase 3: find the port writer ------------------------------------------

    def _find_out(self, cell: int, prefix: Dict[int, int],
                  step_index: int) -> int:
        for candidate in range(256):
            setup = dict(prefix)
            setup[cell] = candidate
            events = self._probe(setup, step_index + 1)
            if len(events) <= step_index:
                continue
            ev = events[step_index]
            if ev.port_write is not None and ev.next_pc == cell + 1 \
                    and ev.data_read is None and ev.data_write is None:
                return candidate
        raise AttackFailure(f"no port-writing instruction found at {cell:#x}")

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
        e1 = _invert(self.d1)
        e2 = _invert(self.d2)
        fall0 = self._find_fall_through0()
        fixed = {0: fall0, 1: e1[Op.MOV_A_DIR], 2: e2[self.SAFE_ADDR & 0xFF]}
        return self._tabulate(3, fixed, extract_high=True, step_index=1)

    def _decode_cell0(self) -> Tuple[int, Optional[Set[int]]]:
        """Decode the factory byte at cell 0 from its recorded behaviour.

        Returns (representative plaintext, ambiguity set or None).
        """
        factory0 = self._factory[0]
        sig = self._signatures0[factory0]
        shape, port, data_read, data_write, halted = sig

        if halted:
            return Op.HALT, None
        if port:
            return Op.OUT, None
        if data_read and shape == 3:
            return Op.MOV_A_DIR, None
        if data_write and shape == 3:
            return Op.MOV_DIR_A, None
        if data_read and shape == 1:
            return Op.MOVI_A, None
        if data_write and shape == 1:
            return Op.MOVI_ST, None
        if shape == 4:
            return Op.DJNZ, None
        if shape == 3:
            return Op.MOV_R_IMM, None
        if shape == "jump":
            return self._decode_jump0(factory0)
        if shape == 2:
            return self._decode_two_byte0(factory0)
        return self._decode_one_byte0(factory0)

    def _decode_jump0(self, factory0: int) -> Tuple[int, Optional[Set[int]]]:
        """Separate RET from the taken-branch family using the known tables."""
        # Re-run with known operand bytes: a branch lands at
        # D_1(op1) | D_2(op2)<<8; RET lands at 0 (zeroed stack) regardless.
        e1, e2 = _invert(self.d1), _invert(self.d2)
        target = 0x0123 % self.board.memory_size
        events = self._probe(
            {0: factory0, 1: e1[target & 0xFF], 2: e2[target >> 8]}, 1
        )
        if events[0].next_pc == target:
            # JMP, JZ (A=0: taken) and CALL are equivalent from reset.
            ambiguous = {Op.JMP, Op.JZ, Op.CALL}
            return Op.JMP, ambiguous
        return Op.RET, None

    def _decode_two_byte0(self, factory0: int) -> Tuple[int, Optional[Set[int]]]:
        """Split the 2-byte class by whether the port shows the operand."""
        e1, e2 = _invert(self.d1), _invert(self.d2)
        outputs = []
        for value in (0x05, 0x5A):
            # [factory0, operand, forged OUT at 2]: port shows A afterwards.
            events = self._probe(
                {0: factory0, 1: e1[value], 2: e2[Op.OUT]}, 2
            )
            if len(events) < 2 or events[1].port_write is None:
                raise AttackFailure("cell-0 2-byte probe lost its OUT")
            outputs.append(events[1].port_write)
        if outputs == [0x05, 0x5A]:
            # A = imm with A=0 entry: MOV/ADD/ORL/XRL are indistinguishable.
            return Op.MOV_A_IMM, {Op.MOV_A_IMM, Op.ADD_A_IMM,
                                  Op.ORL_A_IMM, Op.XRL_A_IMM}
        # A stays 0: register-file ops and AND-with-zero collapse together.
        return Op.ANL_A_IMM, {Op.ANL_A_IMM, Op.MOV_A_R, Op.MOV_R_A,
                              Op.ADD_A_R, Op.SUB_A_R, Op.INC_R}

    def _decode_one_byte0(self, factory0: int) -> Tuple[int, Optional[Set[int]]]:
        """Split the 1-byte fall-through class via the accumulator."""
        e1 = _invert(self.d1)
        events = self._probe({0: factory0, 1: e1[Op.OUT]}, 2)
        if len(events) < 2 or events[1].port_write is None:
            raise AttackFailure("cell-0 1-byte probe lost its OUT")
        a_after = events[1].port_write
        if a_after == 1:
            return Op.INC_A, None
        if a_after == 0xFF:
            return Op.DEC_A, None
        # NOP, PUSH A, POP A and undefined opcodes are architecturally
        # silent from reset.
        undefined = set(range(256)) - set(INSTRUCTION_LENGTHS)
        return Op.NOP, {Op.NOP, Op.PUSH_A, Op.POP_A} | undefined

    # -- phase 4: the dump ----------------------------------------------------------

    def _dump_byte(self, target: int) -> int:
        e1, e2 = _invert(self.d1), _invert(self.d2)
        setup = {
            0: self.mov0,
            1: e1[target & 0xFF],
            2: e2[(target >> 8) & 0xFF],
            3: self.out3,
        }
        events = self._probe(setup, 2)
        if len(events) < 2 or events[1].port_write is None:
            raise AttackFailure(f"dump gadget failed for target {target:#06x}")
        return events[1].port_write

    # -- entry point --------------------------------------------------------------------

    def run(self, dump_range: Optional[Tuple[int, int]] = None) -> AttackReport:
        """Execute the full attack; returns the recovered plaintext image."""
        start, end = dump_range or (0, self.board.memory_size)
        if start < 0 or end > self.board.memory_size or start >= end:
            raise ValueError(f"bad dump range [{start}, {end})")

        # Snapshot the whole ciphertext image before anything executes:
        # sweep candidates decoding to store instructions scribble on
        # arbitrary cells, and the dump must read factory bytes.
        snapshot = bytes(self.board.memory)
        for addr in range(4):
            self._factory[addr] = snapshot[addr]

        self._phase("classify-address0")
        self._classify_address0()
        self._log(f"E_0(MOV A,addr16) = {self.mov0:#04x}")

        self._phase("tabulate-operands")
        fixed = {0: self.mov0}
        self.d1 = self._tabulate(
            1, {**fixed, 2: 0}, extract_high=False, step_index=0
        )
        self.d2 = self._tabulate(
            2, {**fixed, 1: 0}, extract_high=True, step_index=0
        )
        self._log("D_1 and D_2 tabulated from bus addresses")

        self._phase("find-out")
        e1, e2 = _invert(self.d1), _invert(self.d2)
        prefix = {
            0: self.mov0,
            1: e1[self.SAFE_ADDR & 0xFF],
            2: e2[self.SAFE_ADDR >> 8],
        }
        self.out3 = self._find_out(3, prefix, step_index=1)
        self._log(f"E_3(OUT) = {self.out3:#04x}")

        self._phase("tabulate-d3")
        self.d3 = self._tabulate_d3()
        self._log("D_3 tabulated via forged read at address 1")

        # Undo any collateral damage from store-class probe candidates
        # before reading factory bytes back out.
        self.board.write_raw(0, snapshot)

        self._phase("dump")
        recovered = bytearray(end - start)
        for target in range(start, end):
            if target == 0:
                value, ambiguity = self._decode_cell0()
                if ambiguity:
                    self.ambiguous_cells[0] = ambiguity
            elif target == 1:
                value = self.d1[self._factory[1]]
            elif target == 2:
                value = self.d2[self._factory[2]]
            elif target == 3:
                value = self.d3[self._factory[3]]
            else:
                value = self._dump_byte(target)
            recovered[target - start] = value

        self._restore_all()
        return AttackReport(
            plaintext=bytes(recovered),
            ambiguous_cells=dict(self.ambiguous_cells),
            probe_runs=self.board.runs,
            steps_executed=self.board.steps_executed,
            d_tables={1: self.d1, 2: self.d2, 3: self.d3},
        )


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
