"""Kuhn's cipher instruction search: the DS5002FP break end-to-end, and
why the DS5240 resists it (E05)."""

import pytest

from repro.attacks import (
    AttackFailure,
    DallasBoard,
    KuhnAttack,
    PortBasedKuhnAttack,
    block_diffusion_probe,
    brute_force_tries,
)
from repro.crypto import (
    DRBG,
    AddressScrambler,
    SmallBlockCipher,
    TweakableFeistel,
)
from repro.isa import INSTRUCTION_LENGTHS, Op, assemble, secret_table_program


@pytest.fixture(scope="module")
def broken_board():
    firmware = assemble(secret_table_program(seed=77, table_len=32), size=512)
    cipher = SmallBlockCipher(b"factory-secret-key")
    return firmware, DallasBoard(cipher, firmware, memory_size=512)


@pytest.fixture(scope="module")
def attack_report(broken_board):
    firmware, board = broken_board
    report = KuhnAttack(board).run()
    return firmware, board, report


class TestFullAttack:
    def test_plaintext_fully_recovered(self, attack_report):
        firmware, _, report = attack_report
        assert report.plaintext == firmware

    def test_no_ambiguity_for_this_firmware(self, attack_report):
        """The victim starts with MOV R0,#imm — uniquely classifiable."""
        _, _, report = attack_report
        assert report.fully_determined

    def test_probe_count_is_256_scale(self, attack_report):
        """'exhaustive attack (8-bit instruction <=> 256 possibilities)':
        the probe budget is a few multiples of 256 plus one run per byte."""
        _, _, report = attack_report
        assert report.probe_runs < 6 * 256 + 512 + 50

    def test_d_tables_are_real_decryption(self, attack_report):
        firmware, board, report = attack_report
        # Independent check against the sealed cipher via a fresh board.
        cipher = SmallBlockCipher(b"factory-secret-key")
        for cell, table in report.d_tables.items():
            for c in (0, 1, 77, 200, 255):
                assert table[c] == cipher.decrypt_byte(cell, c)

    def test_board_restored_after_attack(self, attack_report):
        firmware, board, _ = attack_report
        cipher = SmallBlockCipher(b"factory-secret-key")
        expected = cipher.encrypt(0, firmware.ljust(512, b"\x00"))
        assert bytes(board.memory) == expected

    def test_key_never_needed(self, attack_report):
        """The attack object holds tables, not keys."""
        _, _, report = attack_report
        assert not hasattr(report, "key")


class TestAttackMechanics:
    def test_dump_range(self):
        firmware = assemble(secret_table_program(seed=3, table_len=8), size=256)
        board = DallasBoard(SmallBlockCipher(b"k2"), firmware, memory_size=256)
        report = KuhnAttack(board).run(dump_range=(16, 48))
        assert report.plaintext == firmware[16:48]

    def test_bad_dump_range(self):
        firmware = assemble("HALT", size=64)
        board = DallasBoard(SmallBlockCipher(b"k3"), firmware, memory_size=64)
        with pytest.raises(ValueError):
            KuhnAttack(board).run(dump_range=(50, 20))

    def test_different_keys_still_broken(self):
        """The attack is key-independent — any key falls in ~256-way
        search, which is the survey's entire point about 8-bit blocks."""
        firmware = assemble(secret_table_program(seed=5, table_len=16),
                            size=256)
        for key in (b"a", b"another-key", bytes(16)):
            board = DallasBoard(SmallBlockCipher(key), firmware,
                                memory_size=256)
            report = KuhnAttack(board).run(dump_range=(0, len(firmware)))
            assert report.plaintext[: len(firmware)] == firmware

    def test_ambiguous_cell0_reported(self):
        """Firmware starting with NOP: cell 0 is behaviourally ambiguous
        with PUSH/POP/undefined — the attack must say so, and everything
        else must still be exact."""
        firmware = assemble("NOP\n MOV A, #7\n OUT\n HALT", size=128)
        board = DallasBoard(SmallBlockCipher(b"kx"), firmware, memory_size=128)
        report = KuhnAttack(board).run()
        assert 0 in report.ambiguous_cells
        assert Op.NOP in report.ambiguous_cells[0]
        assert report.plaintext[1:] == firmware[1:]

    def test_jump_start_decoded(self):
        firmware = assemble("JMP 0x10\n .org 0x10\n MOV A, #1\n OUT\n HALT",
                            size=128)
        board = DallasBoard(SmallBlockCipher(b"ky"), firmware, memory_size=128)
        report = KuhnAttack(board).run()
        # JMP/JZ/CALL are equivalent from reset: reported as an ambiguity
        # set containing the truth.
        assert report.plaintext[1:] == firmware[1:]
        if report.ambiguous_cells:
            assert Op.JMP in report.ambiguous_cells[0]

    @pytest.mark.parametrize("attack", [KuhnAttack, PortBasedKuhnAttack])
    def test_djnz_start_is_not_ret(self, attack):
        """From reset DJNZ decrements R0 to 0xFF and branches: its pc
        does not fall through, like RET's, but it lands on its operand
        target, not on 0."""
        firmware = assemble("DJNZ R0, 0x10\n .org 0x10\n MOV A, #1\n OUT\n"
                            " HALT", size=128)
        board = DallasBoard(SmallBlockCipher(b"kz"), firmware, memory_size=128)
        report = attack(board).run()
        assert report.plaintext[0] == Op.DJNZ
        assert report.fully_determined
        assert report.plaintext == firmware

    @pytest.mark.parametrize("attack", [KuhnAttack, PortBasedKuhnAttack])
    @pytest.mark.parametrize("source", [
        "JNZ 0x10\n MOV A, #2\n OUT\n .org 0x10\n MOV A, #1\n OUT\n HALT",
        "MOV R1, #5\n MOV A, #2\n OUT\n HALT",
    ], ids=["jnz", "mov-r-imm"])
    def test_jnz_start_is_not_mov_r_imm(self, attack, source):
        """From reset A=0, so JNZ falls through its three bytes with no
        visible effect, as MOV R,#imm does; the attack must tell the two
        apart by the register MOV R,#imm writes."""
        firmware = assemble(source, size=128)
        board = DallasBoard(SmallBlockCipher(b"kq"), firmware, memory_size=128)
        report = attack(board).run()
        assert report.fully_determined
        assert report.plaintext == firmware

    def test_jump_that_looks_like_a_fall_through(self):
        """Under this key the phase-1 background operands (ciphertext 0 at
        cells 1 and 2) decode to target 3, so a JMP at cell 0 moves the pc
        by three like MOV R,#imm and JNZ; the register probe sees it
        branch instead."""
        firmware = assemble("JMP 0x10\n .org 0x10\n MOV A, #1\n OUT\n HALT",
                            size=128)
        cipher = SmallBlockCipher(b"k162608")
        assert (cipher.decrypt_byte(1, 0), cipher.decrypt_byte(2, 0)) == (3, 0)
        report = KuhnAttack(DallasBoard(cipher, firmware,
                                        memory_size=128)).run()
        assert report.ambiguous_cells[0] == {Op.JMP, Op.JZ, Op.CALL}
        assert report.plaintext[1:] == firmware[1:]

    @pytest.mark.parametrize("attack", [KuhnAttack, PortBasedKuhnAttack])
    @pytest.mark.parametrize("key, target", [
        (b"k78859", 1), (b"k25592", 2), (b"k24316", 4),
    ])
    def test_jump_that_lands_on_a_short_fall_through(self, attack, key,
                                                     target):
        """Under these keys the phase-1 background operands decode to
        target 1, 2 or 4, so a JMP at cell 0 moves the pc like a 1- or
        2-byte instruction or like DJNZ (the one 4-byte instruction); the
        jump probe's forged operands move the target and see it branch."""
        firmware = assemble("JMP 0x10\n .org 0x10\n MOV A, #1\n OUT\n HALT",
                            size=128)
        cipher = SmallBlockCipher(key)
        assert (cipher.decrypt_byte(1, 0), cipher.decrypt_byte(2, 0)) == \
            (target, 0)
        report = attack(DallasBoard(cipher, firmware, memory_size=128)).run()
        assert report.plaintext[0] == Op.JMP
        assert report.ambiguous_cells[0] == {Op.JMP, Op.JZ, Op.CALL}
        assert report.plaintext == firmware

    @pytest.mark.parametrize("attack", [KuhnAttack, PortBasedKuhnAttack])
    def test_jump_that_lands_on_an_out(self, attack):
        """Under b"k78859" the one-byte probe (a forged OUT at cell 1, the
        factory 0x00 at cell 2) sends a JMP at cell 0 to cell 4.  An OUT
        there writes the port, as the forged OUT after a one-byte
        instruction would; the jump must still decode as a branch."""
        firmware = assemble("JMP 0x10\n NOP\n OUT\n .org 0x10\n MOV A, #1\n"
                            " OUT\n HALT", size=128)
        cipher = SmallBlockCipher(b"k78859")
        assert (cipher.decrypt_byte(1, 0), cipher.decrypt_byte(2, 0)) == (1, 0)
        report = attack(DallasBoard(cipher, firmware, memory_size=128)).run()
        assert report.ambiguous_cells[0] == {Op.JMP, Op.JZ, Op.CALL}
        assert report.plaintext == firmware

    @pytest.mark.parametrize("size", [96, 97])
    def test_ret_start_on_any_board_size(self, size):
        """The jump probe's target is 0x123 mod the board size; on a
        97-cell board that is 0, where RET lands too."""
        firmware = assemble("RET\n MOV A, #1\n OUT\n HALT", size=size)
        board = DallasBoard(SmallBlockCipher(b"ky"), firmware,
                            memory_size=size)
        report = KuhnAttack(board).run()
        assert report.plaintext[0] == Op.RET
        assert report.fully_determined


class TestCell0Sweep:
    """Every opcode of the public ISA as the factory byte at cell 0, under
    both strategies: cell 0 must come back as the exact byte or as an
    ambiguity set that holds it, and every other cell exactly.  The keys
    include three whose phase-1 background operands (ciphertext 0 at cells
    1 and 2) decode to branch targets 3, 1 and 4, where a branch moves the
    pc like a fall-through; 97 and 291 cells are the board sizes on which
    a forged jump target of 0x123 wraps to 0 or 1, where RET was once
    misread."""

    KEYS = (b"sweep-0", b"k162608", b"k78859", b"k24316")
    BOARDS = ((128, KEYS, (False, True)),
              (97, KEYS[:2], (True,)), (291, KEYS[:2], (False,)))

    @staticmethod
    def firmware(opcode, size, key, random_image):
        """``opcode`` at cell 0, then either operands 0x10 0x00 0x00 and
        zeros or random bytes throughout.  Under b"k78859" the random
        image holds an OUT at cell 4, where a branch lands in the one-byte
        probe and writes the port as a fall-through would."""
        if random_image:
            image = bytearray(DRBG(b"sweep-" + key).random_bytes(size))
        else:
            image = bytearray(size)
            image[1] = 0x10
        image[0] = opcode
        return bytes(image)

    @pytest.mark.parametrize("attack", [KuhnAttack, PortBasedKuhnAttack])
    @pytest.mark.parametrize("opcode", sorted(INSTRUCTION_LENGTHS),
                             ids="{:#04x}".format)
    def test_cell0_decodes_to_the_opcode(self, attack, opcode):
        for size, keys, images in self.BOARDS:
            for key in keys:
                for random_image in images:
                    firmware = self.firmware(opcode, size, key,
                                             random_image)
                    board = DallasBoard(SmallBlockCipher(key), firmware,
                                        memory_size=size)
                    report = attack(board).run()
                    case = (size, key, random_image)
                    assert report.plaintext[1:] == firmware[1:], case
                    ambiguity = report.ambiguous_cells.get(0)
                    if ambiguity is None:
                        assert report.plaintext[0] == opcode, case
                    else:
                        assert opcode in ambiguity, case
                        assert report.plaintext[0] in ambiguity, case


class TestDS5240Resistance:
    def test_search_space_explodes(self):
        assert brute_force_tries(8) == 256
        assert brute_force_tries(64) == 2 ** 64

    def test_diffusion_denies_byte_search(self):
        """64-bit blocks: one flipped bit garbles ~half the block, so
        per-byte tabulation cannot get a foothold."""
        cipher = TweakableFeistel(b"ds5240-key", block_bits=64)
        assert 0.35 < block_diffusion_probe(cipher) < 0.65

    def test_8bit_block_has_no_diffusion_room(self):
        cipher = TweakableFeistel(b"ds5002-key", block_bits=8)
        # Diffusion bounded by the tiny block: the whole output is 8 bits.
        assert block_diffusion_probe(cipher) <= 1.0

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            brute_force_tries(0)


class TestBoardModel:
    def test_firmware_too_large(self):
        with pytest.raises(ValueError):
            DallasBoard(SmallBlockCipher(b"k"), bytes(600), memory_size=512)

    def test_raw_access(self):
        board = DallasBoard(SmallBlockCipher(b"k"), b"\x00" * 16,
                            memory_size=64)
        board.write_raw(10, b"\xAB")
        assert board.read_raw(10) == b"\xAB"

    def test_reset_and_step_counts_runs(self):
        board = DallasBoard(SmallBlockCipher(b"k"), assemble("HALT", size=64),
                            memory_size=64)
        board.reset_and_step(3)
        board.reset_and_step(3)
        assert board.runs == 2

    @pytest.mark.parametrize("size", [0, 0x10001])
    def test_memory_size_outside_the_16_bit_space(self, size):
        with pytest.raises(ValueError, match="memory_size"):
            DallasBoard(SmallBlockCipher(b"k"), b"", memory_size=size)

    @pytest.mark.parametrize("scrambler_size", [256, 1024])
    def test_scrambler_must_cover_the_board(self, scrambler_size):
        """A scrambler over another address space is one ValueError, not
        an IndexError (1024) or a scramble() range error (256)."""
        with pytest.raises(ValueError, match="scrambler covers"):
            DallasBoard(SmallBlockCipher(b"k"), b"\x00" * 16,
                        memory_size=512,
                        scrambler=AddressScrambler(b"a", size=scrambler_size))

    @pytest.mark.parametrize("attack", [KuhnAttack, PortBasedKuhnAttack])
    @pytest.mark.parametrize("size", [1, 3, 4])
    def test_board_too_small_for_the_gadget(self, attack, size):
        board = DallasBoard(SmallBlockCipher(b"k"), b"", memory_size=size)
        with pytest.raises(ValueError, match="too small"):
            attack(board).run()
        assert board.runs == 0


class TestInstall:
    """The board installs its image in one cipher pass and one scatter;
    the oracle is the per-byte loop ``memory[s(l)] = E(s(l), padded[l])``."""

    @pytest.mark.parametrize("scrambled", [False, True],
                             ids=["clear", "scrambled"])
    @pytest.mark.parametrize("size", [8, 256, 512, 1024])
    def test_matches_the_per_byte_install(self, size, scrambled):
        cipher = SmallBlockCipher(b"install-key")
        firmware = DRBG(b"install-%d" % size).random_bytes(size - 3)
        scrambler = AddressScrambler(b"bus-key", size=size) \
            if scrambled else None
        board = DallasBoard(cipher, firmware, memory_size=size,
                            scrambler=scrambler)
        padded = firmware.ljust(size, b"\x00")
        expected = bytearray(size)
        for logical in range(size):
            phys = scrambler.scramble(logical) if scrambled else logical
            expected[phys] = cipher.encrypt_byte(phys, padded[logical])
        assert board.memory == expected
