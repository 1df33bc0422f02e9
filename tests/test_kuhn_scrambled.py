"""Address-scrambled DS5002FP (``DallasBoard`` with a scrambler) and the
port-based Cipher Instruction Search."""

import pytest

from repro.attacks import DallasBoard, PortBasedKuhnAttack
from repro.crypto import AddressScrambler, SmallBlockCipher
from repro.obs import CounterSink
from repro.isa import Op, assemble, secret_table_program

KEY = b"factory-secret"
ADDR_KEY = b"address-key"


@pytest.fixture(scope="module")
def victim():
    firmware = assemble(secret_table_program(seed=7, table_len=32), size=1024)
    return firmware


def make_board(firmware, scrambled=True, memory_size=1024):
    scrambler = AddressScrambler(ADDR_KEY, size=memory_size) if scrambled \
        else None
    return DallasBoard(
        SmallBlockCipher(KEY), firmware, memory_size=memory_size,
        scrambler=scrambler,
    )


class TestAddressScrambler:
    def test_is_bijection(self):
        scr = AddressScrambler(ADDR_KEY, size=256)
        assert sorted(scr.scramble(a) for a in range(256)) == list(range(256))

    def test_inverse(self):
        scr = AddressScrambler(ADDR_KEY, size=1024)
        for a in range(0, 1024, 41):
            assert scr.unscramble(scr.scramble(a)) == a

    def test_odd_width_cycle_walking(self):
        scr = AddressScrambler(ADDR_KEY, size=512)  # 9 bits: walks cycles
        assert sorted(scr.scramble(a) for a in range(512)) == list(range(512))

    def test_actually_scrambles(self):
        scr = AddressScrambler(ADDR_KEY, size=1024)
        moved = sum(scr.scramble(a) != a for a in range(1024))
        assert moved > 1000

    def test_key_dependence(self):
        a = AddressScrambler(b"key-a", size=256)
        b = AddressScrambler(b"key-b", size=256)
        assert any(a.scramble(x) != b.scramble(x) for x in range(256))

    def test_size_validation(self):
        with pytest.raises(ValueError):
            AddressScrambler(ADDR_KEY, size=100)
        with pytest.raises(ValueError):
            AddressScrambler(ADDR_KEY, size=2)

    def test_range_validation(self):
        scr = AddressScrambler(ADDR_KEY, size=256)
        with pytest.raises(ValueError):
            scr.scramble(256)
        with pytest.raises(ValueError):
            scr.unscramble(-1)


class TestScrambledBoard:
    def test_firmware_executes_correctly(self, victim):
        """The scrambled part is functionally transparent to its own CPU."""
        scrambled = make_board(victim, scrambled=True)
        clear = make_board(victim, scrambled=False)
        scrambled.reset_and_step(1000)
        clear.reset_and_step(1000)
        assert scrambled._mcu.port_log == clear._mcu.port_log

    def test_memory_layout_is_permuted(self, victim):
        scrambled = make_board(victim, scrambled=True)
        unscrambled = make_board(victim, scrambled=False)
        assert bytes(scrambled.memory) != bytes(unscrambled.memory)
        # Same multiset of encrypted content positions is NOT expected
        # (tweaks differ per physical address); only sizes agree.
        assert len(scrambled.memory) == len(unscrambled.memory)

    def test_bus_shows_scrambled_fetches(self, victim):
        scrambler = AddressScrambler(ADDR_KEY, size=1024)
        board = DallasBoard(
            SmallBlockCipher(KEY), victim, memory_size=1024,
            scrambler=scrambler,
        )
        events = board.reset_and_step(3)
        assert events[0].fetched[0] == scrambler.scramble(0)


class TestPortBasedAttack:
    def test_scrambled_board_falls(self, victim):
        board = make_board(victim, scrambled=True)
        report = PortBasedKuhnAttack(board).run()
        assert report.plaintext == victim
        assert report.fully_determined

    def test_learned_map_matches_scrambler(self, victim):
        board = make_board(victim, scrambled=True)
        attack = PortBasedKuhnAttack(board)
        attack.run()
        scrambler = AddressScrambler(ADDR_KEY, size=1024)
        for logical, physical in attack.phys.items():
            assert physical == scrambler.scramble(logical)

    def test_identity_board_also_falls(self, victim):
        board = make_board(victim, scrambled=False)
        report = PortBasedKuhnAttack(board).run()
        assert report.plaintext == victim

    def test_probe_cost_is_constant_factor(self, victim):
        """Scrambling adds a handful of extra 256-sweeps, nothing more."""
        scrambled = make_board(victim, scrambled=True)
        report = PortBasedKuhnAttack(scrambled).run()
        assert report.probe_runs < 8 * 256 + 1024 + 64

    def test_dump_range(self, victim):
        board = make_board(victim, scrambled=True)
        report = PortBasedKuhnAttack(board).run(dump_range=(0x100, 0x120))
        assert report.plaintext == victim[0x100:0x120]

    def test_ambiguous_start_reported(self):
        firmware = assemble("NOP\n MOV A, #5\n OUT\n HALT", size=256)
        board = make_board(firmware, scrambled=True, memory_size=256)
        report = PortBasedKuhnAttack(board).run()
        assert 0 in report.ambiguous_cells
        assert Op.NOP in report.ambiguous_cells[0]
        assert report.plaintext[1:] == firmware[1:]

    def test_board_restored(self, victim):
        board = make_board(victim, scrambled=True)
        before = bytes(board.memory)
        PortBasedKuhnAttack(board).run()
        assert bytes(board.memory) == before

    def test_reports_to_the_sink(self, victim):
        """Every probe run, single step and phase of the port-based
        search reaches the board's sink."""
        sink = CounterSink()
        board = DallasBoard(
            SmallBlockCipher(KEY), victim, memory_size=1024,
            scrambler=AddressScrambler(ADDR_KEY, size=1024), sink=sink,
        )
        report = PortBasedKuhnAttack(board).run()
        assert sink.get("probe-run") == report.probe_runs
        assert sink.get("mcu-step") == report.steps_executed
        assert sink.get("attack-phase") == 4
