"""Figure-1 distribution protocol: end-to-end secrecy against the passive
adversary, plus the step-6 install through a bus engine."""

import pytest

from repro.core import (
    ChipManufacturer,
    Eavesdropper,
    InsecureChannel,
    Message,
    SecureProcessor,
    SoftwareEditor,
    XomAesEngine,
    run_distribution,
)
from repro.core.registry import make_engine
from repro.crypto import DRBG
from repro.sim import MainMemory, MemoryConfig

SOFTWARE = b"PAY-TV ACCESS CONTROL FIRMWARE v2" * 8  # 264 bytes


def _distribution_document():
    """Everything the Figure-1 run puts on the channel and in memory."""
    memory = MainMemory(MemoryConfig(size=1 << 16))
    _, eve, session_key = run_distribution(
        SOFTWARE, seed=7, key_bits=512, engine=make_engine("xom"),
        memory=memory,
    )
    return ([(m.kind, m.payload) for m in eve.transcript], session_key,
            memory.dump(0, 1024))


def test_distribution_matches_reference_ciphers(reference_ciphers):
    """The session cipher and the engine come from the kernel registry, so
    the ``reference_ciphers`` oracle reaches both."""
    kernels = _distribution_document()
    with reference_ciphers():
        assert _distribution_document() == kernels


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def outcome(self):
        memory = MainMemory(MemoryConfig(size=1 << 16))
        engine = XomAesEngine(b"bus-key-16-bytes")
        processor, eve, session_key = run_distribution(
            SOFTWARE, seed=7, key_bits=512, engine=engine, memory=memory,
        )
        return processor, eve, session_key, memory, engine

    def test_processor_recovers_session_key(self, outcome):
        processor, _, session_key, _, _ = outcome
        assert processor._session_key == session_key

    def test_eavesdropper_never_sees_session_key(self, outcome):
        _, eve, session_key, _, _ = outcome
        assert not eve.saw(session_key)

    def test_eavesdropper_never_sees_software(self, outcome):
        _, eve, _, _, _ = outcome
        assert not eve.saw(SOFTWARE[:16])

    def test_eavesdropper_saw_the_traffic(self, outcome):
        _, eve, _, _, _ = outcome
        kinds = [m.kind for m in eve.transcript]
        assert kinds == ["key-request", "public-key", "session-key",
                         "software"]
        assert eve.total_bytes > len(SOFTWARE)

    def test_external_memory_is_ciphertext(self, outcome):
        _, _, _, memory, _ = outcome
        assert SOFTWARE[:16] not in memory.dump(0, 1024)

    def test_installed_software_decrypts_through_engine(self, outcome):
        _, _, _, memory, engine = outcome
        line0 = engine.decrypt_line(0, memory.dump(0, 32))
        assert line0 == SOFTWARE[:32]


class TestProtocolPieces:
    def test_public_key_crosses_channel(self):
        channel = InsecureChannel()
        eve = Eavesdropper()
        channel.tap(eve)
        manufacturer = ChipManufacturer(DRBG(1), key_bits=256)
        manufacturer.provision("chip-9")
        public = manufacturer.public_key(channel, "chip-9", "editor")
        assert eve.transcript[0].kind == "public-key"
        # Public key material is, by design, visible.
        assert public.n.to_bytes(public.modulus_bytes, "big") in \
            eve.transcript[0].payload

    def test_session_key_randomized_encryption(self):
        """Two transmissions of the same K differ on the wire."""
        channel = InsecureChannel()
        manufacturer = ChipManufacturer(DRBG(2), key_bits=256)
        manufacturer.provision("c")
        public = manufacturer.public_key(channel, "c", "e")
        editor = SoftwareEditor("e", b"sw", DRBG(3))
        m1 = editor.send_session_key(channel, "c", public)
        m2 = editor.send_session_key(channel, "c", public)
        assert m1.payload != m2.payload

    def test_install_without_key_fails(self):
        manufacturer = ChipManufacturer(DRBG(4), key_bits=256)
        keypair = manufacturer.provision("c")
        processor = SecureProcessor("c", keypair)
        with pytest.raises(RuntimeError):
            processor.install(MainMemory(MemoryConfig(size=1024)), 0)

    def test_wrong_processor_cannot_decrypt(self):
        """Only the provisioned chip's D_m opens the session-key message."""
        channel = InsecureChannel()
        manufacturer = ChipManufacturer(DRBG(5), key_bits=256)
        keypair_a = manufacturer.provision("chip-a")
        keypair_b = manufacturer.provision("chip-b")
        public_a = manufacturer.public_key(channel, "chip-a", "e")
        editor = SoftwareEditor("e", b"sw", DRBG(6))
        msg = editor.send_session_key(channel, "chip-a", public_a)
        imposter = SecureProcessor("chip-b", keypair_b)
        with pytest.raises(ValueError):
            imposter.receive(msg)

    def test_install_without_engine_stores_clear(self):
        """The contrast case: no bus engine leaves the product exposed in
        external memory (§2.1 risk ii)."""
        memory = MainMemory(MemoryConfig(size=1 << 16))
        processor, _, _ = run_distribution(
            SOFTWARE, seed=8, key_bits=512, engine=None, memory=memory,
        )
        assert SOFTWARE[:32] in memory.dump(0, 1024)
