"""Secure software-distribution protocol (survey Figure 1, §2.1).

Actors and message sequence exactly as the survey describes:

1. The chip manufacturer provisions a key pair; the private key D_m lives
   in on-chip non-volatile memory, the public key E_m is available to
   anyone.
2. The processor requests the session key K from the software editor.
3. The editor obtains E_m from the manufacturer over the insecure channel.
4. The editor sends K encrypted under E_m over the insecure channel.
5. Only the processor (holder of D_m) recovers K.
6. The processor deciphers the software (symmetric, under K) and installs
   it — re-enciphered with its own bus key — in external memory.

Every message crosses an :class:`InsecureChannel` that a passive
:class:`Eavesdropper` records in full; the E01 tests assert the adversary's
transcript never contains K or the software plaintext, and E01's bench
measures the asymmetric-vs-symmetric cost gap that justifies §2.2's
"symmetric only on the bus" decision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..crypto.drbg import DRBG
from ..crypto.kernels import aes_kernel
from ..crypto.modes import CTR
from ..crypto.rsa import RSAKeyPair, RSAPublicKey, generate_keypair
from ..obs import current_sink
from .engine import BusEncryptionEngine

__all__ = [
    "Message", "InsecureChannel", "Eavesdropper",
    "ChipManufacturer", "SoftwareEditor", "SecureProcessor",
    "run_distribution",
]


@dataclass(frozen=True)
class Message:
    """One transmission on the open network."""

    sender: str
    receiver: str
    kind: str
    payload: bytes


class Eavesdropper:
    """Passive adversary: records every byte that crosses the channel."""

    def __init__(self) -> None:
        self.transcript: List[Message] = []

    def observe(self, message: Message) -> None:
        self.transcript.append(message)

    def saw(self, needle: bytes) -> bool:
        """Did ``needle`` appear verbatim in any recorded payload?"""
        return any(needle in m.payload for m in self.transcript)

    @property
    def total_bytes(self) -> int:
        return sum(len(m.payload) for m in self.transcript)


class InsecureChannel:
    """The non-secure transmission network of Figure 1."""

    def __init__(self) -> None:
        self._listeners: List[Eavesdropper] = []
        self.messages: List[Message] = []

    def tap(self, eavesdropper: Eavesdropper) -> None:
        self._listeners.append(eavesdropper)

    def send(self, message: Message) -> Message:
        self.messages.append(message)
        sink = current_sink()
        if sink is not None:
            sink.note(
                "protocol-msg", size=len(message.payload),
                detail=f"{message.sender}->{message.receiver}:{message.kind}",
            )
        for listener in self._listeners:
            listener.observe(message)
        return message


class ChipManufacturer:
    """Provisions processor key pairs and publishes public keys."""

    def __init__(self, rng: DRBG, key_bits: int = 512):
        self._rng = rng
        self.key_bits = key_bits
        self._provisioned: dict = {}

    def provision(self, chip_id: str) -> RSAKeyPair:
        """Generate a key pair for a chip; D_m goes into the chip's NVM."""
        keypair = generate_keypair(self.key_bits, self._rng.fork(chip_id))
        self._provisioned[chip_id] = keypair.public
        return keypair

    def public_key(self, channel: InsecureChannel, chip_id: str,
                   requester: str) -> RSAPublicKey:
        """Step 3: send E_m to whoever asks, over the open channel."""
        public = self._provisioned[chip_id]
        payload = public.n.to_bytes(public.modulus_bytes, "big") \
            + public.e.to_bytes(4, "big")
        channel.send(Message("manufacturer", requester, "public-key", payload))
        return public


class SoftwareEditor:
    """Protects its product with a session key K (symmetric)."""

    def __init__(self, name: str, software: bytes, rng: DRBG):
        self.name = name
        self.software = software
        self._rng = rng
        self.session_key = rng.random_bytes(16)

    def ciphered_software(self) -> bytes:
        """The product as shipped: AES-CTR under the session key."""
        ctr = CTR(aes_kernel(self.session_key), nonce=self.nonce())
        return ctr.encrypt(self.software)

    def nonce(self) -> bytes:
        return b"sw-" + self.name.encode()[:9].ljust(9, b"\x00")

    def send_software(self, channel: InsecureChannel, chip_id: str) -> Message:
        return channel.send(
            Message(self.name, chip_id, "software", self.ciphered_software())
        )

    def send_session_key(self, channel: InsecureChannel, chip_id: str,
                         public_key: RSAPublicKey) -> Message:
        """Step 4: K under E_m, over the open channel."""
        ciphered = public_key.encrypt(self.session_key, self._rng)
        return channel.send(
            Message(self.name, chip_id, "session-key", ciphered)
        )


class SecureProcessor:
    """The trusted SoC: holds D_m in NVM, a bus engine at its boundary."""

    def __init__(self, chip_id: str, keypair: RSAKeyPair,
                 engine: Optional[BusEncryptionEngine] = None):
        self.chip_id = chip_id
        self._private = keypair.private   # on-chip non-volatile memory
        self.engine = engine
        self._session_key: Optional[bytes] = None
        self._received_software: Optional[bytes] = None

    def request_session_key(self, channel: InsecureChannel,
                            editor_name: str) -> Message:
        """Step 2: ask the editor for K."""
        return channel.send(
            Message(self.chip_id, editor_name, "key-request", b"send-K")
        )

    def receive(self, message: Message) -> None:
        if message.kind == "session-key":
            # Step 5: only D_m recovers K.
            self._session_key = self._private.decrypt(message.payload)
        elif message.kind == "software":
            self._received_software = message.payload

    def install(self, memory, base_addr: int, line_size: int = 32,
                editor_nonce: bytes = None) -> bytes:
        """Step 6: decipher the product with K, re-encipher with the bus key.

        Returns the recovered plaintext (for verification); the external
        memory receives only the bus-engine ciphertext.
        """
        if self._session_key is None:
            raise RuntimeError("no session key established")
        if self._received_software is None:
            raise RuntimeError("no software received")
        ctr = CTR(aes_kernel(self._session_key), nonce=editor_nonce)
        plaintext = ctr.decrypt(self._received_software)
        if self.engine is not None:
            self.engine.install_image(memory, base_addr, plaintext,
                                      line_size=line_size)
        else:
            memory.load_image(base_addr, plaintext)
        return plaintext


def run_distribution(
    software: bytes,
    seed: int = 2005,
    key_bits: int = 512,
    engine: Optional[BusEncryptionEngine] = None,
    memory=None,
    base_addr: int = 0,
) -> Tuple[SecureProcessor, Eavesdropper, bytes]:
    """Run the full Figure-1 sequence; returns (processor, eavesdropper, K).

    If ``engine`` and ``memory`` are given, step 6 installs the software
    through the bus engine into the supplied external memory.
    """
    rng = DRBG(seed)
    channel = InsecureChannel()
    eve = Eavesdropper()
    channel.tap(eve)

    manufacturer = ChipManufacturer(rng.fork("manufacturer"), key_bits=key_bits)
    keypair = manufacturer.provision("chip-0")
    editor = SoftwareEditor("editor", software, rng.fork("editor"))
    processor = SecureProcessor("chip-0", keypair, engine=engine)

    processor.request_session_key(channel, editor.name)                 # 2
    public = manufacturer.public_key(channel, "chip-0", editor.name)    # 3
    key_msg = editor.send_session_key(channel, "chip-0", public)        # 4
    processor.receive(key_msg)                                          # 5
    sw_msg = editor.send_software(channel, "chip-0")
    processor.receive(sw_msg)
    if memory is not None:
        processor.install(memory, base_addr, editor_nonce=editor.nonce())  # 6
    return processor, eve, editor.session_key
