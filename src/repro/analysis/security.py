"""Security scoring: quantitative distinguishers between engines.

Turns the survey's qualitative judgments ("basic cryptographic functions"
vs "algorithm approved by the NIST") into measurements: encrypt a structured
image with each engine, then score the ciphertext's statistical quality and
the leakage an attacker extracts.  Used by E03/E06 and the E14 table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..core.engine import BusEncryptionEngine
from ..crypto.modes import xor_bytes

__all__ = ["SecurityScore", "score_engine_ciphertext", "pad_reuse_leak"]


@dataclass
class SecurityScore:
    """Statistical quality of one engine's ciphertext for one image."""

    engine_name: str
    entropy_bits_per_byte: float
    block_collision_rate: float
    distinguishable: bool           # does the ECB distinguisher fire?
    identical_line_leak: bool       # equal plaintext lines -> equal ciphertext?

    @property
    def leak_count(self) -> int:
        return sum([self.distinguishable, self.identical_line_leak])


def score_engine_ciphertext(
    engine: BusEncryptionEngine,
    image: bytes,
    line_size: int = 32,
    base_addr: int = 0,
) -> SecurityScore:
    """Encrypt ``image`` line by line and score the result.

    ``identical_line_leak`` plants the same plaintext line at two different
    addresses and at the same address twice (rewrite) and checks whether the
    ciphertexts coincide — the determinism leak of ECB-style engines.
    """
    # Imported here: a campaign worker pricing overheads through
    # repro.analysis should not load the whole attack package.
    from ..attacks.ecb_analysis import analyze_ciphertext, ecb_distinguisher

    if len(image) % line_size != 0:
        image = image + b"\x00" * (line_size - len(image) % line_size)
    ciphertext = bytearray()
    for offset in range(0, len(image), line_size):
        ciphertext += engine.encrypt_line(
            base_addr + offset, image[offset: offset + line_size]
        )

    probe_line = bytes(range(line_size))
    at_a_first = engine.encrypt_line(base_addr, probe_line)
    at_a_second = engine.encrypt_line(base_addr, probe_line)
    identical_leak = at_a_first == at_a_second

    analysis = analyze_ciphertext(bytes(ciphertext), block_size=8)
    return SecurityScore(
        engine_name=engine.name,
        entropy_bits_per_byte=analysis.entropy_bits_per_byte,
        block_collision_rate=analysis.block_collision_rate,
        distinguishable=ecb_distinguisher(bytes(ciphertext), block_size=8),
        identical_line_leak=identical_leak,
    )


def pad_reuse_leak(ct_a: bytes, ct_b: bytes,
                   known_plaintext_a: Optional[bytes] = None) -> bytes:
    """The two-time-pad break: XOR of ciphertexts under a reused keystream.

    ``ct_a xor ct_b = pt_a xor pt_b``; with one plaintext known the other
    falls out directly.  Demonstrates why the stream engine's
    ``reuse_pad_on_partial_write`` shortcut is a design mistake.
    """
    diff = xor_bytes(ct_a, ct_b)
    if known_plaintext_a is not None:
        return xor_bytes(diff, known_plaintext_a)
    return diff
