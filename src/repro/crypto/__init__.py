"""Cryptographic primitives, all implemented from scratch.

Block ciphers (:class:`DES`, :class:`TripleDES`, :class:`AES`,
:class:`TweakableFeistel`, :class:`BestCipher`), stream generators
(:class:`RC4`, LFSR combiners), modes of operation, SHA-256/HMAC, RSA and a
deterministic DRBG.  These are the functional cores of every bus-encryption
engine in :mod:`repro.core`.

AES, DES and 3DES each have one production form: the table kernel from
:func:`aes_kernel`/:func:`des_kernel`/:func:`tdes_kernel`.  The algebraic
:class:`AES`/:class:`DES`/:class:`TripleDES` derive the kernels' tables and
key schedules and are the oracle the kernels are tested against.
"""

from .address_scrambler import AddressScrambler
from .aes import AES
from .best_cipher import BestCipher
from .des import DES, TripleDES
from .drbg import DRBG
from .feistel import SmallBlockCipher, TweakableFeistel
from .hmac import consttime_eq, hmac_sha256, prf, verify_hmac
from .kernels import (
    AESKernel,
    DESKernel,
    TripleDESKernel,
    aes_kernel,
    ctr_pads,
    des_kernel,
    tdes_kernel,
)
from .lfsr import LFSR, AlternatingStepGenerator, GeffeGenerator
from .modes import CBC, CFB, CTR, ECB, OFB, xor_bytes
from .padding import PaddingError, pad, unpad
from .rc4 import RC4
from .rsa import RSAKeyPair, RSAPrivateKey, RSAPublicKey, generate_keypair
from .sha256 import SHA256, sha256

__all__ = [
    "AddressScrambler", "AES", "BestCipher", "DES", "TripleDES", "DRBG",
    "SmallBlockCipher", "TweakableFeistel",
    "consttime_eq", "hmac_sha256", "prf", "verify_hmac",
    "AESKernel", "DESKernel", "TripleDESKernel",
    "aes_kernel", "des_kernel", "tdes_kernel",
    "ctr_pads",
    "LFSR", "AlternatingStepGenerator", "GeffeGenerator",
    "CBC", "CFB", "CTR", "ECB", "OFB", "xor_bytes",
    "PaddingError", "pad", "unpad",
    "RC4",
    "RSAKeyPair", "RSAPrivateKey", "RSAPublicKey", "generate_keypair",
    "SHA256", "sha256",
]
