"""Shared fixtures.

``reference_ciphers`` is the cipher oracle: inside it the kernel registry
hands out :class:`~repro.crypto.kernels.ReferenceKernel` adapters over the
algebraic AES / DES / 3DES.  Every production AES / DES / 3DES object
comes from that registry (engines, experiments, the distribution
protocol), so every block they encipher runs through the reference
GF(2^8) / Feistel arithmetic.  Differential tests build one system inside
it and one outside, and compare.
"""

import contextlib

import pytest

from repro.core import engine
from repro.crypto import kernels
from repro.crypto.aes import AES
from repro.crypto.des import DES, TripleDES

_REFERENCE = {"aes": AES, "des": DES, "3des": TripleDES}


@contextlib.contextmanager
def _reference_ciphers():
    cache = {}

    def registered(kind, key, factory):
        entry = (kind, bytes(key))
        if entry not in cache:
            cache[entry] = kernels.ReferenceKernel(_REFERENCE[kind](key))
        return cache[entry]

    # The chained-3DES unit memo (GI regions, VLSI pages) is keyed by raw
    # key bytes, so kernel-made entries would answer for the reference
    # cipher: run it empty.
    memo = dict(engine._CHAIN_MEMO)
    engine._CHAIN_MEMO.clear()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernels, "_registered", registered)
        try:
            yield
        finally:
            engine._CHAIN_MEMO.clear()
            engine._CHAIN_MEMO.update(memo)


@pytest.fixture(scope="session")
def reference_ciphers():
    """Context-manager factory: ``with reference_ciphers(): ...``."""
    return _reference_ciphers
