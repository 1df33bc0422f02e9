"""The simulator's one execution path.

numpy is a hard dependency (``pyproject.toml``), so there is a single
production path: the batched trace executor in :mod:`repro.sim.fastpath`
over the cipher kernels in :mod:`repro.crypto.kernels`, which pick
their narrow rung or numpy gathers per call by batch width.  The algebraic
reference ciphers and the per-access step loop stay as oracles, driven
from ``tests/`` (DESIGN.md §10, "One execution path").
"""

__all__ = ["ACTIVE"]

#: Name of the execution path, recorded in benchmark documents.
ACTIVE = "numpy"
