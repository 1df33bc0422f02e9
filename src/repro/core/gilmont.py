"""Gilmont et al.'s fetch-prediction + pipelined triple-DES engine ([3]).

"Guilmont et al. use a fetch prediction unit and pipelined triple-DES block
cipher.  They assume to keep the deciphering cost under 2,5% in term of
performance cost.  However, this work only addresses static code ciphering."

The engine pre-deciphers the next sequential line(s) whenever a line is
fetched; a subsequent miss that hits the prediction window pays no cipher
latency at all — the 3DES drain has already happened in the shadow of the
CPU consuming the previous line.  Taken branches fall outside the window and
pay the full pipelined-3DES drain.  E09 sweeps branchiness to show the
<2.5% claim holding exactly where the paper scopes it (sequential, static
code) and collapsing outside it.

Data writes are the paper's acknowledged blind spot ("authors are not
confronted to smaller-than-block-size memory operations"); the engine
handles them with the generic read-modify-write path, whose cost E09 also
reports.
"""

from __future__ import annotations

from typing import Set

from ..crypto.kernels import tdes_kernel
from ..sim.area import AreaEstimate
from ..sim.pipeline import TDES_PIPE, PipelinedUnit
from .engine import TweakedECBEngine

__all__ = ["GilmontEngine"]


class GilmontEngine(TweakedECBEngine):
    """Pipelined 3DES with an N-deep sequential fetch predictor.

    The functional transform is address-tweaked 3DES-ECB; the predictor
    only changes timing (:meth:`read_extra_cycles`).
    """

    name = "gilmont-3des"
    #: Confidentiality only: the fetch predictor speeds fills, it does not
    #: authenticate them.
    detects = frozenset()

    def __init__(
        self,
        key: bytes,
        prediction_depth: int = 2,
        line_size: int = 32,
        unit: PipelinedUnit = TDES_PIPE,
        functional: bool = True,
        **kwargs,
    ):
        if prediction_depth < 0:
            raise ValueError(f"prediction_depth must be >= 0, got {prediction_depth}")
        super().__init__(tdes_kernel(key), unit=unit, functional=functional,
                         **kwargs)
        self.prediction_depth = prediction_depth
        self.line_size = line_size
        self._predicted: Set[int] = set()
        self._max_window = 4 * max(1, prediction_depth)

    # -- prediction-aware timing ----------------------------------------------

    def read_extra_cycles(self, addr: int, nbytes: int, mem_cycles: int) -> int:
        predicted = addr in self._predicted
        if predicted:
            self.stats.prefetch_hits += 1
            self._predicted.discard(addr)
            extra = 0
            nblocks = self._nblocks(nbytes)
            self.stats.blocks_processed += nblocks
        else:
            self.stats.prefetch_misses += 1
            extra = super().read_extra_cycles(addr, nbytes, mem_cycles)
        # Predict the next sequential lines; the unit deciphers them in the
        # background while the CPU consumes this line.
        for i in range(1, self.prediction_depth + 1):
            self._predicted.add(addr + i * nbytes)
        if len(self._predicted) > self._max_window:
            # The window is a small hardware buffer; oldest entries fall out.
            excess = len(self._predicted) - self._max_window
            for stale in sorted(self._predicted)[:excess]:
                self._predicted.discard(stale)
        return extra

    def area(self) -> AreaEstimate:
        est = AreaEstimate(self.name)
        est.add_block("tdes_pipelined")
        est.add_block("fetch_predictor")
        est.add_sram(
            "prediction-buffer",
            self._max_window * self.line_size,
        )
        est.add_block("control_overhead")
        return est
