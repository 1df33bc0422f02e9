"""Declarative experiment model for the runner.

An :class:`Experiment` is a registry entry describing one of the survey's
experiments (E01–E18): metadata, a set of independent **tasks** (the unit
of parallelism and caching), a renderer producing the human tables the
benches used to print, and a checker asserting the shape of the paper's
claim.

Task functions are module-level callables ``fn(ctx: TaskContext) -> dict``
returning JSON-serializable metrics only — that is what makes them
executable in worker processes, memoizable on disk, and byte-for-byte
deterministic across worker counts.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple

__all__ = ["TaskContext", "Experiment", "task_seed"]


def task_seed(*identity: str) -> int:
    """Deterministic per-task seed, stable across processes and sessions.

    Accepts any identity path — ``task_seed("e01", "cost-gap")`` for
    registry experiments, ``task_seed("campaign", kind, point_name)``
    for campaign design points — and folds it to a 31-bit seed.  The
    two-argument form hashes exactly as it always has.
    """
    return zlib.crc32(":".join(identity).encode()) & 0x7FFFFFFF


@dataclass(frozen=True)
class TaskContext:
    """Execution parameters handed to every task function.

    ``seed`` is the task's deterministic seed (derived from its identity,
    never from wall clock or PID).  ``quick`` selects the scaled-down
    variant used by ``make bench-quick`` and the test suite.
    """

    quick: bool = False
    seed: int = 0

    def n(self, full: int, quick: Optional[int] = None) -> int:
        """Scale a trace length: ``full`` normally, ``quick`` (or full/5)
        in quick mode."""
        if not self.quick:
            return full
        return quick if quick is not None else max(200, full // 5)

    def key(self) -> Dict[str, object]:
        """The context's contribution to the memoization key."""
        return {"quick": self.quick, "seed": self.seed}


#: A task computes one JSON-serializable metrics dict.
TaskFn = Callable[[TaskContext], dict]
#: Results of a whole experiment: task name -> metrics dict.
Results = Dict[str, dict]


@dataclass(frozen=True)
class Experiment:
    """One survey experiment: metadata + tasks + presentation + checks."""

    id: str                             # "e01" … "e18"
    title: str
    section: str                        # survey section / figure
    tasks: Mapping[str, TaskFn] = field(default_factory=dict)
    #: Produce the human-readable tables from the task results.
    render: Optional[Callable[[Results], str]] = None
    #: Assert the shape of the paper's claim; raises AssertionError.
    check: Optional[Callable[[Results], None]] = None
    #: Optionally promote a derived document to the top level of the
    #: metrics file: returns ``(key, json-serializable value)`` computed
    #: from the task results (e.g. E19's ``detection_matrix``).
    publish: Optional[Callable[[Results], "Tuple[str, object]"]] = None

    def checks_passed(self, results: Results) -> Dict[str, object]:
        """Run :attr:`check` and report the outcome as metrics."""
        if self.check is None:
            return {"passed": None, "error": None}
        try:
            self.check(results)
            return {"passed": True, "error": None}
        except AssertionError as exc:
            return {"passed": False, "error": str(exc) or "assertion failed"}
