"""Outside-in span tracer for the benchmark's traced run.

The benchmark never edits the program to trace it.  :func:`install`
puts timing wrappers around the public functions and methods of each
simulator layer (see :data:`LAYERS`), the traced workload runs, and
:func:`Patches.restore` puts every original back.  Each wrapped call
records one span — layer, start, end, parent span — into flat in-memory
arrays; nothing is written until the run ends.

Two rules keep the spans meaningful:

* A call into a layer that is already the innermost open span (a
  recursive ``stable_floats``, ``encrypt_block`` calling
  ``encrypt_blocks``, ``fill_lines`` falling back to ``fill_line``, an
  integrity engine forwarding to its inner engine) records nothing, so
  the outermost call owns the time and the counts.
* Functions are patched wherever a ``repro`` module holds them, not only
  where they are defined: ``from .x import f`` copies ``f`` by value
  into the importer, and patching ``x.f`` alone would miss that call
  site.  Methods are patched on every class that defines them, since
  engines and kernels are reached through instances.

Whatever a layer's wrappers do not cover stays in the root span's self
time, reported as the trace's residue rather than silently lost.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Name of the span that encloses the timed region.
ROOT = "workload"

#: Counter hook: ``count(counters, args, result)`` adds to ``counters``.
Count = Callable[[Dict[str, float], tuple, object], None]

_MARK = "_perfbench_original"


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._stack_layer = [-1]

    def layer_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn: Callable, name: str, count: Optional[Count] = None,
             iterates: bool = False) -> Callable:
        """A span-recording stand-in for ``fn`` under layer ``name``.

        With ``iterates``, an iterator returned by ``fn`` is wrapped too,
        so the work a generator does on each ``next`` lands in a span of
        the same layer (calling a generator function does no work).
        """
        lid = self.layer_id(name)
        stack, stack_layer = self._stack, self._stack_layer
        layer_append, parent_append = self.layer.append, self.parent.append
        start_append, end_append = self.start.append, self.end.append
        end, counters, clock = self.end, self.counters, time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if stack_layer[-1] == lid:
                return fn(*args, **kwargs)
            idx = len(end)
            layer_append(lid)
            parent_append(stack[-1])
            end_append(0)
            stack.append(idx)
            stack_layer.append(lid)
            start_append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                stack_layer.pop()
            if count is not None:
                count(counters, args, result)
            if iterates and hasattr(result, "__next__") \
                    and iter(result) is result:
                return _TracedIterator(tracer, name, result)
            return result

        setattr(wrapper, _MARK, fn)
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def run_root(self, body: Callable[[], object]) -> object:
        """Call ``body`` inside the :data:`ROOT` span."""
        return self.wrap(body, ROOT)()

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
        }

    def layer_self_seconds(self) -> Dict[str, float]:
        """Total self time per layer, in seconds."""
        spans = self.arrays()
        own = self_times(spans["parent"], spans["start"], spans["end"])
        totals = np.bincount(spans["layer"], weights=own,
                             minlength=len(self.names))
        return {name: float(totals[i]) / 1e9
                for i, name in enumerate(self.names)}

    def durations(self, name: str) -> np.ndarray:
        """Wall seconds of every span of layer ``name``, in record order."""
        if name not in self._ids:
            return np.zeros(0)
        spans = self.arrays()
        pick = spans["layer"] == self._ids[name]
        return (spans["end"][pick] - spans["start"][pick]) / 1e9

    def save(self, path) -> None:
        """Write every span (and the layer names) to ``path`` as .npz."""
        np.savez(path, names=np.array(self.names), **self.arrays())


class _TracedIterator:
    """An iterator whose every ``next`` is a span of its layer."""

    __slots__ = ("_next",)

    def __init__(self, tracer: Tracer, name: str, iterator) -> None:
        self._next = tracer.wrap(iterator.__next__, name, count=_next_items)

    def __iter__(self):
        return self

    def __next__(self):
        return self._next()


def self_times(parent: np.ndarray, start: np.ndarray,
               end: np.ndarray) -> np.ndarray:
    """Per-span self time: duration minus the durations of its children.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of its interval and their durations simply add up.
    """
    duration = (end - start).astype(np.float64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=len(duration))
    return duration - covered


# -- layer table -------------------------------------------------------------


def _items(counters, args, result) -> None:
    # Materialized traces count here; generators count per ``next``.
    if isinstance(result, list):
        counters["traces.gen.items"] += len(result)


def _next_items(counters, args, item) -> None:
    # A generator yields either one access or one chunk of them.
    counters["traces.gen.items"] += (
        len(item) if hasattr(type(item), "__len__") else 1)


def _compiled(counters, args, result) -> None:
    from repro.sim.fastpath import CompiledTrace

    if isinstance(result, CompiledTrace) and result is not args[0]:
        counters["fastpath.compile.chunks"] += 1
        counters["fastpath.compile.accesses"] += len(result)
        counters["fastpath.compile.runs"] += len(result.runs)


def _size(value) -> int:
    # An address/size argument counts as one; a batch or a buffer by length.
    return 1 if isinstance(value, int) else len(value)


def _lines(layer: str) -> Count:
    # fill_line(port, addr, ...) / fill_lines(port, addrs, ...), and the
    # same shapes for write_line / spill_lines.
    def count(counters, args, result) -> None:
        counters[f"{layer}.calls"] += 1
        counters[f"{layer}.lines"] += _size(args[2])
    return count


def _calls(layer: str) -> Count:
    def count(counters, args, result) -> None:
        counters[f"{layer}.calls"] += 1
    return count


def _blocks(counters, args, result) -> None:
    kernels = sys.modules["repro.crypto.kernels"]
    size = args[0].block_size
    blocks = len(args[1]) // size
    wide = (kernels.NUMPY_MIN_BLOCKS_AES if size == 16
            else kernels.NUMPY_MIN_BLOCKS_DES)
    counters["cipher.calls"] += 1
    counters["cipher.blocks"] += blocks
    if blocks >= wide:
        counters["cipher.wide_blocks"] += blocks


def _memory_bytes(counters, args, result) -> None:
    # read/dump(addr, nbytes), write/load_image(addr, data)
    nbytes = args[2]
    counters["memory.bytes"] += nbytes if isinstance(nbytes, int) \
        else len(nbytes)


@dataclass(frozen=True)
class Target:
    """One layer boundary: functions of a module or methods of classes.

    ``names`` are attribute names on ``module`` (functions) or, with
    ``cls`` set, method names on that class and — with ``subclasses`` —
    on every subclass that defines its own.  ``names=None`` takes every
    public function the module defines.
    """

    layer: str
    module: str
    names: Optional[Tuple[str, ...]] = None
    cls: Optional[str] = None
    subclasses: bool = False
    count: Optional[Count] = None
    iterates: bool = False


_ENGINE = dict(module="repro.core.engine", cls="BusEncryptionEngine",
               subclasses=True)

LAYERS: Tuple[Target, ...] = (
    Target("traces.gen", "repro.traces.generator", count=_items,
           iterates=True),
    Target("traces.gen", "repro.traces.workloads",
           ("iter_workload", "make_workload", "stream_workload",
            "array_stream_workload", "standard_suite", "mcu_workload",
            "synthetic_code_image"), count=_items, iterates=True),
    Target("traces.gen", "repro.traces.stream", ("chunked",), count=_items,
           iterates=True),
    Target("fastpath.compile", "repro.sim.fastpath",
           ("compile_trace", "_compile_arrays"), count=_compiled),
    Target("fastpath.execute", "repro.sim.fastpath", ("execute",)),
    Target("engine.fill", names=("fill_line", "fill_lines"),
           count=_lines("engine.fill"), **_ENGINE),
    Target("engine.spill", names=("write_line", "spill_lines"),
           count=_lines("engine.spill"), **_ENGINE),
    Target("engine.write_partial", names=("write_partial",),
           count=_calls("engine.write_partial"), **_ENGINE),
    Target("engine.install", names=("install_image", "encrypt_lines"),
           **_ENGINE),
    *(Target("cipher", "repro.crypto.kernels", cls=kernel,
             names=("encrypt_blocks", "decrypt_blocks", "encrypt_block",
                    "decrypt_block"), count=_blocks)
      for kernel in ("AESKernel", "DESKernel", "TripleDESKernel",
                     "ReferenceKernel")),
    Target("memory", "repro.sim.memory", cls="MainMemory",
           names=("read", "write", "load_image", "dump"),
           count=_memory_bytes),
    Target("bus", "repro.sim.bus", cls="Bus", names=("transfer",),
           count=_calls("bus")),
    Target("faults.campaign", "repro.faults.campaign", ("run_campaign",),
           count=_calls("faults.campaign")),
    Target("runner.task", "repro.runner.runner", ("_execute_task",)),
    Target("runner.canonicalize", "repro.runner.cache", ("stable_floats",)),
    Target("runner.canonicalize", "repro.runner.runner",
           ("to_canonical_json",)),
    Target("cache.get", "repro.runner.cache", cls="ResultCache",
           names=("get",)),
    Target("cache.put", "repro.runner.cache", cls="ResultCache",
           names=("put",)),
    Target("obs.emit", "repro.obs.sinks", cls="EventSink", subclasses=True,
           names=("emit", "emit_bulk"), count=_calls("obs.emit")),
    Target("registry.make_engine", "repro.core.registry", ("make_engine",),
           count=_calls("registry.make_engine")),
    Target("system.build", "repro.sim.system", cls="SecureSystem",
           names=("__init__",)),
    Target("overhead", "repro.analysis.overhead", ("measure_overhead",),
           count=_calls("overhead")),
    Target("campaign.plan", "repro.campaign.coordinator",
           cls="CampaignCoordinator", names=("plan",)),
    Target("campaign.point", "repro.campaign.worker", ("execute_point",)),
    Target("campaign.merge", "repro.campaign.merge",
           ("build_document", "merge_shard_documents", "shard_document")),
)


# -- patching ------------------------------------------------------------------


class Patches:
    """Every attribute :func:`install` replaced, with its original."""

    def __init__(self) -> None:
        self._log: List[Tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        """Replace ``owner.attr`` (a module dict or a class), logging it."""
        if isinstance(owner, dict):
            self._log.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._log.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def __len__(self) -> int:
        return len(self._log)

    def restore(self) -> None:
        """Put every original back, newest patch first.

        Also unwraps any wrapper a module picked up by value while the
        patches were live (a lazy ``from x import f`` during the run).
        """
        for owner, attr, original in reversed(self._log):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._log.clear()
        for module in _repro_modules():
            for attr, value in list(vars(module).items()):
                original = getattr(value, _MARK, None)
                if original is not None and callable(value):
                    setattr(module, attr, original)


def _repro_modules() -> List[object]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


def _module_holders() -> Dict[int, List[Tuple[dict, str]]]:
    """``id(value) -> [(module dict, attr), ...]`` over repro modules."""
    holders: Dict[int, List[Tuple[dict, str]]] = defaultdict(list)
    for module in _repro_modules():
        namespace = vars(module)
        for attr, value in namespace.items():
            if callable(value):
                holders[id(value)].append((namespace, attr))
    return holders


def _all_subclasses(cls) -> List[type]:
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


def install(tracer: Tracer, layers: Sequence[Target] = LAYERS) -> Patches:
    """Wrap every layer boundary in ``layers``; returns the undo log.

    Import the modules the workload uses first: only modules already in
    ``sys.modules`` are searched for by-value copies of a function.
    """
    import importlib

    modules = [importlib.import_module(target.module) for target in layers]
    patches = Patches()
    holders = _module_holders()
    for target, module in zip(layers, modules):
        if target.cls is not None:
            base = getattr(module, target.cls)
            classes = _all_subclasses(base) if target.subclasses else [base]
            for cls in classes:
                for name in target.names:
                    raw = cls.__dict__.get(name)
                    if raw is None or hasattr(raw, _MARK):
                        continue
                    patches.set(cls, name, tracer.wrap(
                        raw, target.layer, target.count, target.iterates))
            continue
        names = target.names or tuple(
            attr for attr, value in vars(module).items()
            if not attr.startswith("_") and callable(value)
            and not isinstance(value, type)
            and getattr(value, "__module__", None) == module.__name__)
        for name in names:
            original = getattr(module, name)
            wrapper = tracer.wrap(original, target.layer,
                                  target.count, target.iterates)
            for namespace, attr in holders.get(id(original), ()):
                if namespace.get(attr) is original:
                    patches.set(namespace, attr, wrapper)
    return patches
