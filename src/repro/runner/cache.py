"""On-disk memoization of completed experiment tasks.

Task results are pure functions of ``(experiment, task, context,
code-version)``, so re-running a bench suite only pays for what changed.
Each completed task is one small JSON file under the cache directory,
keyed by a SHA-256 of the identifying tuple; the package version is part
of the key so upgrading the code invalidates stale results wholesale.

The cache is safe under concurrent writers (atomic rename) and safe to
delete at any time (``make clean`` removes it).
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Optional

from .. import __version__

__all__ = ["ResultCache", "stable_floats"]


def stable_floats(value, places: int = 6):
    """Canonical float formatting for result documents.

    Rounds every float to ``places`` decimals and collapses ``-0.0`` to
    ``0.0``, recursively, so a metrics dict serializes to the same bytes
    no matter which process produced it or whether it round-tripped
    through the cache.  Shard merge determinism depends on this: two
    workers computing the same point must publish byte-identical
    documents, and an aggregate computed from cached entries must equal
    one computed from fresh results.
    """
    if isinstance(value, float):
        rounded = round(value, places)
        return 0.0 if rounded == 0.0 else rounded
    if isinstance(value, dict):
        return {key: stable_floats(item, places)
                for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [stable_floats(item, places) for item in value]
    return value


class ResultCache:
    """A directory of memoized task results."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    @staticmethod
    def task_key(experiment_id: str, task_name: str, ctx_key: dict,
                 schema: str = "", *, quick: Optional[bool] = None) -> str:
        """Stable digest identifying one task execution.

        ``schema`` is the metrics schema the caller will store under the
        key: bumping the document schema must invalidate cached entries,
        otherwise stale results of the old shape would be replayed into
        new documents.

        ``quick`` is folded into the key as a first-class field so a
        quick-suite (scaled-down) result can never be replayed into a
        full-scale document — even if a caller builds ``ctx_key`` by hand
        and forgets the flag.  When not passed explicitly it is recovered
        from ``ctx_key``.
        """
        if quick is None:
            quick = bool(ctx_key.get("quick", False))
        ident = json.dumps(
            {
                "experiment": experiment_id,
                "task": task_name,
                "ctx": ctx_key,
                "quick": bool(quick),
                "schema": schema,
                "version": __version__,
            },
            sort_keys=True,
        )
        return hashlib.sha256(ident.encode()).hexdigest()[:24]

    def counters(self) -> dict:
        """Hit/miss accounting as a JSON-ready dict (profiles, stats)."""
        return {"hits": self.hits, "misses": self.misses}

    def _path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            self.misses += 1
            return None
        # Only an entry that :meth:`put` wrote under this key is data.  An
        # entry without a "value" field (an older format), one that is not
        # a JSON object, or one copied in under another key's filename (a
        # splice) is a miss.
        if not isinstance(payload, dict) or payload.get("key") != key \
                or "value" not in payload:
            self.misses += 1
            return None
        self.hits += 1
        return payload["value"]

    def put(self, key: str, value: dict) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        # Canonical on-disk form: sorted keys below, stable floats here.
        # Producers already emit rounded floats, so this is normally the
        # identity — it exists so no writer can introduce entries whose
        # replay differs from a fresh execution by float formatting.
        payload = {"key": key, "value": stable_floats(value)}
        # Atomic publish: never expose a half-written JSON file.
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, sort_keys=True)
            os.replace(tmp, self._path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
