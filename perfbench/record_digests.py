"""Record the stream workloads' output digests into ``digests.json``.

    PYTHONPATH=src python3 perfbench/record_digests.py

Digests come from the public ``repro.api.run_stream`` call, never from the
benchmark's own split of it, so a benchmark sample that drifts from the
API fails its check.  Re-record only when the simulated results are meant
to change (or a stream workload's size does); the commit doing so should
say why.  2005 is the default seed; 4242 is held out from tuning.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import DIGESTS, WORKLOADS, digest, stream_document  # noqa: E402

SEEDS = (2005, 4242)


def main() -> int:
    recorded = {}
    for name, workload in sorted(WORKLOADS.items()):
        spec = workload.stream
        if spec is None:
            continue
        recorded[name] = {
            str(seed): digest(stream_document(spec.api_document(seed)))
            for seed in SEEDS
        }
        print(f"{name}: {recorded[name]}")
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
