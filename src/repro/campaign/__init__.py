"""Distributed design-space campaigns: shardable, resumable sweeps.

The survey's experiments fix ~19 design points; this package sweeps the
open design space (engine x workload x cache geometry x latency x seed,
or engine x fault plan) as a shardable stream of content-addressed
tasks:

* :class:`CampaignSpec` declares the grid and expands it into
  deterministic :class:`CampaignPoint`\\ s (``spec.py``);
* :class:`CampaignCoordinator` stride-partitions the key space into
  shards, hands them to a process pool, and resumes interrupted sweeps
  from the on-disk result cache (``coordinator.py``, ``worker.py``);
* :mod:`repro.campaign.merge` reduces shard output with sorted keys and
  stable floats, so K-worker metrics are byte-identical to one worker's.

Entry points: :func:`repro.api.run_campaign` and ``python -m repro.cli
campaign``; ``python -m repro.campaign.bench`` measures scaling.
"""

from .coordinator import CampaignCoordinator, CampaignResult
from .merge import build_document
from .spec import CAMPAIGN_KINDS, CAMPAIGN_SCHEMA, CampaignPoint, CampaignSpec
from .worker import execute_point

__all__ = [
    "CAMPAIGN_KINDS",
    "CAMPAIGN_SCHEMA",
    "CampaignCoordinator",
    "CampaignPoint",
    "CampaignResult",
    "CampaignSpec",
    "build_document",
    "execute_point",
]
