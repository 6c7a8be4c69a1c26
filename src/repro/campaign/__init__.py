"""Fault-tolerant campaign orchestration.

The campaign layer is the control plane for long-running studies: a
:class:`~repro.campaign.spec.CampaignSpec` describes a matrix of
machine presets × defenses × chaos profiles × patterns, sharded by
seed; a :class:`~repro.campaign.supervisor.Supervisor` drives the
compiled plan through persistent pool workers with retry, quarantine,
liveness supervision, and graceful degradation; and every decision is
journaled to an append-only WAL so ``repro campaign resume`` after any
crash — including ``kill -9`` — completes with byte-identical results.

Modules:

* :mod:`~repro.campaign.spec` — the spec, its validation, and the
  compiled shard/cell plan;
* :mod:`~repro.campaign.journal` — the WAL, the lifecycle state
  machine, and the replay/fold readers;
* :mod:`~repro.campaign.scheduler` — retry backoff and quarantine
  bookkeeping, rebuildable from a journal fold;
* :mod:`~repro.campaign.worker` — one shard attempt, run in a pool
  worker;
* :mod:`~repro.campaign.supervisor` — the durable store and the run
  loop;
* :mod:`~repro.campaign.faultinject` — the deterministic crash/fault
  harness that keeps the recovery paths honest in CI.

See ``docs/CAMPAIGNS.md`` for the full design.
"""

from repro.campaign.faultinject import FaultPlan, FaultRule, truncate_journal
from repro.campaign.journal import (
    CampaignJournal,
    CANCELLED,
    COMPLETED,
    CREATED,
    DEGRADED,
    PAUSED,
    RUNNING,
    TERMINAL_STATES,
    check_transition,
    fold,
    replay,
)
from repro.campaign.scheduler import Scheduler
from repro.campaign.spec import (
    CampaignPlan,
    CampaignSpec,
    CellSpec,
    ShardSpec,
    SupervisorConfig,
)
from repro.campaign.supervisor import Campaign, Supervisor, campaigns_root
from repro.utils.pool import backoff_delay

__all__ = [
    "CANCELLED",
    "COMPLETED",
    "CREATED",
    "Campaign",
    "CampaignJournal",
    "CampaignPlan",
    "CampaignSpec",
    "CellSpec",
    "DEGRADED",
    "FaultPlan",
    "FaultRule",
    "PAUSED",
    "RUNNING",
    "Scheduler",
    "ShardSpec",
    "Supervisor",
    "SupervisorConfig",
    "TERMINAL_STATES",
    "backoff_delay",
    "campaigns_root",
    "check_transition",
    "fold",
    "replay",
    "truncate_journal",
]
