"""gatecraft: a deterministic multi-agent construction simulator with
partitioned agent views and a three-tier gated escalation policy.

Agents build a shared blueprint under a declared item partition. When one
blocks, a feature-scored gate decides between local recovery and opening a
coordination window on the public board; an ambiguous score consults a
pluggable adjudicator backend exactly once.
"""

from __future__ import annotations

from .world import (
    Action,
    AgentBody,
    Blueprint,
    BlockSpec,
    Chest,
    CoordinationMessage,
    Inventory,
    PlanInfo,
    Recipe,
    RecipeBook,
    Source,
    TaskGraph,
    VerifiedOutcome,
    WorldState,
    WorldView,
    apply_action,
    blueprint_completion,
    default_recipes,
    observe,
)
from .memory import (
    BlockageRecord,
    IssueType,
    PrivateState,
    detect_issue,
    update_private_state,
)
from .gate import (
    AdjudicatorUnavailable,
    FeatureVector,
    GateDecision,
    GateThresholds,
    GateWeights,
    MockAdjudicator,
    RemoteAdjudicator,
    ScriptedAdjudicator,
    escalation_score,
    extract_features,
    gate_decide,
    normalize_score,
    parse_adjudicator_reply,
    score_bounds,
    tier1_rules,
    validate_weights,
)
from .solver import RecoveryPlan, RecoveryStep, plan_local_recovery
from .protocol import (
    CoordinationWindow,
    WindowState,
    open_window,
    respond_policy,
    settle_window,
    validate_message,
)
from .agent import RunConfig, Trace, run_episode
from .scenarios import EpisodeSpec, generate_dataset, validate_class_property
from .harness import (
    CalibrationConfig,
    EpisodeMetrics,
    adjudicator_replies,
    aggregate,
    calibrate,
    compute_metrics,
    replay_local_feasibility,
    split_templates,
)

__all__ = [
    "Action",
    "AdjudicatorUnavailable",
    "AgentBody",
    "BlockageRecord",
    "Blueprint",
    "BlockSpec",
    "CalibrationConfig",
    "Chest",
    "CoordinationMessage",
    "CoordinationWindow",
    "EpisodeMetrics",
    "EpisodeSpec",
    "FeatureVector",
    "GateDecision",
    "GateThresholds",
    "GateWeights",
    "Inventory",
    "IssueType",
    "MockAdjudicator",
    "PlanInfo",
    "PrivateState",
    "Recipe",
    "RecipeBook",
    "RecoveryPlan",
    "RecoveryStep",
    "RemoteAdjudicator",
    "RunConfig",
    "ScriptedAdjudicator",
    "Source",
    "TaskGraph",
    "Trace",
    "VerifiedOutcome",
    "WindowState",
    "WorldState",
    "WorldView",
    "adjudicator_replies",
    "aggregate",
    "apply_action",
    "blueprint_completion",
    "calibrate",
    "compute_metrics",
    "default_recipes",
    "detect_issue",
    "escalation_score",
    "extract_features",
    "gate_decide",
    "generate_dataset",
    "normalize_score",
    "observe",
    "open_window",
    "parse_adjudicator_reply",
    "plan_local_recovery",
    "replay_local_feasibility",
    "respond_policy",
    "run_episode",
    "score_bounds",
    "settle_window",
    "split_templates",
    "tier1_rules",
    "update_private_state",
    "validate_class_property",
    "validate_message",
]

__version__ = "0.1.0"
