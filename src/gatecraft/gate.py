"""Three-tier gated escalation: hard rules, weighted ordinal score, gray-zone adjudication.

The score is a linear form over five ordinal features in {0,1,2,3}:
criticality and resource/impact features push toward escalation, local
solvability and recent-escalation history push away. Normalization maps the
attainable raw range onto [0,1] so thresholds are weight-independent.
"""

from __future__ import annotations

import json
import math

from .memory import BlockageRecord, IssueType, PrivateState
from .protocol import TeamPublicView
from .solver import NOT_PROBED, RecoveryPlan, plan_local_recovery
from .world import RecipeBook, TaskGraph, WorldView, criticality_of, dist_sq, within

FEATURE_NAMES = ("C", "R", "I", "L", "H")

# The gate's cascade, cheapest first. A run sets how many of them run
# (`RunConfig.tiers`), and each runs every tier before it.
TIERS = ("rules", "score", "adjudicator")


class FeatureVector:
    __slots__ = FEATURE_NAMES

    def __init__(self, C: int, R: int, I: int, L: int, H: int):
        for name, v in zip(FEATURE_NAMES, (C, R, I, L, H)):
            if not isinstance(v, int) or not (0 <= v <= 3):
                raise ValueError(f"feature {name} must be an int in 0..3, got {v!r}")
        self.C = C  # criticality of the blocked node
        self.R = R  # teammate resource availability
        self.I = I  # downstream delay impact
        self.L = L  # local solvability
        self.H = H  # recent escalation history (cooldown level)

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.C, self.R, self.I, self.L, self.H)

    def to_dict(self) -> dict[str, int]:
        return {"C": self.C, "R": self.R, "I": self.I, "L": self.L, "H": self.H}


class GateWeights:
    """Never changed once built; equal weights hash alike."""

    __slots__ = ("wC", "wR", "wI", "wL", "wH")

    def __init__(self, wC: int = 4, wR: int = 2, wI: int = 2, wL: int = 2, wH: int = 1):
        self.wC = wC
        self.wR = wR
        self.wI = wI
        self.wL = wL
        self.wH = wH

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.wC, self.wR, self.wI, self.wL, self.wH)

    def __eq__(self, other):
        if other.__class__ is not GateWeights:
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def __hash__(self):
        return hash(self.as_tuple())

    @staticmethod
    def from_sequence(seq) -> "GateWeights":
        vals = list(seq)
        if len(vals) != 5:
            raise ValueError("weights need exactly 5 entries [wC, wR, wI, wL, wH]")
        return GateWeights(*[int(v) for v in vals])


def validate_weights(w: GateWeights) -> tuple[bool, list[str]]:
    """Check the weight hierarchy: criticality dominates, history is the weakest
    signal, and the middle band stays within one unit of spread."""
    problems: list[str] = []
    vals = w.as_tuple()
    if any(not isinstance(v, int) or v < 0 for v in vals):
        problems.append("weights must be non-negative integers")
    if not (w.wC > max(w.wR, w.wI, w.wL)):
        problems.append("wC must exceed max(wR, wI, wL)")
    if not (min(w.wR, w.wI, w.wL) > w.wH):
        problems.append("min(wR, wI, wL) must exceed wH")
    if abs(w.wR - w.wI) > 1:
        problems.append("|wR - wI| must be <= 1")
    if abs(w.wI - w.wL) > 1:
        problems.append("|wI - wL| must be <= 1")
    return (not problems, problems)


class GateThresholds:
    """Never changed once built; equal thresholds hash alike."""

    __slots__ = ("t_low", "t_high")

    def __init__(self, t_low: float = 0.4, t_high: float = 0.5):
        if not (0.0 <= t_low <= t_high <= 1.0):
            raise ValueError("need 0 <= t_low <= t_high <= 1")
        self.t_low = t_low
        self.t_high = t_high

    def __eq__(self, other):
        if other.__class__ is not GateThresholds:
            return NotImplemented
        return (self.t_low, self.t_high) == (other.t_low, other.t_high)

    def __hash__(self):
        return hash((self.t_low, self.t_high))

    @property
    def midpoint(self) -> float:
        return (self.t_low + self.t_high) / 2.0


def score_bounds(w: GateWeights) -> tuple[int, int]:
    """Attainable raw-score range: minimum with penalties maxed, maximum with
    positive features maxed."""
    return (-3 * (w.wL + w.wH), 3 * (w.wC + w.wR + w.wI))


def escalation_score(fv: FeatureVector, w: GateWeights) -> int:
    return w.wC * fv.C + w.wR * fv.R + w.wI * fv.I - w.wL * fv.L - w.wH * fv.H


def normalize_score(raw: int, w: GateWeights) -> float:
    s_min, s_max = score_bounds(w)
    if s_max <= s_min:
        raise ValueError("degenerate weights: empty score range")
    return (raw - s_min) / (s_max - s_min)


# Feature cut-offs.
STRUCTURAL_THRESHOLD = 3  # C=2 when the unplaced descendant count exceeds this
NEAR_RADIUS = 8  # L=3: the collect source is physically at hand
QUICK_COST = 4  # L=2: a single craft/smelt within this estimate
DETOUR_COST = 3  # I>=1 when the local fix costs at least this
VIABLE_RADIUS = 50  # R: teammate viability distance
IMMEDIATE_RADIUS = 10  # R=3 inside this distance (strict)


def _teammates_with_exact(team: TeamPublicView, view: WorldView, item: str, need: int) -> list[tuple[int, str]]:
    """(dist_sq, agent) pairs for visible teammates believed to hold the exact item."""
    out = []
    for aid, pos in sorted(view.teammates.items()):
        if team.believed_holder(aid, item, need, view.plan.partition):
            out.append((dist_sq(view.position, pos), aid))
    out.sort()
    return out


def _teammates_with_raw(team: TeamPublicView, view: WorldView, recipes: RecipeBook, item: str) -> list[tuple[int, str]]:
    out = []
    raw_items = set()
    for recipe in recipes.producing(item):
        for inp, _ in recipe.inputs:
            raw_items.add(inp)
    for aid, pos in sorted(view.teammates.items()):
        for raw in sorted(raw_items):
            if team.believed_holder(aid, raw, 1, view.plan.partition):
                out.append((dist_sq(view.position, pos), aid))
                break
    out.sort()
    return out


def teammate_resources(view: WorldView, team: TeamPublicView, recipes: RecipeBook,
                       blockage: BlockageRecord) -> int:
    """The feature R: how near a visible teammate believed to hold the
    blocked item (3 or 2), or a raw input of it (1), stands. The only
    feature that reads `team`."""
    item = blockage.item
    exact = _teammates_with_exact(team, view, item, blockage.count)
    viable_sq = VIABLE_RADIUS * VIABLE_RADIUS
    immediate_sq = IMMEDIATE_RADIUS * IMMEDIATE_RADIUS
    exact_viable = [e for e in exact if e[0] <= viable_sq]
    if any(d2 < immediate_sq for d2, _ in exact_viable):
        return 3
    if exact_viable:
        return 2
    if any(d2 <= viable_sq for d2, _ in _teammates_with_raw(team, view, recipes, item)):
        return 1
    return 0


def extract_features(
    view: WorldView,
    graph: TaskGraph,
    state: PrivateState,
    R: int,
    recipes: RecipeBook,
    blockage: BlockageRecord | None = None,
    plan: RecoveryPlan | None | object = NOT_PROBED,
) -> tuple[FeatureVector, RecoveryPlan | None]:
    """Project the blockage into the ordinal feature space.

    `plan` is the caller's local plan probe for the blockage (None: it found
    none); when it is NOT_PROBED, the planner is probed here. Returns the
    feature vector together with that plan (so callers never pay for the
    plan search twice).

    `R` is the caller's `teammate_resources` answer: the one feature that
    reads the team view, which the runtime reads through
    `EpisodeRuntime.read_team`.
    """
    blockage = blockage or state.blockage
    if blockage is None:
        raise ValueError("no blockage to featurize")
    node = blockage.node_id
    placed = view.placed_nodes

    # --- C: structural criticality -------------------------------------
    crit = criticality_of(graph, node, placed)
    closure = graph.descendants(node) | {node}
    ready_outside = any(
        n not in placed and n not in closure and all(p in placed for p in graph.preds[n])
        for n in graph.nodes
    )
    if crit.on_critical_path and not ready_outside:
        C = 3
    elif crit.descendant_count > STRUCTURAL_THRESHOLD or crit.dependent_depth >= 2:
        C = 2
    elif crit.descendant_count >= 1:
        C = 1
    else:
        C = 0

    # --- L: local solvability (probe the solver once) -------------------
    if plan is NOT_PROBED:
        plan = plan_local_recovery(state, view, recipes, blockage)
    if plan is None:
        L = 0
    elif len(plan.steps) == 1:
        step = plan.steps[0]
        if step.op == "collect" and _supply_within(view, step.source_ref, NEAR_RADIUS):
            L = 3
        elif step.op in ("craft", "smelt") and step.estimated_cost <= QUICK_COST:
            L = 2
        else:
            L = 1
    else:
        L = 1

    # --- I: downstream delay ---------------------------------------------
    unplaced_desc = {d for d in graph.descendants(node) if d not in placed}
    teammate_desc = any(view.plan.assignments.get(d, view.agent_id) != view.agent_id for d in unplaced_desc)
    if not ready_outside:
        I = 3
    elif teammate_desc:
        I = 2
    elif unplaced_desc or (plan is not None and plan.total_cost >= DETOUR_COST):
        I = 1
    else:
        I = 0

    # --- H: escalation history (the issue's own cooldown level) ----------
    H = blockage.level_at(view.sim_time)

    return FeatureVector(C=C, R=R, I=I, L=L, H=H), plan


def _supply_within(view: WorldView, ref: tuple | None, radius: int) -> bool:
    pos = view.ref_position(ref) if ref is not None else None
    return pos is not None and within(view.position, pos, radius)


# Tier-1 rules. Order matters: first hit wins.
RULE_STAY_SOLVED_LOCALLY = 0  # L=3 and C<=1: trivially local
RULE_ESCALATE_CRITICAL_DEAD_END = 1  # C=3, L=0, H=0: hard bottleneck, clean history
RULE_ESCALATE_TRANSFER_SHAPED = 2  # transfer issue with a viable partner


def tier1_rules(issue: IssueType, fv: FeatureVector) -> tuple[str, int] | None:
    """Unambiguous fast paths. Returns (verdict, rule_index) or None to defer."""
    if fv.L == 3 and fv.C <= 1:
        return ("stay_local", RULE_STAY_SOLVED_LOCALLY)
    if fv.C == 3 and fv.L == 0 and fv.H == 0:
        return ("escalate", RULE_ESCALATE_CRITICAL_DEAD_END)
    if issue == IssueType.TRANSFER_NEEDED and fv.R >= 2 and fv.H <= 1:
        return ("escalate", RULE_ESCALATE_TRANSFER_SHAPED)
    return None


# ---------------------------------------------------------------------------
# Adjudicator wire format and backends
# ---------------------------------------------------------------------------

REPLY_FIELDS = {"decision", "confidence"}
VALID_DECISIONS = ("stay_local", "escalate")


class AdjudicatorUnavailable(RuntimeError):
    """The backend could not reply (scripted replies ran out or record a
    failed call, endpoint failed). The only error gate_decide turns into a
    stay_local fallback."""


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _unique_keys(pairs: list) -> dict:
    data = dict(pairs)
    if len(data) != len(pairs):
        raise ValueError("repeated key")
    return data


# Strict JSON for replies: `json.loads` would take the tokens NaN and
# Infinity, and the last of two equal keys.
_REPLY_DECODER = json.JSONDecoder(parse_constant=_no_constant, object_pairs_hook=_unique_keys)


def parse_adjudicator_reply(reply: bytes | str) -> tuple[str, float] | None:
    """Strict reply schema: a JSON object with exactly {decision, confidence},
    each key once, and a finite confidence.

    Anything else — extra or repeated fields, free text, wrong types, NaN
    or infinite numbers — is malformed and returns None (the caller falls
    back to stay_local with confidence 0).
    """
    if isinstance(reply, bytes):
        try:
            reply = reply.decode("utf-8")
        except UnicodeDecodeError:
            return None
    try:
        data = _REPLY_DECODER.decode(reply)
    except (ValueError, TypeError):  # JSONDecodeError is a ValueError
        return None
    if not isinstance(data, dict) or set(data.keys()) != REPLY_FIELDS:
        return None
    decision = data["decision"]
    confidence = data["confidence"]
    if decision not in VALID_DECISIONS:
        return None
    if isinstance(confidence, bool) or not isinstance(confidence, (int, float)):
        return None
    if isinstance(confidence, float) and not math.isfinite(confidence):  # 1e999 reads as inf
        return None
    return decision, float(min(1.0, max(0.0, confidence)))  # clamped first: a huge int overflows float


class MockAdjudicator:
    """Deterministic stand-in: escalate iff the card's normalized score clears
    the threshold midpoint; confidence grows linearly with distance from it."""

    name = "mock"

    def __init__(self, thresholds: GateThresholds):
        self.thresholds = thresholds

    def adjudicate(self, request: bytes) -> bytes:
        card = json.loads(request.decode("utf-8"))
        score_norm = float(card["score_norm"])
        mid = self.thresholds.midpoint
        width = self.thresholds.t_high - self.thresholds.t_low
        decision = "escalate" if score_norm >= mid else "stay_local"
        confidence = 1.0 if width <= 0 else min(1.0, max(0.0, abs(score_norm - mid) * 2.0 / width))
        return json.dumps({"decision": decision, "confidence": confidence}, sort_keys=True).encode("utf-8")


class ScriptedAdjudicator:
    """Replays a fixed sequence, one entry per call: a reply, or None for a
    call that fails. A None entry, and a call past the last entry, raise
    AdjudicatorUnavailable."""

    name = "scripted"

    def __init__(self, replies: list):
        self._replies = [self._coerce(r) for r in replies]
        self._cursor = 0

    @staticmethod
    def _coerce(reply) -> bytes | None:
        if reply is None or isinstance(reply, bytes):
            return reply
        if isinstance(reply, str):
            return reply.encode("utf-8")
        if isinstance(reply, dict):
            return json.dumps(reply, sort_keys=True).encode("utf-8")
        raise TypeError(f"unsupported scripted reply {reply!r}")

    def adjudicate(self, request: bytes) -> bytes:
        if self._cursor >= len(self._replies):
            raise AdjudicatorUnavailable("scripted adjudicator exhausted")
        reply = self._replies[self._cursor]
        self._cursor += 1
        if reply is None:
            raise AdjudicatorUnavailable(f"scripted call {self._cursor} fails, as recorded")
        return reply


# Largest adjudicator reply accepted. A valid reply is a few dozen bytes, and
# the body is copied into the trace and counted into token_cost.
MAX_REPLY_BYTES = 64 * 1024


class RemoteAdjudicator:
    """POSTs the decision card to an HTTP endpoint and returns the raw body."""

    name = "remote"

    def __init__(self, url: str, timeout: float = 3.0):
        self.url = url
        self.timeout = timeout

    def adjudicate(self, request: bytes) -> bytes:
        # imported here: they pull in ssl and email, which no other command needs
        import http.client
        import urllib.request

        req = urllib.request.Request(
            self.url, data=request, headers={"Content-Type": "application/json"}, method="POST"
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                body = resp.read(MAX_REPLY_BYTES + 1)
        except (OSError, http.client.HTTPException) as exc:
            raise AdjudicatorUnavailable(f"{self.url}: {exc}") from exc
        if len(body) > MAX_REPLY_BYTES:
            raise AdjudicatorUnavailable(f"{self.url}: reply longer than {MAX_REPLY_BYTES} bytes")
        return body


class GateDecision:
    __slots__ = ("verdict", "tier", "score_raw", "score_norm", "fv", "rule_index", "confidence",
                 "adjudicator_request", "adjudicator_reply", "adjudicator_ok")

    def __init__(self, verdict: str, tier: str, score_raw: int, score_norm: float,
                 fv: FeatureVector, rule_index: int | None = None,
                 confidence: float | None = None, adjudicator_request: str | None = None,
                 adjudicator_reply: str | None = None, adjudicator_ok: bool | None = None):
        self.verdict = verdict  # "stay_local" | "escalate"
        self.tier = tier  # "rule" | "score" | "adjudicator"
        self.score_raw = score_raw
        self.score_norm = score_norm
        self.fv = fv
        # which tier-1 rule fired; None for the rule tier's fall-through
        # default when the cascade stops at the rules
        self.rule_index = rule_index
        self.confidence = confidence
        self.adjudicator_request = adjudicator_request
        self.adjudicator_reply = adjudicator_reply
        self.adjudicator_ok = adjudicator_ok

    def to_dict(self) -> dict:
        d = {
            "verdict": self.verdict,
            "tier": self.tier,
            "score_raw": self.score_raw,
            "score_norm": self.score_norm,
            "fv": self.fv.to_dict(),
        }
        if self.rule_index is not None:
            d["rule_index"] = self.rule_index
        if self.confidence is not None:
            d["confidence"] = self.confidence
        if self.adjudicator_request is not None:
            d["adjudicator_request"] = self.adjudicator_request
        if self.adjudicator_reply is not None:
            d["adjudicator_reply"] = self.adjudicator_reply
        if self.adjudicator_ok is not None:
            d["adjudicator_ok"] = self.adjudicator_ok
        return d


def build_request_card(
    blockage: BlockageRecord, fv: FeatureVector, score_norm: float, plan: RecoveryPlan | None = None
) -> str:
    """Serialize the adjudicator request card. Byte-identical for identical
    inputs; carries no history dump or free text."""
    local = [f"{s.op}:{s.recipe_id or (s.source_ref and s.source_ref[0]) or ''}" for s in plan.steps] if plan else []
    card = {
        "issue": blockage.issue.value,
        "features": fv.to_dict(),
        "score_norm": score_norm,
        "missing": {"item": blockage.item, "count": blockage.count},
        "candidates": {
            "local": local,
            "escalate_request": {"item": blockage.item, "count": blockage.count},
        },
    }
    return json.dumps(card, sort_keys=True, separators=(",", ":"))


def gate_decide(
    blockage: BlockageRecord,
    fv: FeatureVector,
    weights: GateWeights,
    thresholds: GateThresholds,
    adjudicator=None,
    *,
    tiers: int = len(TIERS),
    plan: RecoveryPlan | None = None,
) -> GateDecision:
    """Asymmetric cascade over the first `tiers` (1 to 3) of TIERS.

    Tier 1 rules short-circuit. The score tier stays local at or below
    t_low, escalates at or above t_high, and hands the open interval to the
    adjudicator exactly once; without the adjudicator tier or a backend the
    gray zone stays local (conservative bias). With the rules alone,
    anything they don't catch escalates (communication-first degenerate).
    """
    raw = escalation_score(fv, weights)
    norm = normalize_score(raw, weights)

    hit = tier1_rules(blockage.issue, fv)
    if hit is not None:
        verdict, idx = hit
        return GateDecision(verdict=verdict, tier="rule", score_raw=raw, score_norm=norm,
                            fv=fv, rule_index=idx)

    if tiers < 2:
        return GateDecision(verdict="escalate", tier="rule", score_raw=raw, score_norm=norm, fv=fv)

    if norm <= thresholds.t_low:
        return GateDecision(verdict="stay_local", tier="score", score_raw=raw, score_norm=norm, fv=fv)
    if norm >= thresholds.t_high:
        return GateDecision(verdict="escalate", tier="score", score_raw=raw, score_norm=norm, fv=fv)

    if tiers < 3 or adjudicator is None:
        return GateDecision(verdict="stay_local", tier="score", score_raw=raw, score_norm=norm, fv=fv)

    card = build_request_card(blockage, fv, norm, plan)
    request_bytes = card.encode("utf-8")
    try:
        reply_bytes = adjudicator.adjudicate(request_bytes)
    except AdjudicatorUnavailable:
        return GateDecision(
            verdict="stay_local", tier="adjudicator", score_raw=raw, score_norm=norm, fv=fv,
            confidence=0.0, adjudicator_request=card, adjudicator_reply=None, adjudicator_ok=False,
        )
    parsed = parse_adjudicator_reply(reply_bytes)
    reply_text = reply_bytes.decode("utf-8", errors="replace")
    if parsed is None:
        return GateDecision(
            verdict="stay_local", tier="adjudicator", score_raw=raw, score_norm=norm, fv=fv,
            confidence=0.0, adjudicator_request=card, adjudicator_reply=reply_text, adjudicator_ok=False,
        )
    decision, confidence = parsed
    return GateDecision(
        verdict=decision, tier="adjudicator", score_raw=raw, score_norm=norm, fv=fv,
        confidence=confidence, adjudicator_request=card, adjudicator_reply=reply_text, adjudicator_ok=True,
    )
