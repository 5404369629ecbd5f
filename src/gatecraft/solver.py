"""Local recovery: deterministic plans, skip targeting, and coordination cooldowns.

Plan search walks a strict cost-kind order (craft, then smelt, then collect,
then detour chains) and returns the first satisfiable route. All costs are
deterministic estimates from distance/speed arithmetic plus per-step constants.
"""

from __future__ import annotations

import math

from .memory import BlockageRecord, IssueType, PrivateState
from .protocol import WindowState
from .world import (
    FAR_THRESHOLD,
    INTERACTION_RADIUS,
    SPEED,
    Position,
    RecipeBook,
    TaskGraph,
    WorldView,
    dist_sq,
    nearest_supply,
    travel_steps,
)

# The physics a plan's costs rest on, as recorded in a trace's solver context.
PLANNER_PARAMS = {"interaction_radius": INTERACTION_RADIUS, "speed": SPEED, "far_threshold": FAR_THRESHOLD}


class RecoveryStep:
    """One executable recovery leg; `op` names the micro-action the executor
    runs for it. Never changed once built; equal legs hash alike."""

    __slots__ = ("op", "estimated_cost", "recipe_id", "source_ref", "station", "units", "item")

    def __init__(self, op: str, estimated_cost: int, recipe_id: str | None = None,
                 source_ref: tuple | None = None, station: str | None = None, units: int = 1,
                 item: str | None = None):
        self.op = op  # "craft" | "smelt" | "collect"
        self.estimated_cost = estimated_cost
        self.recipe_id = recipe_id
        self.source_ref = source_ref  # ("source", idx) or ("chest", idx, item)
        self.station = station
        self.units = units
        self.item = item  # what a collect leg gathers

    def _key(self) -> tuple:
        return (self.op, self.estimated_cost, self.recipe_id, self.source_ref, self.station,
                self.units, self.item)

    def __eq__(self, other):
        if other.__class__ is not RecoveryStep:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class RecoveryPlan:
    __slots__ = ("item", "count", "steps")

    def __init__(self, item: str, count: int, steps: list[RecoveryStep]):
        self.item = item
        self.count = count
        self.steps = steps

    def __eq__(self, other):
        if other.__class__ is not RecoveryPlan:
            return NotImplemented
        return (self.item, self.count, self.steps) == (other.item, other.count, other.steps)

    @property
    def total_cost(self) -> int:
        return sum(s.estimated_cost for s in self.steps)


def _nearest_station(view: WorldView, station: str | None) -> tuple[Position | None, float]:
    if station is None:
        return None, 0.0
    best: Position | None = None
    best_d2 = None
    for pos in sorted(p for p, mat in view.plan.station_positions.items() if mat == station):
        d2 = dist_sq(view.position, pos)
        if best_d2 is None or d2 < best_d2:
            best, best_d2 = pos, d2
    if best is None:
        return None, math.inf
    return best, math.sqrt(best_d2)


def plan_local_recovery(
    state: PrivateState,
    view: WorldView,
    recipes: RecipeBook,
    blockage: BlockageRecord | None = None,
) -> RecoveryPlan | None:
    """Cheapest-kind-first plan for the blocked requirement, or None.

    Routes, in strict preference order:
      craft  — a recipe whose inputs are all held (single step)
      smelt  — a smelt recipe whose inputs are held, station within far range
      collect — a visible source/chest of the item within far range
      plan_detour — a collect-inputs-then-craft chain when nothing simpler works
    """
    blockage = blockage or state.blockage
    if blockage is None:
        return None
    item = blockage.item
    need = max(1, blockage.count)

    # craft (and smelt) directly from held inputs
    for op in ("craft", "smelt"):
        for recipe in recipes.producing(item):
            if recipe.kind != op:
                continue
            if not all(state.inventory.count(i) >= n for i, n in recipe.inputs):
                continue
            station_pos, station_dist = _nearest_station(view, recipe.station)
            if recipe.station is not None and station_pos is None:
                continue
            if station_dist > FAR_THRESHOLD:
                continue
            crafts = math.ceil(need / recipe.output[1])
            cost = travel_steps(station_dist, INTERACTION_RADIUS, SPEED) + crafts
            return RecoveryPlan(
                item=item, count=need,
                steps=[RecoveryStep(op=op, estimated_cost=cost,
                                    recipe_id=recipe.recipe_id, station=recipe.station, units=crafts)],
            )

    # collect the item itself
    ref, dist, avail = nearest_supply(view, view.position, item, FAR_THRESHOLD)
    if ref is not None and avail >= need:
        cost = travel_steps(dist, INTERACTION_RADIUS, SPEED) + need
        return RecoveryPlan(
            item=item, count=need,
            steps=[RecoveryStep(op="collect", estimated_cost=cost,
                                source_ref=ref, units=need, item=item)],
        )

    # detour: gather missing recipe inputs from visible supplies, then craft
    for recipe in recipes.producing(item):
        station_pos, station_dist = _nearest_station(view, recipe.station)
        if recipe.station is not None and station_pos is None:
            continue
        if station_dist > FAR_THRESHOLD:
            continue
        crafts = math.ceil(need / recipe.output[1])
        steps: list[RecoveryStep] = []
        feasible = True
        cursor = view.position
        for inp_item, inp_n in recipe.inputs:
            missing = inp_n * crafts - state.inventory.count(inp_item)
            if missing <= 0:
                continue
            ref, d, avail = nearest_supply(view, cursor, inp_item, FAR_THRESHOLD)
            if ref is None or avail < missing:
                feasible = False
                break
            leg = travel_steps(d, INTERACTION_RADIUS, SPEED) + missing
            steps.append(RecoveryStep(op="collect", estimated_cost=leg,
                                      source_ref=ref, units=missing, item=inp_item))
            cursor = view.ref_position(ref) or cursor
        if not feasible or not steps:
            continue
        craft_travel = travel_steps(_dist_from(cursor, station_pos), INTERACTION_RADIUS, SPEED) if station_pos else 0
        steps.append(RecoveryStep(op=recipe.kind, estimated_cost=craft_travel + crafts,
                                  recipe_id=recipe.recipe_id, station=recipe.station, units=crafts))
        return RecoveryPlan(item=item, count=need, steps=steps)

    return None


def _dist_from(a: Position, b: Position | None) -> float:
    if b is None:
        return 0.0
    return math.sqrt(dist_sq(a, b))


def local_skip(graph: TaskGraph, placed: set[int], blocked: int | None, allowed: set[int]) -> int | None:
    """Smallest-id node of `allowed` that is unplaced, whose prerequisites are
    all placed, and that is neither the blocked node nor depends on it."""
    excluded = set() if blocked is None else graph.descendants(blocked) | {blocked}
    return min((n for n in allowed
                if n not in placed and n not in excluded and placed.issuperset(graph.preds[n])),
               default=None)


class CooldownEntry:
    __slots__ = ("level", "expires_at", "consecutive_failures")

    def __init__(self, level: int = 0, expires_at: int = 0, consecutive_failures: int = 0):
        self.level = level
        self.expires_at = expires_at
        self.consecutive_failures = consecutive_failures

    def effective_level(self, now: int) -> int:
        return self.level if now < self.expires_at else 0


class CooldownTable:
    """Per (agent, issue) escalation hygiene: levels decay at expiry, zero-yield
    streaks persist until a fulfilled window resets them."""

    def __init__(self, duration: int):
        self.duration = duration
        self.entries: dict[tuple[str, str], CooldownEntry] = {}

    def _key(self, agent: str, issue: IssueType | str) -> tuple[str, str]:
        return (agent, issue.value if isinstance(issue, IssueType) else str(issue))

    def entry(self, agent: str, issue: IssueType | str) -> CooldownEntry:
        return self.entries.setdefault(self._key(agent, issue), CooldownEntry())

    def level(self, agent: str, issue: IssueType | str, now: int) -> int:
        key = self._key(agent, issue)
        e = self.entries.get(key)
        return e.effective_level(now) if e else 0

    def blocked(self, agent: str, issue: IssueType | str, now: int) -> bool:
        """True when window opening is suppressed: an unexpired level>=2 cooldown,
        or a persistent zero-yield streak of 2+ failures."""
        key = self._key(agent, issue)
        e = self.entries.get(key)
        if e is None:
            return False
        if e.consecutive_failures >= 2:
            return True
        return now < e.expires_at and e.level >= 2

    def register_failure(self, agent: str, issue: IssueType | str, state: WindowState, now: int) -> CooldownEntry:
        """Record a window that closed without yield, in `state`. Timeout bumps
        to at least level 1 (level 2 on the second consecutive miss); an
        explicit CANNOT_SUPPLY jumps straight to level 3."""
        if state not in (WindowState.CANNOT_SUPPLY, WindowState.TIMED_OUT):
            raise ValueError(f"not a failed window state: {state!r} (use register_success "
                             "for fulfilled windows)")
        e = self.entry(agent, issue)
        e.consecutive_failures += 1
        if state == WindowState.CANNOT_SUPPLY:
            e.level = 3
        else:
            e.level = max(e.level, 1)
            if e.consecutive_failures >= 2:
                e.level = max(e.level, 2)
        e.expires_at = now + self.duration
        return e

    def register_success(self, agent: str, issue: IssueType | str) -> CooldownEntry:
        """A fulfilled window resets the pair to a clean slate."""
        e = self.entry(agent, issue)
        e.level = 0
        e.expires_at = 0
        e.consecutive_failures = 0
        return e
