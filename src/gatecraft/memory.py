"""Per-agent private execution state and deterministic issue detection.

The private state's inventory changes only through verified action
outcomes (the agent's own, and a transfer's for its recipient), never
through another agent's unverified claims. Detection sets the active
subtask, from `next_node`, and the step loop the blockage, which is the one
record of the agent's open issue; an outcome can clear either. `next_node`
("builds next") and `waits_on` ("waits on") are the two rules the runtime
asks too: skip work builds what `next_node` picks among held materials, and
a dependency block ends once `waits_on` no longer yields its blocker.
"""

from __future__ import annotations

from collections.abc import Iterator

from .solver import NOT_PROBED, RecoveryStep, plan_local_recovery
from .world import Inventory, PlanInfo, RecipeBook, TaskGraph, VerifiedOutcome, WorldView


class IssueType:
    MISSING_MATERIAL = "missing_material"
    DEPENDENCY_BLOCK = "dependency_block"
    TRANSFER_NEEDED = "transfer_needed"
    ALL = (MISSING_MATERIAL, DEPENDENCY_BLOCK, TRANSFER_NEEDED)


# Issues where the blockage is literally a missing item in hand; only these
# clear when a verified inventory gain covers the requirement.
MATERIAL_SHAPED_ISSUES = (IssueType.MISSING_MATERIAL, IssueType.TRANSFER_NEEDED)


class BlockageRecord:
    """One open issue and all the agent holds for it: what blocks the agent
    and since when, what was done about it, which the `issue` event that
    ends it reports, its own escalation cooldown, which starts clean, and
    its route. `count` is the number of `item` the agent needs in hand."""

    __slots__ = ("issue", "node_id", "item", "count", "detected_at", "windows_opened",
                 "recovery_activated", "level", "expires_at", "consecutive_failures",
                 "legs", "skipping", "gate_at", "plan")

    def __init__(self, issue: str, node_id: int, item: str, count: int = 1, detected_at: int = 0):
        self.issue = issue
        self.node_id = node_id
        self.item = item  # the missing item, or the awaited node's material
        self.count = count
        self.detected_at = detected_at
        self.windows_opened = 0
        self.recovery_activated = False
        self.level = 0
        self.expires_at = 0
        self.consecutive_failures = 0
        self.legs: list[tuple[RecoveryStep, str, int]] = []  # (step, item, count that finishes it)
        self.skipping = False  # with no window and no legs: skip work, else wait
        # the sim time from which the next step passes the gate, or None; a
        # retry's is the cooldown's expiry
        self.gate_at: int | None = detected_at
        self.plan = NOT_PROBED  # detection's probe, for the gate pass in its step

    def level_at(self, now: int) -> int:
        """The cooldown level, 0 once it has expired."""
        return self.level if now < self.expires_at else 0

    def hard_blocked(self, now: int) -> bool:
        """True when opening a window is suppressed: two failed windows in a
        row, or an unexpired level of 2 or more."""
        return self.consecutive_failures >= 2 or (now < self.expires_at and self.level >= 2)

    def register_failure(self, refused: bool, now: int, duration: int) -> None:
        """Record a window that closed without yield. A timeout raises the
        level to at least 1 (2 on the second failure in a row); a refusal
        (CANNOT_SUPPLY) raises it to 3. Either expires `duration` from now."""
        self.consecutive_failures += 1
        self.level = 3 if refused else max(self.level, 2 if self.consecutive_failures >= 2 else 1)
        self.expires_at = now + duration

    def register_success(self) -> None:
        """A fulfilled window clears the cooldown; the streak lasts until then."""
        self.level = self.expires_at = self.consecutive_failures = 0


class PrivateState:
    """m_priv: all one agent knows and intends apart from the public board.
    Its remembered inventory, its active subtask (a node id), its open
    issue's record and the node its skip work builds. What it gave up is
    public (`EpisodeRuntime.dead`). The step loop reads the agent's own
    inventory only from here."""

    __slots__ = ("agent_id", "inventory", "active_subtask", "blockage", "skip_target")

    def __init__(self, agent_id: str, inventory: Inventory | None = None):
        self.agent_id = agent_id
        self.inventory = Inventory() if inventory is None else inventory
        self.active_subtask: int | None = None
        self.blockage: BlockageRecord | None = None
        # a window may outlive its issue, and skip work with it
        self.skip_target: int | None = None


def update_private_state(state: PrivateState, outcome: VerifiedOutcome) -> PrivateState:
    """Apply one verified action outcome in place and return the state."""
    inv_deltas = outcome.deltas.get("inventory", {}).get(state.agent_id)
    if inv_deltas:
        for item, n in inv_deltas.items():
            if n >= 0:
                state.inventory.add(item, n)
            else:
                state.inventory.remove(item, -n)
    if outcome.ok and outcome.kind == "place" and state.active_subtask == outcome.node_id:
        state.active_subtask = None
    if state.blockage and state.blockage.issue in MATERIAL_SHAPED_ISSUES:
        # A verified inventory gain can satisfy the missing requirement.
        if state.inventory.count(state.blockage.item) >= state.blockage.count:
            state.blockage = None
    return state


def next_node(plan: PlanInfo, agent_id: str, placed: frozenset[int], graph: TaskGraph,
              ignore: set[int] | frozenset[int] = frozenset(),
              held: Inventory | None = None) -> int | None:
    """What the agent builds next: the first of its nodes in `plan.nodes_of`
    order (the task graph's topological order) that is unplaced, not in
    `ignore`, and whose prerequisites are all placed. With `held`, the first
    such node whose material `held` holds: skip work's target."""
    for n in plan.nodes_of.get(agent_id, ()):
        if (n not in placed and n not in ignore and placed.issuperset(graph.preds[n])
                and (held is None or held.count(plan.materials[n]) >= 1)):
            return n
    return None


def waits_on(plan: PlanInfo, agent_id: str, placed: frozenset[int], graph: TaskGraph,
             ignore: set[int] | frozenset[int] = frozenset()) -> Iterator[int]:
    """What the agent waits on: for each of its nodes in `plan.nodes_of`
    order that is unplaced and not in `ignore`, each unplaced prerequisite
    assigned to a teammate. Detection blocks on the first; a dependency block
    lasts while its blocker is among them."""
    for n in plan.nodes_of.get(agent_id, ()):
        if n in placed or n in ignore:
            continue
        for p in graph.preds[n]:
            if p not in placed and plan.assignments.get(p, agent_id) != agent_id:
                yield p


def detect_issue(
    state: PrivateState,
    view: WorldView,
    graph: TaskGraph,
    recipes: RecipeBook,
    ignore: set[int] | frozenset[int] = frozenset(),
) -> BlockageRecord | None:
    """Set the agent's active subtask to `next_node` and classify its
    current blockage, if any.

    Exactly one issue class is returned, chosen by the fixed priority
    dependency_block > transfer_needed > missing_material. Returns None when
    execution can proceed normally.
    Nodes in `ignore` never trigger detection. The runtime passes its dead
    nodes, which hold every node below each of them, so a prerequisite in
    `ignore` needs no check of its own: the node that waits on it is there
    too.

    When none of the agent's nodes is ready (`next_node` finds none), the
    agent is blocked on the first node it waits on (`waits_on`), if any.
    Otherwise the target is the active subtask.

    An unheld target material is `transfer_needed` when no local plan reaches
    it and the plan partitions it to a teammate, else `missing_material`.
    "No local plan" is `plan_local_recovery` finding none: the planner whose
    plan the gate's L feature and the local route read. The record keeps
    that answer as its `plan`, for the gate pass in the same step.
    """
    plan, me, placed = view.plan, view.agent_id, view.placed_nodes
    target = state.active_subtask = next_node(plan, me, placed, graph, ignore)
    if target is None:
        blocker = next(waits_on(plan, me, placed, graph, ignore), None)
        return None if blocker is None else BlockageRecord(
            issue=IssueType.DEPENDENCY_BLOCK, node_id=blocker,
            item=plan.materials[blocker], detected_at=view.sim_time,
        )

    material = plan.materials[target]
    if state.inventory.count(material) >= 1:
        return None
    blockage = BlockageRecord(
        issue=IssueType.MISSING_MATERIAL, node_id=target,
        item=material, detected_at=view.sim_time,
    )
    owner = view.plan.partition.get(material)
    if owner not in (None, view.agent_id):
        blockage.plan = plan_local_recovery(state, view, recipes, blockage)
        if blockage.plan is None:
            blockage.issue = IssueType.TRANSFER_NEEDED
    return blockage
