"""Per-agent private execution state and deterministic issue detection.

The private state's inventory changes only through verified action
outcomes (the agent's own, and a transfer's for its recipient), never
through another agent's unverified claims. The agent runtime sets the
active subtask and the blockage; an outcome can clear either.
"""

from __future__ import annotations

from enum import Enum

from .world import FAR_THRESHOLD, Inventory, TaskGraph, VerifiedOutcome, WorldView, nearest_supply


class IssueType(str, Enum):
    MISSING_MATERIAL = "missing_material"
    DEPENDENCY_BLOCK = "dependency_block"
    TRANSFER_NEEDED = "transfer_needed"


# Issues where the blockage is literally a missing item in hand; only these
# clear when a verified inventory gain covers the requirement.
MATERIAL_SHAPED_ISSUES = (IssueType.MISSING_MATERIAL, IssueType.TRANSFER_NEEDED)


class BlockageRecord:
    __slots__ = ("issue", "node_id", "item", "count", "detected_at")

    def __init__(self, issue: IssueType, node_id: int, item: str, count: int = 0,
                 detected_at: int = 0):
        self.issue = issue
        self.node_id = node_id
        self.item = item  # the missing item, or the awaited node's material
        self.count = count
        self.detected_at = detected_at


class PrivateState:
    """m_priv = <inventory, active subtask (node id), blockage>."""

    __slots__ = ("agent_id", "inventory", "active_subtask", "blockage")

    def __init__(self, agent_id: str, inventory: Inventory | None = None,
                 active_subtask: int | None = None, blockage: BlockageRecord | None = None):
        self.agent_id = agent_id
        self.inventory = Inventory() if inventory is None else inventory
        self.active_subtask = active_subtask
        self.blockage = blockage


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
        if state.inventory.count(state.blockage.item) >= max(1, state.blockage.count):
            state.blockage = None
    return state


def _local_route_exists(view: WorldView, state: PrivateState, item: str, recipes) -> bool:
    """True if the agent could plausibly obtain `item` without a teammate:
    a visible source/chest within FAR_THRESHOLD, or a recipe whose every input
    is either held or collectable from a nearby source/chest."""
    if _any_source_for(view, item):
        return True
    for recipe in recipes.producing(item):
        if all(
            state.inventory.count(i) >= n or _any_source_for(view, i)
            for i, n in recipe.inputs
        ):
            return True
    return False


def detect_issue(
    state: PrivateState,
    view: WorldView,
    graph: TaskGraph,
    recipes,
    ignore: set[int] | frozenset[int] = frozenset(),
) -> BlockageRecord | None:
    """Classify the agent's current blockage, if any.

    Exactly one issue class is returned, chosen by the fixed priority
    dependency_block > transfer_needed > missing_material. Returns None when
    execution can proceed normally.
    Nodes in `ignore` (e.g. formally abandoned ones) never trigger detection.
    """
    materials = view.plan.materials
    placed = view.placed_nodes
    mine, first_ready = [], None
    for n in view.plan.nodes_of.get(view.agent_id, ()):
        if n not in placed and n not in ignore:
            mine.append(n)
            if first_ready is None and placed.issuperset(graph.preds[n]):
                first_ready = n

    # dependency_block: nothing of mine is ready, and some unplaced node of mine
    # waits on a teammate-assigned (or unassigned) prerequisite.
    if mine and first_ready is None:
        for n in mine:
            for p in graph.preds[n]:
                if p in placed or p in ignore:
                    continue
                if view.plan.assignments.get(p, view.agent_id) != view.agent_id:
                    return BlockageRecord(
                        issue=IssueType.DEPENDENCY_BLOCK, node_id=p,
                        item=materials[p], count=1, detected_at=view.sim_time,
                    )

    target = state.active_subtask
    if target is None or target in placed or target in ignore:
        target = first_ready
    if target is None:
        return None

    material = materials[target]
    if state.inventory.count(material) < 1:
        # transfer_needed: the item exists only in a teammate-designated partition.
        owner = view.plan.partition.get(material)
        if owner is not None and owner != view.agent_id:
            if not _local_route_exists(view, state, material, recipes):
                return BlockageRecord(
                    issue=IssueType.TRANSFER_NEEDED, node_id=target,
                    item=material, count=1, detected_at=view.sim_time,
                )
        return BlockageRecord(
            issue=IssueType.MISSING_MATERIAL, node_id=target,
            item=material, count=1, detected_at=view.sim_time,
        )
    return None


def _any_source_for(view: WorldView, item: str) -> bool:
    return nearest_supply(view, view.position, item, FAR_THRESHOLD)[0] is not None
