"""Per-agent private execution state and deterministic issue detection.

The private state's inventory changes only through verified action
outcomes (the agent's own, and a transfer's for its recipient), never
through another agent's unverified claims. The agent runtime sets the
active subtask and the blockage; an outcome can clear either.
"""

from __future__ import annotations

from enum import Enum

from .world import FAR_THRESHOLD, Inventory, TaskGraph, VerifiedOutcome, WorldView, dist_sq, nearest_supply


class IssueType(str, Enum):
    MISSING_MATERIAL = "missing_material"
    SUPPORT_FAILURE = "support_failure"
    DEPENDENCY_BLOCK = "dependency_block"
    TRANSFER_NEEDED = "transfer_needed"
    CO_CRAFT_REQUIRED = "co_craft_required"


# Issues where the blockage is literally a missing item in hand; only these
# clear when a verified inventory gain covers the requirement.
MATERIAL_SHAPED_ISSUES = (
    IssueType.MISSING_MATERIAL,
    IssueType.TRANSFER_NEEDED,
    IssueType.CO_CRAFT_REQUIRED,
)


class BlockageRecord:
    __slots__ = ("issue", "node_id", "item", "count", "detected_at")

    def __init__(self, issue: IssueType, node_id: int, item: str | None = None, count: int = 0,
                 detected_at: int = 0):
        self.issue = issue
        self.node_id = node_id
        self.item = item  # missing item, when the issue is material-shaped
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
    if outcome.ok and outcome.kind == "place" and outcome.node_id is not None:
        if state.blockage and state.blockage.node_id == outcome.node_id:
            state.blockage = None
        if state.active_subtask == outcome.node_id:
            state.active_subtask = None
    if state.blockage and state.blockage.item and state.blockage.issue in MATERIAL_SHAPED_ISSUES:
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
    last_outcome: VerifiedOutcome | None = None,
    ignore: set[int] | frozenset[int] = frozenset(),
) -> BlockageRecord | None:
    """Classify the agent's current blockage, if any.

    Exactly one issue class is returned, chosen by the fixed priority
    dependency_block > co_craft_required > transfer_needed > missing_material
    > support_failure. Returns None when execution can proceed normally.
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
                        item=materials.get(p), count=1, detected_at=view.sim_time,
                    )

    target = state.active_subtask
    if target is None or target in placed or target in ignore:
        target = first_ready
    if target is None:
        return None

    material = materials[target]
    if state.inventory.count(material) < 1:
        # co_craft_required: every recipe route needs a station that sits only in
        # teammates' work regions.
        producing = recipes.producing(material)
        if producing and not _any_source_for(view, material):
            stations = {r.station for r in producing if r.station}
            if stations and all(
                _station_owner(view, s) not in (None, view.agent_id) for s in sorted(stations)
            ):
                return BlockageRecord(
                    issue=IssueType.CO_CRAFT_REQUIRED, node_id=target,
                    item=material, count=1, detected_at=view.sim_time,
                )
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

    if (
        last_outcome is not None
        and last_outcome.kind == "place"
        and last_outcome.status == "failure"
        and last_outcome.reason == "prerequisite_unplaced"
        and last_outcome.node_id is not None
    ):
        node = last_outcome.node_id
        if node not in ignore and view.plan.assignments.get(node) == view.agent_id:
            unplaced_preds = [p for p in graph.preds[node] if p not in placed]
            if unplaced_preds and all(
                view.plan.assignments.get(p, view.agent_id) == view.agent_id for p in unplaced_preds
            ):
                return BlockageRecord(
                    issue=IssueType.SUPPORT_FAILURE, node_id=node,
                    item=materials.get(node), count=1, detected_at=view.sim_time,
                )
    return None


def _any_source_for(view: WorldView, item: str) -> bool:
    return nearest_supply(view, view.position, item, FAR_THRESHOLD)[0] is not None


def _station_owner(view: WorldView, station: str) -> str | None:
    """Which agent's work region contains a station of this kind (smallest id wins);
    None if no station is visible or it sits in unclaimed ground."""
    positions = [pos for pos, mat in view.plan.station_positions.items() if mat == station]
    for pos in sorted(positions):
        for aid in sorted(view.plan.work_regions):
            center, radius = view.plan.work_regions[aid]
            if dist_sq(pos, center) <= radius * radius:
                return aid
    return None

