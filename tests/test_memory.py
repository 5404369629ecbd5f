from gatecraft import (
    Action,
    IssueType,
    PrivateState,
    apply_action,
    detect_issue,
    observe,
    update_private_state,
)
from gatecraft.agent import EpisodeRuntime, RunConfig
from gatecraft.memory import BlockageRecord

from conftest import make_world, plan_for


def _init_state(world, agent_id, plan):
    view = observe(world, agent_id, plan=plan)
    return PrivateState(agent_id=agent_id, inventory=view.inventory)


def test_init_event_snapshots_view(dataset):
    """Each agent's private state starts from a copy of its body's inventory,
    with no focus and no blockage."""
    _, episodes = dataset
    ep = EpisodeRuntime(next(e for e in episodes if e.class_label == "B"), RunConfig())
    for aid, rt in ep.runtimes.items():
        body = ep.world.agents[aid].inventory
        assert rt.state.inventory.counts == body.counts and rt.state.inventory is not body
        assert rt.state.active_subtask is None and rt.state.blockage is None


def test_outcome_event_applies_verified_deltas_only():
    world = make_world([(0, (0, 0, 1), "stone")], agents={"a0": ((0, 0, 0), {"stone": 1})})
    plan = plan_for(world)
    state = _init_state(world, "a0", plan)
    world, out = apply_action(world, "a0", Action.place(0))
    update_private_state(state, out)
    assert state.inventory.count("stone") == 0


def test_verified_gain_clears_material_blockage():
    world = make_world(
        [(0, (0, 0, 1), "stone")],
        sources=[("stone", (1, 0, 0), 2)],
    )
    state = _init_state(world, "a0", plan_for(world))
    state.blockage = BlockageRecord(
        issue=IssueType.MISSING_MATERIAL, node_id=0, item="stone", count=1)
    world, out = apply_action(world, "a0", Action.collect(("source", 0)))
    update_private_state(state, out)
    assert state.blockage is None


# -- issue detection ---------------------------------------------------------------


def test_detect_nothing_when_material_in_hand():
    world = make_world([(0, (0, 0, 1), "stone")], agents={"a0": ((0, 0, 0), {"stone": 1})})
    plan = plan_for(world)
    state = _init_state(world, "a0", plan)
    view = observe(world, "a0", plan=plan)
    assert detect_issue(state, view, world.graph, world.recipes) is None


def test_detect_missing_material_with_local_source():
    world = make_world(
        [(0, (0, 0, 1), "sandstone")],
        sources=[("sandstone", (6, 0, 0), 4)],
    )
    plan = plan_for(world)
    state = _init_state(world, "a0", plan)
    view = observe(world, "a0", plan=plan)
    issue = detect_issue(state, view, world.graph, world.recipes)
    assert issue is not None and issue.issue == IssueType.MISSING_MATERIAL
    assert issue.node_id == 0 and issue.item == "sandstone"


def test_detect_transfer_needed_when_partition_owner_is_teammate():
    world = make_world(
        [(0, (0, 0, 1), "iron_ingot")],
        agents={"a0": ((0, 0, 0), {}), "a1": ((12, 0, 0), {"iron_ingot": 1})},
    )
    plan = plan_for(world, assignments={0: "a0"}, partition={"iron_ingot": "a1"})
    state = _init_state(world, "a0", plan)
    view = observe(world, "a0", plan=plan)
    issue = detect_issue(state, view, world.graph, world.recipes)
    assert issue is not None and issue.issue == IssueType.TRANSFER_NEEDED


def test_partition_ownership_of_raw_input_does_not_force_transfer():
    # the finished item is craftable from a nearby source, so the partition
    # pointing elsewhere must not trigger a transfer
    world = make_world(
        [(0, (0, 0, 1), "oak_planks")],
        agents={"a0": ((0, 0, 0), {"oak_log": 1}), "a1": ((12, 0, 0), {})},
    )
    plan = plan_for(world, assignments={0: "a0"}, partition={"oak_planks": "a1"})
    state = _init_state(world, "a0", plan)
    view = observe(world, "a0", plan=plan)
    issue = detect_issue(state, view, world.graph, world.recipes)
    assert issue is not None and issue.issue == IssueType.MISSING_MATERIAL


def test_detect_dependency_block_on_teammate_prerequisite():
    world = make_world(
        [(0, (0, 0, 1), "stone"), (1, (0, 0, 2), "stone")],
        edges=[(0, 1)],
        agents={"a0": ((0, 0, 0), {"stone": 1}), "a1": ((10, 0, 0), {"stone": 1})},
    )
    plan = plan_for(world, assignments={0: "a1", 1: "a0"})
    state = _init_state(world, "a0", plan)
    view = observe(world, "a0", plan=plan)
    issue = detect_issue(state, view, world.graph, world.recipes)
    assert issue is not None and issue.issue == IssueType.DEPENDENCY_BLOCK
    assert issue.node_id == 0  # the prerequisite, not the dependent


def test_detect_co_craft_when_station_sits_in_teammate_region():
    world = make_world(
        [(0, (0, 0, 1), "iron_ingot")],
        agents={"a0": ((0, 0, 0), {"iron_ore": 1, "coal": 1}), "a1": ((30, 0, 0), {})},
        scaffold={(30, 0, 2): "furnace"},
    )
    plan = plan_for(
        world,
        assignments={0: "a0"},
        work_regions={"a0": ((0, 0, 0), 12), "a1": ((30, 0, 0), 12)},
    )
    state = _init_state(world, "a0", plan)
    view = observe(world, "a0", plan=plan)
    issue = detect_issue(state, view, world.graph, world.recipes)
    assert issue is not None and issue.issue == IssueType.CO_CRAFT_REQUIRED


def test_detect_support_failure_after_place_rejection():
    world = make_world(
        [(0, (0, 0, 1), "stone"), (1, (0, 0, 2), "stone")],
        edges=[(0, 1)],
        agents={"a0": ((0, 0, 0), {"stone": 2})},
    )
    plan = plan_for(world)
    state = _init_state(world, "a0", plan)
    state.active_subtask = 1
    world, out = apply_action(world, "a0", Action.place(1))
    assert out.reason == "prerequisite_unplaced"
    view = observe(world, "a0", plan=plan)
    issue = detect_issue(state, view, world.graph, world.recipes, last_outcome=out)
    assert issue is not None and issue.issue == IssueType.SUPPORT_FAILURE
    assert issue.node_id == 1


def test_ignored_nodes_never_trigger_detection():
    world = make_world([(0, (0, 0, 1), "sandstone")])
    plan = plan_for(world)
    state = _init_state(world, "a0", plan)
    view = observe(world, "a0", plan=plan)
    assert detect_issue(state, view, world.graph, world.recipes, ignore={0}) is None


def test_priority_dependency_block_beats_material():
    # a0 is blocked on a teammate's prerequisite AND has no material for its
    # other node; the structural issue must win
    world = make_world(
        [(0, (0, 0, 1), "stone"), (1, (0, 0, 2), "sandstone")],
        edges=[(0, 1)],
        agents={"a0": ((0, 0, 0), {}), "a1": ((10, 0, 0), {"stone": 1})},
    )
    plan = plan_for(world, assignments={0: "a1", 1: "a0"})
    state = _init_state(world, "a0", plan)
    view = observe(world, "a0", plan=plan)
    issue = detect_issue(state, view, world.graph, world.recipes)
    assert issue is not None and issue.issue == IssueType.DEPENDENCY_BLOCK
