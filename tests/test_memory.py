from gatecraft import (
    Action,
    IssueType,
    PrivateState,
    apply_action,
    detect_issue,
    observe,
    plan_local_recovery,
    update_private_state,
)
from gatecraft.agent import EpisodeRuntime, RunConfig
from gatecraft.memory import BlockageRecord, next_node, waits_on
from gatecraft.world import FAR_THRESHOLD, dist_sq

from conftest import make_world, plan_for


def _init_state(world, agent_id, plan):
    view = observe(world, agent_id, plan=plan)
    return PrivateState(agent_id=agent_id, inventory=view.inventory)


def test_init_event_snapshots_view(dataset):
    """Each agent's private state starts from a copy of its body's inventory,
    with no focus and no blockage."""
    _, episodes = dataset
    ep = EpisodeRuntime(next(e for e in episodes if e.class_label == "B"), RunConfig())
    for aid, state in ep.states.items():
        body = ep.world.agents[aid].inventory
        assert state.inventory.counts == body.counts and state.inventory is not body
        assert state.active_subtask is None and state.blockage is None


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
    assert state.active_subtask == 0  # detection sets the active subtask to `next_node`


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


def test_held_inputs_without_a_station_need_a_transfer():
    # a0 holds both smelting inputs, but no furnace exists: the planner finds
    # no local route, so the ingot partitioned to a1 needs a transfer
    world = make_world(
        [(0, (0, 0, 1), "iron_ingot")],
        agents={"a0": ((0, 0, 0), {"iron_ore": 1, "coal": 1}), "a1": ((12, 0, 0), {"iron_ingot": 1})},
    )
    plan = plan_for(world, assignments={0: "a0"}, partition={"iron_ingot": "a1"})
    state = _init_state(world, "a0", plan)
    view = observe(world, "a0", plan=plan)
    issue = detect_issue(state, view, world.graph, world.recipes)
    assert issue is not None and issue.issue == IssueType.TRANSFER_NEEDED
    assert plan_local_recovery(state, view, world.recipes, issue) is None


def test_a_detour_past_far_range_of_the_agent_is_a_local_route():
    # the coal source is beyond FAR_THRESHOLD of a0 but within it of the ore
    # source, where the detour collects first: the planner's route exists, so
    # the partitioned ingot is a missing material, not a transfer
    ore, coal = (30, 0, 0), (30, 0, 30)
    assert dist_sq((0, 0, 0), coal) > FAR_THRESHOLD ** 2 >= dist_sq(ore, coal)
    world = make_world(
        [(0, (0, 0, 1), "iron_ingot")],
        agents={"a0": ((0, 0, 0), {}), "a1": ((12, 0, 0), {"iron_ingot": 1})},
        sources=[("iron_ore", ore, 2), ("coal", coal, 2)],
        scaffold={(0, 0, 5): "furnace"},
    )
    plan = plan_for(world, assignments={0: "a0"}, partition={"iron_ingot": "a1"})
    state = _init_state(world, "a0", plan)
    view = observe(world, "a0", plan=plan)
    issue = detect_issue(state, view, world.graph, world.recipes)
    assert issue is not None and issue.issue == IssueType.MISSING_MATERIAL
    route = plan_local_recovery(state, view, world.recipes, issue)
    assert route is not None
    assert [(s.op, s.item) for s in route.steps] == [("collect", "iron_ore"), ("collect", "coal"),
                                                      ("smelt", None)]


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
    assert state.active_subtask is None  # none of a0's nodes is ready


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


# -- "builds next" and "waits on" ---------------------------------------------------


def test_next_node_walks_the_topological_order_and_skip_work_takes_held_nodes():
    """The edge 5 -> 2 puts node 4 before node 2 in a0's order (1, 4, 2).
    `next_node` takes the first unplaced, ready node outside `ignore` in
    that order, not the smallest id; with `held` (skip work's target) only
    a node whose material is held counts."""
    world = make_world(
        [(1, (0, 0, 1), "iron_ingot"), (2, (0, 0, 2), "oak_planks"), (4, (0, 0, 3), "oak_planks"),
         (5, (0, 0, 4), "stone")],
        edges=[(5, 2)], agents={"a0": ((0, 0, 0), {"oak_planks": 2})},
    )
    plan = plan_for(world, assignments={1: "a0", 2: "a0", 4: "a0", 5: "a1"})
    assert plan.nodes_of["a0"] == (1, 4, 2)
    graph, held = world.graph, world.agents["a0"].inventory
    assert next_node(plan, "a0", frozenset(), graph) == 1
    assert next_node(plan, "a0", frozenset(), graph, held=held) == 4
    assert next_node(plan, "a0", frozenset({5}), graph, held=held) == 4  # node 2 is ready too
    assert next_node(plan, "a0", frozenset({4, 5}), graph, held=held) == 2
    assert next_node(plan, "a0", frozenset({5}), graph, ignore={4}, held=held) == 2
    assert next_node(plan, "a0", frozenset(), graph, ignore={4}, held=held) is None  # 2 waits on 5


def test_waits_on_yields_the_teammates_prerequisites_of_live_unplaced_nodes():
    """a0's nodes 2 and 3 wait on a1's node 0, and node 2 on a2's node 1
    too, in a0's order and then each node's prerequisite order. A placed
    prerequisite, and a node that is placed or ignored, yield nothing."""
    world = make_world(
        [(0, (0, 0, 1), "stone"), (1, (0, 0, 2), "stone"), (2, (0, 0, 3), "stone"),
         (3, (0, 0, 4), "stone")],
        edges=[(0, 2), (1, 2), (0, 3)],
    )
    plan = plan_for(world, assignments={0: "a1", 1: "a2", 2: "a0", 3: "a0"})
    graph = world.graph
    assert list(waits_on(plan, "a0", frozenset(), graph)) == [0, 1, 0]
    assert list(waits_on(plan, "a0", frozenset({0}), graph)) == [1]
    assert list(waits_on(plan, "a0", frozenset(), graph, ignore={2})) == [0]
    assert list(waits_on(plan, "a0", frozenset({0, 1, 3}), graph)) == []
    assert list(waits_on(plan, "a1", frozenset(), graph)) == []
