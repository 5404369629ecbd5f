from gatecraft import (
    Chest,
    Inventory,
    IssueType,
    PrivateState,
    observe,
    plan_local_recovery,
)
from gatecraft.memory import BlockageRecord

from conftest import make_world, plan_for


def _blocked_state(world, item, agent_id="a0", node=0, count=1):
    plan = plan_for(world)
    view = observe(world, agent_id, plan=plan)
    state = PrivateState(agent_id=agent_id, inventory=view.inventory)
    blockage = BlockageRecord(issue=IssueType.MISSING_MATERIAL, node_id=node,
                              item=item, count=count)
    return state, view, blockage


def test_craft_from_held_inputs_is_preferred():
    world = make_world(
        [(0, (0, 0, 1), "oak_planks")],
        agents={"a0": ((0, 0, 0), {"oak_log": 1})},
        sources=[("oak_planks", (10, 0, 0), 8)],
    )
    state, view, blockage = _blocked_state(world, "oak_planks")
    plan = plan_local_recovery(state, view, world.recipes, blockage)
    assert plan is not None
    assert plan.steps[0].op == "craft" and plan.steps[0].recipe_id == "planks_from_log"
    assert plan.total_cost == 1  # stationless, inputs in hand


def test_collect_oracle_cost_travel_plus_units():
    world = make_world(
        [(0, (0, 0, 1), "sandstone")],
        sources=[("sandstone", (18, 0, 0), 5)],
    )
    state, view, blockage = _blocked_state(world, "sandstone", count=2)
    plan = plan_local_recovery(state, view, world.recipes, blockage)
    # travel ceil((18-3)/5)=3 plus 2 collects
    assert plan is not None and plan.total_cost == 5
    assert plan.steps[0].op == "collect" and plan.steps[0].units == 2


def test_far_sources_are_ignored():
    world = make_world(
        [(0, (0, 0, 1), "sandstone")],
        sources=[("sandstone", (60, 0, 0), 5)],
    )
    state, view, blockage = _blocked_state(world, "sandstone")
    assert plan_local_recovery(state, view, world.recipes, blockage) is None


def test_smelt_requires_visible_station():
    world = make_world(
        [(0, (0, 0, 1), "iron_ingot")],
        agents={"a0": ((0, 0, 0), {"iron_ore": 1, "coal": 1})},
    )
    state, view, blockage = _blocked_state(world, "iron_ingot")
    assert plan_local_recovery(state, view, world.recipes, blockage) is None
    world2 = make_world(
        [(0, (0, 0, 1), "iron_ingot")],
        agents={"a0": ((0, 0, 0), {"iron_ore": 1, "coal": 1})},
        scaffold={(10, 0, 0): "furnace"},
    )
    state, view, blockage = _blocked_state(world2, "iron_ingot")
    plan = plan_local_recovery(state, view, world2.recipes, blockage)
    # travel ceil((10-3)/5)=2 plus one smelt
    assert plan is not None and plan.steps[0].op == "smelt" and plan.total_cost == 3


def test_detour_chains_collect_legs_from_moving_cursor():
    world = make_world(
        [(0, (0, 0, 1), "oak_planks")],
        sources=[("oak_log", (13, 0, 0), 2)],
    )
    state, view, blockage = _blocked_state(world, "oak_planks")
    plan = plan_local_recovery(state, view, world.recipes, blockage)
    assert plan is not None and len(plan.steps) == 2
    legs = plan.steps
    assert legs[0].op == "collect" and legs[0].units == 1  # one log yields 4 planks
    assert legs[1].op == "craft" and legs[1].recipe_id == "planks_from_log"
    # travel ceil(10/5)=2 + 1 collect, then stationless craft
    assert plan.total_cost == 4


def test_chest_counts_as_supply():
    world = make_world(
        [(0, (0, 0, 1), "sandstone")],
        chests=[Chest(position=(4, 0, 0), inventory=Inventory({"sandstone": 3}))],
    )
    state, view, blockage = _blocked_state(world, "sandstone")
    plan = plan_local_recovery(state, view, world.recipes, blockage)
    assert plan is not None and plan.steps[0].source_ref == ("chest", 0, "sandstone")


def test_insufficient_supply_is_not_planned():
    world = make_world(
        [(0, (0, 0, 1), "sandstone")],
        sources=[("sandstone", (5, 0, 0), 1)],
    )
    state, view, blockage = _blocked_state(world, "sandstone", count=3)
    assert plan_local_recovery(state, view, world.recipes, blockage) is None


def test_no_blockage_no_plan():
    world = make_world([(0, (0, 0, 1), "stone")])
    plan = plan_for(world)
    view = observe(world, "a0", plan=plan)
    state = PrivateState(agent_id="a0")
    assert plan_local_recovery(state, view, world.recipes, None) is None


# -- an issue's cooldown -----------------------------------------------------------


def _issue():
    return BlockageRecord(issue=IssueType.TRANSFER_NEEDED, node_id=0, item="iron_ingot")


def test_cooldown_levels_escalate_and_expire():
    b = _issue()
    b.register_failure(refused=False, now=0, duration=30)
    assert b.level == 1 and b.expires_at == 30
    assert b.level_at(10) == 1
    assert b.level_at(30) == 0  # expired
    b.register_failure(refused=False, now=30, duration=30)
    assert b.level == 2 and b.consecutive_failures == 2


def test_cannot_supply_jumps_to_max_level():
    b = _issue()
    b.register_failure(refused=True, now=0, duration=30)
    assert b.level == 3


def test_blocked_after_two_consecutive_failures_persists():
    b = _issue()
    b.register_failure(refused=False, now=0, duration=10)
    assert not b.hard_blocked(1)
    b.register_failure(refused=False, now=1, duration=10)
    assert b.hard_blocked(2)
    # the zero-yield streak outlives the timed cooldown
    assert b.hard_blocked(100)


def test_fulfilled_window_resets_pair():
    b = _issue()
    b.register_failure(refused=True, now=0, duration=30)
    b.register_failure(refused=False, now=1, duration=30)
    b.register_success()
    assert (b.level, b.consecutive_failures, b.expires_at) == (0, 0, 0)
    assert not b.hard_blocked(2)
