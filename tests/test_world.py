import pytest

from gatecraft import (
    Action,
    Blueprint,
    BlockSpec,
    Chest,
    Inventory,
    PlanInfo,
    Recipe,
    RecipeBook,
    TaskGraph,
    apply_action,
    blueprint_completion,
    default_recipes,
    observe,
)
from gatecraft.world import criticality_of, travel_steps

from conftest import make_world, plan_for


# -- inventory -----------------------------------------------------------------


def test_inventory_add_remove_count():
    inv = Inventory({"stone": 2})
    inv.add("stone", 3)
    assert inv.count("stone") == 5
    inv.remove("stone", 5)
    assert inv.count("stone") == 0
    assert "stone" not in inv.counts  # zero keys dropped


def test_inventory_rejects_negative_and_overdraw():
    inv = Inventory()
    with pytest.raises(ValueError):
        inv.add("x", -1)
    with pytest.raises(ValueError):
        inv.remove("x", 1)
    with pytest.raises(ValueError):
        Inventory({"x": -2})


def test_inventory_copy_is_independent():
    inv = Inventory({"a": 1})
    other = inv.copy()
    other.add("a", 1)
    assert inv.count("a") == 1 and other.count("a") == 2


# -- blueprint / task graph ------------------------------------------------------


def test_blueprint_rejects_duplicate_ids_and_positions():
    with pytest.raises(ValueError):
        Blueprint(name="bad", blocks=(
            BlockSpec(0, (0, 0, 1), "stone"), BlockSpec(0, (1, 0, 1), "stone")))
    with pytest.raises(ValueError):
        Blueprint(name="bad", blocks=(
            BlockSpec(0, (0, 0, 1), "stone"), BlockSpec(1, (0, 0, 1), "stone")))


def test_task_graph_topo_and_relations():
    g = TaskGraph([0, 1, 2, 3], [(0, 1), (1, 2), (0, 3)])
    order = g.topo_order
    assert order.index(0) < order.index(1) < order.index(2)
    assert g.descendants(0) == {1, 2, 3}
    assert 2 in g.descendants(0) and 0 not in g.descendants(2)


def test_task_graph_rejects_cycles_and_unknown_edges():
    with pytest.raises(ValueError):
        TaskGraph([0, 1], [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        TaskGraph([0], [(0, 5)])


def test_critical_path_prefers_smallest_ids_on_ties():
    # two parallel chains of equal length: 0->2 and 1->3
    g = TaskGraph([0, 1, 2, 3], [(0, 2), (1, 3)])

    def on_path(placed):
        return [n for n in range(4) if n not in placed and criticality_of(g, n, placed).on_critical_path]

    assert on_path(set()) == [0, 2]
    # placing the head of one chain shifts the longest unplaced chain
    assert on_path({0}) == [1, 3]


def test_criticality_of_reports_path_membership():
    g = TaskGraph([0, 1, 2], [(0, 1), (1, 2)])
    crit = criticality_of(g, 0, placed=set())
    assert crit.descendant_count == 2 and crit.on_critical_path
    leaf = criticality_of(g, 2, placed=set())
    assert leaf.descendant_count == 0


# -- recipes ---------------------------------------------------------------------


def test_recipe_book_lookup_and_duplicates():
    book = default_recipes()
    assert book.get("planks_from_log").output == ("oak_planks", 4)
    producing = book.producing("oak_planks")
    assert [r.recipe_id for r in producing] == sorted(r.recipe_id for r in producing)
    with pytest.raises(ValueError):
        RecipeBook([Recipe("r", "craft", ("x", 1), (("y", 1),)),
                    Recipe("r", "craft", ("x", 1), (("y", 1),))])


def test_recipe_rejects_bad_kind():
    with pytest.raises(ValueError):
        Recipe("bad", "brew", ("x", 1), (("y", 1),))


# -- apply_action ------------------------------------------------------------------


def test_move_respects_speed_and_advances_time():
    world = make_world([(0, (0, 0, 1), "stone")])
    world, out = apply_action(world, "a0", Action.move((100, 0, 0)))
    assert out.ok and world.sim_time == 1
    assert world.agents["a0"].position == (5, 0, 0)  # default speed 5


def test_place_requires_prereq_range_and_material():
    world = make_world(
        [(0, (0, 0, 1), "stone"), (1, (0, 0, 2), "stone")],
        edges=[(0, 1)],
        agents={"a0": ((0, 0, 0), {"stone": 2})},
    )
    _, out = apply_action(world, "a0", Action.place(1))
    assert not out.ok and out.reason == "prerequisite_unplaced"
    _, out = apply_action(world, "a0", Action.place(0))
    assert out.ok and world.node_placed(0)
    _, out = apply_action(world, "a0", Action.place(0))
    assert not out.ok  # double placement rejected
    world.agents["a0"].position = (30, 0, 0)
    _, out = apply_action(world, "a0", Action.place(1))
    assert not out.ok and out.reason == "out_of_range"


def test_place_fails_without_material():
    world = make_world([(0, (0, 0, 1), "stone")], agents={"a0": ((0, 0, 0), {})})
    _, out = apply_action(world, "a0", Action.place(0))
    assert not out.ok and out.reason == "missing_material"


def test_collect_from_source_and_exhaustion():
    world = make_world(
        [(0, (0, 0, 1), "stone")],
        sources=[("sand", (1, 0, 0), 1)],
    )
    _, out = apply_action(world, "a0", Action.collect(("source", 0)))
    assert out.ok and world.agents["a0"].inventory.count("sand") == 1
    _, out = apply_action(world, "a0", Action.collect(("source", 0)))
    assert not out.ok and out.reason == "source_empty"


def test_collect_from_chest():
    world = make_world(
        [(0, (0, 0, 1), "stone")],
        chests=[Chest(position=(1, 0, 0), inventory=Inventory({"coal": 2}))],
    )
    _, out = apply_action(world, "a0", Action.collect(("chest", 0, "coal")))
    assert out.ok and world.agents["a0"].inventory.count("coal") == 1
    assert world.chests[0].inventory.count("coal") == 1


def test_craft_needs_inputs_and_station():
    world = make_world(
        [(0, (0, 0, 1), "stone")],
        agents={"a0": ((0, 0, 0), {"oak_log": 1, "sandstone": 2})},
        scaffold={(20, 0, 0): "crafting_table"},
    )
    _, out = apply_action(world, "a0", Action.craft("planks_from_log"))
    assert out.ok and world.agents["a0"].inventory.count("oak_planks") == 4
    # stationed recipe out of range
    _, out = apply_action(world, "a0", Action.craft("smooth_sandstone"))
    assert not out.ok and out.reason == "out_of_range"
    world.agents["a0"].position = (19, 0, 0)
    _, out = apply_action(world, "a0", Action.craft("smooth_sandstone"))
    assert out.ok


def test_smelt_requires_matching_kind():
    world = make_world(
        [(0, (0, 0, 1), "stone")],
        agents={"a0": ((0, 0, 0), {"iron_ore": 1, "coal": 1})},
        scaffold={(1, 0, 0): "furnace"},
    )
    _, out = apply_action(world, "a0", Action.craft("smelt_iron"))
    assert not out.ok  # smelt recipe cannot run as a craft
    _, out = apply_action(world, "a0", Action.smelt("smelt_iron"))
    assert out.ok and world.agents["a0"].inventory.count("iron_ingot") == 1


def test_transfer_moves_items_within_radius():
    world = make_world(
        [(0, (0, 0, 1), "stone")],
        agents={"a0": ((0, 0, 0), {"iron_ingot": 2}), "a1": ((2, 0, 0), {})},
    )
    _, out = apply_action(world, "a0", Action.transfer("iron_ingot", 2, "a1"))
    assert out.ok
    assert world.agents["a0"].inventory.count("iron_ingot") == 0
    assert world.agents["a1"].inventory.count("iron_ingot") == 2


def test_transfer_rejects_self_distance_and_shortfall():
    world = make_world(
        [(0, (0, 0, 1), "stone")],
        agents={"a0": ((0, 0, 0), {"x": 1}), "a1": ((50, 0, 0), {})},
    )
    _, out = apply_action(world, "a0", Action.transfer("x", 1, "a0"))
    assert not out.ok
    _, out = apply_action(world, "a0", Action.transfer("x", 1, "a1"))
    assert not out.ok and out.reason == "out_of_range"
    world.agents["a1"].position = (1, 0, 0)
    _, out = apply_action(world, "a0", Action.transfer("x", 5, "a1"))
    assert not out.ok and out.reason == "missing_material"


def test_idle_and_skip_always_succeed():
    world = make_world([(0, (0, 0, 1), "stone")])
    _, out = apply_action(world, "a0", Action.idle())
    assert out.ok
    _, out = apply_action(world, "a0", Action.skip(0))
    assert out.ok and out.node_id == 0
    assert world.sim_time == 2  # one tick per action, success or not


def test_completion_fraction():
    world = make_world(
        [(0, (0, 0, 1), "stone"), (1, (0, 0, 2), "stone")],
        agents={"a0": ((0, 0, 0), {"stone": 2})},
    )
    assert blueprint_completion(world) == 0.0
    apply_action(world, "a0", Action.place(0))
    assert blueprint_completion(world) == 0.5


# -- observation -------------------------------------------------------------------


def test_observe_filters_by_radius():
    world = make_world(
        [(0, (0, 0, 1), "stone")],
        agents={"a0": ((0, 0, 0), {}), "a1": ((10, 0, 0), {}), "a2": ((200, 0, 0), {})},
        sources=[("sand", (5, 0, 0), 3), ("sand", (300, 0, 0), 3)],
    )
    view = observe(world, "a0")
    assert [i for i, _ in view.sources] == [0]
    assert set(view.teammates) == {"a1"}


def test_view_digest_deterministic():
    world = make_world([(0, (0, 0, 1), "stone")])
    plan = plan_for(world)
    d1 = observe(world, "a0", plan=plan).digest()
    d2 = observe(world, "a0", plan=plan).digest()
    assert d1 == d2


def test_travel_steps_zero_inside_interaction_radius():
    assert travel_steps(2.0, 3, 5) == 0
    assert travel_steps(13.0, 3, 5) == 2  # ceil(10/5)


def test_plan_info_for_world_mirrors_scaffold():
    world = make_world([(0, (0, 0, 1), "stone")], scaffold={(4, 0, 0): "furnace"})
    plan = PlanInfo.for_world(world, {0: "a0"})
    assert plan.station_positions == {(4, 0, 0): "furnace"}
    assert plan.materials == {0: "stone"}


def test_plan_info_for_world_lists_nodes_in_topological_order():
    world = make_world([(n, (n, 0, 1), "stone") for n in range(4)], edges=[(3, 0), (2, 1)])
    plan = PlanInfo.for_world(world, {0: "a0", 1: "a0", 2: "a1", 3: "a1"})
    assert world.graph.topo_order == [2, 1, 3, 0]
    assert plan.nodes_of == {"a0": (1, 0), "a1": (2, 3)}
    with pytest.raises(ValueError, match=r"outside the task graph: \[7\]"):
        PlanInfo.for_world(world, {0: "a0", 7: "a0"})
