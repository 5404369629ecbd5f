"""Randomized invariant checks over the scoring gate, the world physics,
the message schema, and window lifecycles.

Each family draws a few hundred seeded cases; the acceptance suite reruns
the same generators at full volume.
"""

import random

from gatecraft import (
    Action,
    Chest,
    CoordinationMessage,
    FeatureVector,
    GateWeights,
    Inventory,
    WorldState,
    apply_action,
    escalation_score,
    normalize_score,
    score_bounds,
    validate_weights,
)
from gatecraft.protocol import (
    MESSAGE_FIELDS,
    MessageType,
    WindowState,
    open_window,
    settle_window,
    validate_message,
)

from conftest import make_world

ITEMS = ("sandstone", "oak_log", "oak_planks", "iron_ore", "iron_ingot", "coal")


def _random_weights(rng) -> GateWeights:
    """Weights inside the sanity envelope: wC dominant, wH smallest."""
    wH = rng.randint(0, 2)
    wL = wH + rng.randint(1, 2)
    wI = wL + rng.randint(0, 1)
    wR = rng.choice([v for v in (wI - 1, wI, wI + 1) if v > wH and abs(v - wI) <= 1])
    wC = max(wR, wI, wL) + rng.randint(1, 3)
    w = GateWeights(wC, wR, wI, wL, wH)
    ok, reasons = validate_weights(w)
    assert ok, reasons
    return w


def _random_fv(rng) -> FeatureVector:
    return FeatureVector(
        C=rng.randint(0, 3), R=rng.randint(0, 3), I=rng.randint(0, 3),
        L=rng.randint(0, 3), H=rng.randint(0, 3),
    )


def check_score_monotonicity(rng) -> None:
    """Raising C/R/I or lowering L/H never lowers the escalation score."""
    w = _random_weights(rng)
    fv = _random_fv(rng)
    base = escalation_score(fv, w)
    for axis, direction in (("C", 1), ("R", 1), ("I", 1), ("L", -1), ("H", -1)):
        value = getattr(fv, axis) + direction
        if not 0 <= value <= 3:
            continue
        bumped = FeatureVector(**{**fv.to_dict(), axis: value})
        assert escalation_score(bumped, w) >= base, (fv, axis, w)


def check_normalization_bounds(rng) -> None:
    w = _random_weights(rng)
    lo, hi = score_bounds(w)
    assert normalize_score(lo, w) == 0.0
    assert normalize_score(hi, w) == 1.0
    norm = normalize_score(escalation_score(_random_fv(rng), w), w)
    assert 0.0 <= norm <= 1.0


def _ledger(world: WorldState) -> dict[str, int]:
    """Every unit of every item, wherever it sits."""
    totals: dict[str, int] = {}

    def add(item, n):
        totals[item] = totals.get(item, 0) + n

    for body in world.agents.values():
        for item, n in body.inventory.counts.items():
            add(item, n)
    for chest in world.chests:
        for item, n in chest.inventory.counts.items():
            add(item, n)
    for src in world.sources:
        add(src.item, src.remaining)
    for n in world.placed_nodes():
        add(world.blueprint.by_id[n].material, 1)
    return totals


def _fresh_world():
    return make_world(
        blocks=[(0, (0, 0, 1), "sandstone"), (1, (0, 0, 2), "sandstone"),
                (2, (2, 0, 1), "oak_planks")],
        edges=[(0, 1)],
        agents={
            "a0": ((0, 0, 0), {"sandstone": 2, "oak_log": 1, "iron_ore": 1, "coal": 1}),
            "a1": ((2, 0, 0), {"oak_planks": 1}),
        },
        sources=[("sandstone", (4, 0, 0), 3), ("oak_log", (20, 0, 0), 2)],
        chests=[Chest(position=(1, 0, 0), inventory=Inventory({"coal": 2}))],
        scaffold={(0, 2, 0): "crafting_table", (3, 0, 0): "furnace"},
    )


def _random_action(rng, world: WorldState, aid: str) -> Action:
    kind = rng.choice(
        ["move", "place", "collect", "craft", "smelt", "transfer", "idle", "skip"]
    )
    if kind == "move":
        return Action(kind="move", target=(rng.randint(-2, 6), rng.randint(-2, 2), 0))
    if kind == "place":
        return Action(kind="place", node_id=rng.choice([0, 1, 2, 7]))
    if kind == "collect":
        ref = rng.choice([("source", 0), ("source", 1), ("chest", 0, "coal"),
                          ("chest", 0, "iron_ingot"), ("source", 9)])
        return Action(kind="collect", source=ref)
    if kind in ("craft", "smelt"):
        return Action(kind=kind, recipe_id=rng.choice(
            ["planks_from_log", "smelt_iron", "no_such_recipe"]))
    if kind == "transfer":
        others = [a for a in world.agents if a != aid] + [aid, "ghost"]
        return Action(kind="transfer", item=rng.choice(ITEMS), count=rng.randint(1, 2),
                      to_agent=rng.choice(others))
    return Action(kind=kind)


def check_inventory_conservation(rng) -> None:
    """No action invents or destroys items; craft/smelt moves exactly the
    recipe stoichiometry; everything else conserves totals per item."""
    world = _fresh_world()
    for _ in range(12):
        aid = rng.choice(sorted(world.agents))
        action = _random_action(rng, world, aid)
        before = _ledger(world)
        _, outcome = apply_action(world, aid, action)
        after = _ledger(world)
        if action.kind in ("craft", "smelt") and outcome.ok:
            recipe = world.recipes.get(action.recipe_id)
            expected = dict(before)
            for item, n in recipe.inputs:
                expected[item] = expected.get(item, 0) - n
            out_item, out_n = recipe.output
            expected[out_item] = expected.get(out_item, 0) + out_n
            assert after == {k: v for k, v in expected.items() if v}, action
        else:
            assert after == before, (action, outcome)


def check_message_schema_fuzz(rng) -> None:
    """Any single mutation of the field set invalidates the message."""
    msg = {
        "protocol": rng.choice(MessageType.ALL),
        "from": "a0",
        "target": "a1",
        "item": rng.choice(ITEMS),
        "count": rng.randint(1, 5),
        "reason": "need_for_node",
        "time": rng.randint(0, 99),
    }
    assert validate_message(msg)
    mutated = dict(msg)
    mode = rng.choice(["drop", "add", "rename", "retype"])
    field = rng.choice(MESSAGE_FIELDS)
    if mode == "drop":
        del mutated[field]
    elif mode == "add":
        mutated["x_" + field] = 1
    elif mode == "rename":
        mutated["not_" + field] = mutated.pop(field)
    else:
        mutated.update(rng.choice([
            {"protocol": "SHOUT"}, {"reason": "because"}, {"count": 0},
            {"count": True}, {"time": -1}, {"target": "a0"}, {"item": ""},
        ]))
    assert not validate_message(mutated), mutated


def check_window_termination(rng) -> None:
    """An open window reaches a terminal state no later than its deadline."""
    timeout = rng.randint(1, 12)
    opened = rng.randint(0, 5)
    window, _ = open_window(
        window_id=rng.randint(0, 9), issue="missing_material",
        requester="a0", responder="a1", item=rng.choice(ITEMS),
        count=rng.randint(1, 3), now=opened, timeout=timeout,
    )
    scenario = rng.choice(["silent", "refuse", "fulfill"])
    for now in range(opened, opened + timeout + 1):
        if window.state != WindowState.OPEN:
            break
        if scenario == "refuse" and now == opened + 1:
            window.append(CoordinationMessage(
                protocol="CANNOT_SUPPLY", sender="a1", target="a0",
                item=window.item, count=window.count,
                reason="no_surplus", time=now,
            ))
        if scenario == "fulfill" and now == opened + 1 and timeout > 2:
            window.transfer_done = True
        settle_window(window, now)
    assert window.state != WindowState.OPEN
    if scenario == "silent":
        assert window.state == WindowState.TIMED_OUT


FAMILIES = [
    check_score_monotonicity,
    check_normalization_bounds,
    check_inventory_conservation,
    check_message_schema_fuzz,
    check_window_termination,
]


def test_score_monotonicity_sampled():
    rng = random.Random(101)
    for _ in range(300):
        check_score_monotonicity(rng)


def test_normalization_bounds_sampled():
    rng = random.Random(102)
    for _ in range(300):
        check_normalization_bounds(rng)


def test_inventory_conservation_sampled():
    rng = random.Random(103)
    for _ in range(120):
        check_inventory_conservation(rng)


def test_message_schema_fuzz_sampled():
    rng = random.Random(104)
    for _ in range(300):
        check_message_schema_fuzz(rng)


def test_window_termination_sampled():
    rng = random.Random(105)
    for _ in range(300):
        check_window_termination(rng)
