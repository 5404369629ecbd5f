"""Randomized invariant checks over whole episodes.

Each case samples a generated episode (random template, seed index and
dataset seed) and a random run configuration (ablation variant, window
timeout, cooldown duration, step budget), runs it, and checks the trace:

- event steps never decrease;
- a requester never has two open windows;
- every window closes by its deadline, or is still open at `episode_end`;
- every coordination message names an open window whose requester and
  responder are the message's two endpoints;
- each agent's issue events alternate detected -> resolved | abandoned;
- every `cooldown_update` comes from an agent with an open issue of its
  `issue` type, and each issue's first one has `consecutive_failures` 1:
  an issue owns its cooldown, and a window closing after its issue ended
  records nothing;
- every escalation's recorded `solver_ctx`, replayed by
  `harness.replay_local_feasibility`, gives the plan cost the gate's own
  probe recorded as `local_plan_cost`, the cost `uer` counts;
- an episode that ends for any reason but `budget` leaves no issue open:
  every `detected` has its `resolved` or `abandoned`;
- an agent with no open issue (before its first `detected`, and from each
  `resolved`/`abandoned` to its next `detected`) acts in mode `standard` or
  `coordinating`;
- items are conserved: every successful action's outcome deltas balance (`collect`
  moves one unit from a source or chest to the agent, `transfer` nets to
  zero across the two agents, `place` turns one unit into one placed block,
  `craft`/`smelt` change the inventory by exactly the recipe), and replaying
  the deltas from the spec never drives a stock below zero and ends at the
  final world's stock.

With the spec at hand, each run's dependency blocks are checked against the
end rule (`check_dependency_blocks`):

- no gate pass on a dependency block comes after its blocker's successful
  `place`;
- a `blocker_placed` resolution comes right after its blocker's `place`,
  with no other `action` event in between;
- at every gate pass on a dependency block, a live, unplaced node of the
  waiter's has the blocker as a prerequisite. A node is live until its
  assignee gives it, or a node above it, up.

Each case also runs with the quiescence exit switched off (a test-only
patch of `agent._quiescent`) and checks that the early exit only cut an
idle tail: the same events up to `episode_end`, nothing after them but idle
`action` events, and equal metrics and completion.

The default runs are checked the same way, without the second run. The
same cases, and the default runs, are run once more with spies on
`agent.observe` and `agent.step` (`conftest.run_checking_views`), and so is
one hand-built spec in which a teammate comes into sight and goes out of it.

Every random spec `r00`..`r59` (`tests/random_specs.py`), under
`RunConfig()` and under its drawn config, gets the same checks as a sampled
case, its run made under the `conftest.run_checking_views` spies. These
specs put prerequisite edges across agents, so their dependency blocks
meet blockers that are given up, directly or through an ancestor.

The default runs and the random-spec runs are run once more with a spy on
`agent._post_action`: after every applied action, each agent's remembered
inventory equals its body's, which is why decisions may read it instead.
"""

import dataclasses
import random
from collections import Counter

import pytest

from gatecraft import agent
from gatecraft.agent import RunConfig, Trace, run_episode, simulate_episode
from gatecraft.memory import MATERIAL_SHAPED_ISSUES
from gatecraft.world import TaskGraph
from gatecraft.cli import ABLATION_VARIANTS
from gatecraft.harness import compute_metrics, replay_local_feasibility
from gatecraft.scenarios import SEEDS_PER_TEMPLATE, build_episode, dataset_templates

from random_specs import RANDOM_SPEC_COUNT, random_config, random_spec

from conftest import (
    dependency_block_spec,
    hand_built_spec,
    run_checking_views,
    stay_local_dead_end_spec,
)

REQUESTER_SENDS = ("REQUEST_MATERIAL", "CONFIRM_TRANSFER")


def _sample_run(rng):
    template = rng.choice(dataset_templates())
    spec = build_episode(template, rng.randrange(SEEDS_PER_TEMPLATE), rng.randint(0, 3))
    _, overrides = rng.choice(ABLATION_VARIANTS)
    config = dataclasses.replace(
        RunConfig(),
        window_timeout=rng.randint(1, 25),
        cooldown_duration=rng.randint(0, 40),
        step_budget=rng.randint(1, 300),
        **overrides,
    )
    return spec, config


def check_episode_invariants(events) -> dict[int, dict]:
    """Check one trace; return the windows still open at `episode_end`."""
    assert events and events[-1]["kind"] == "episode_end"
    last_step = 0
    open_windows: dict[int, dict] = {}  # window_id -> opened payload
    open_by_requester: dict[str, int] = {}
    open_issue: dict[str, dict] = {}  # agent -> detected payload
    cooled: set[str] = set()  # agents whose open issue has had a cooldown_update
    for e in events:
        step, kind, p = e["step"], e["kind"], e["payload"]
        assert step >= last_step, e
        last_step = step
        if kind == "window_state":
            wid = p["window_id"]
            if p["event"] == "opened":
                assert wid not in open_windows, e
                assert p["requester"] not in open_by_requester, e
                open_windows[wid] = p
                open_by_requester[p["requester"]] = wid
            else:
                assert open_windows.pop(wid, None) is not None, e
                assert open_by_requester.pop(p["requester"]) == wid, e
                assert p["state"] != "open" and step <= p["deadline"], e
        elif kind == "coordination_message":
            window = open_windows.get(p["window_id"])
            assert window is not None, e
            if p["protocol"] in REQUESTER_SENDS:
                ends = (window["requester"], window["responder"])
            else:
                ends = (window["responder"], window["requester"])
            assert (p["from"], p["target"]) == ends, e
            assert p["item"] == window["item"], e
        elif kind == "issue":
            if p["event"] == "detected":
                assert e["agent"] not in open_issue, e
                open_issue[e["agent"]] = p
            else:
                assert p["event"] in ("resolved", "abandoned"), e
                detected = open_issue.pop(e["agent"], None)
                assert detected is not None, e
                cooled.discard(e["agent"])
                assert (p["issue"], p["node_id"]) == (detected["issue"], detected["node_id"]), e
        elif kind == "cooldown_update":
            detected = open_issue.get(e["agent"])
            assert detected is not None and detected["issue"] == p["issue"], e
            if e["agent"] not in cooled:
                assert p["consecutive_failures"] == 1, e
                cooled.add(e["agent"])
        elif kind == "gate_decision" and p["verdict"] == "escalate":
            replayed = replay_local_feasibility(p["solver_ctx"])
            assert (None if replayed is None else replayed.total_cost) == p["local_plan_cost"], e
        elif kind == "action" and e["agent"] not in open_issue:
            assert p["mode"] in ("standard", "coordinating"), e
    end = events[-1]
    if end["payload"]["reason"] != "budget":
        assert not open_issue, (end["payload"]["episode_id"], open_issue)
    for window in open_windows.values():
        assert end["step"] < window["deadline"], window
    return open_windows


def check_dependency_blocks(events, spec) -> None:
    """Check the trace's dependency blocks against the end rule (see the
    module docstring). A node is dead once a material issue on it, or on a
    node above it, ends `abandoned`; an abandoned dependency block gives
    nothing up."""
    graph = TaskGraph([n for n, _, _ in spec.blocks], spec.edges)
    placed: set[int] = set()
    dead: set[int] = set()
    last_action = None
    for e in events:
        kind, p = e["kind"], e["payload"]
        if kind == "action":
            last_action = p
            if p["action"]["kind"] == "place" and p["outcome"]["status"] == "success":
                placed.add(p["action"]["node_id"])
        elif kind == "issue" and p.get("via") == "blocker_placed":
            assert last_action["action"] == {"kind": "place", "node_id": p["node_id"]}, e
            assert last_action["outcome"]["status"] == "success", e
        elif kind == "issue" and p["event"] == "abandoned" and p["issue"] in MATERIAL_SHAPED_ISSUES:
            dead |= {p["node_id"]} | graph.descendants(p["node_id"])
        elif kind == "gate_decision" and p["issue"] == "dependency_block":
            blocker = p["node_id"]
            assert blocker not in placed, e
            assert any(blocker in graph.preds[n] for n in spec.assigned[e["agent"]]
                       if n not in placed and n not in dead), e


def _recipe_delta(recipe: dict) -> dict[str, int]:
    delta: dict[str, int] = {}
    for item, n in recipe["inputs"]:
        delta[item] = delta.get(item, 0) - n
    out_item, out_n = recipe["output"]
    delta[out_item] = delta.get(out_item, 0) + out_n
    return delta


def _world_stock(world) -> dict:
    """(holder, item) -> count for every nonzero holding in `world`."""
    stock = Counter()
    for aid, body in world.agents.items():
        stock.update({(aid, item): n for item, n in body.inventory.to_dict().items()})
    for i, source in enumerate(world.sources):
        stock[(f"source {i}", source.item)] += source.remaining
    for i, chest in enumerate(world.chests):
        stock.update({(f"chest {i}", item): n for item, n in chest.inventory.to_dict().items()})
    stock.update(("placed", world.blueprint.by_id[n].material) for n in world.placed_nodes())
    return {key: n for key, n in stock.items() if n}


def check_item_conservation(events, spec, final_world) -> None:
    recipes = {r["recipe_id"]: r for r in spec.recipes}
    blocks = {n: [list(pos), material] for n, material, pos in spec.blocks}
    stock = Counter(_world_stock(spec.build_world()))
    for e in events:
        if e["kind"] != "action" or e["payload"]["outcome"]["status"] != "success":
            continue
        action, outcome, me = e["payload"]["action"], e["payload"]["outcome"], e["agent"]
        deltas = outcome.get("deltas", {})
        inventory = deltas.get("inventory", {})
        # the outcome's agent, kind, time and node are the event's, not repeated
        assert set(outcome) <= {"status", "reason", "deltas"}, e
        kind = action["kind"]
        moved = Counter()  # (holder, item) -> delta
        if kind == "collect":
            [(item, n)] = inventory[me].items()
            assert list(inventory) == [me] and n == 1, e
            holder, index = action["source"][:2]
            if holder == "source":
                assert spec.sources[index][0] == item and deltas["source"] == {str(index): -1}, e
            else:
                assert action["source"][2] == item and deltas["chest"] == {str(index): {item: -1}}, e
            moved[(f"{holder} {index}", item)] -= 1
        elif kind == "transfer":
            assert inventory == {me: {action["item"]: -action["count"]},
                                 action["to_agent"]: {action["item"]: action["count"]}}, e
        elif kind == "place":
            [(pos, material)] = deltas["placed"]
            assert [pos, material] == blocks[action["node_id"]], e
            assert inventory == {me: {material: -1}}, e
            moved[("placed", material)] += 1
        elif kind in ("craft", "smelt"):
            assert inventory == {me: _recipe_delta(recipes[action["recipe_id"]])}, e
        else:
            assert set(deltas) <= {"position"}, e
        for aid, items in inventory.items():
            moved.update({(aid, item): n for item, n in items.items()})
        if kind in ("collect", "transfer", "place"):
            assert sum(moved.values()) == 0, e
        for key, n in moved.items():
            stock[key] += n
            assert stock[key] >= 0, (key, e)
    assert {key: n for key, n in stock.items() if n} == _world_stock(final_world)


def _is_idle_action_event(e) -> bool:
    return (e["kind"] == "action" and e["payload"]["action"]["kind"] == "idle"
            and e["payload"]["outcome"] == {"status": "success"})


def check_exit_equivalence(early, full, spec, config) -> None:
    """`early` ran with the quiescence exit, `full` without it."""
    *head, end = early
    *full_head, full_end = full
    assert full_head[:len(head)] == head
    assert all(_is_idle_action_event(e) for e in full_head[len(head):])
    assert compute_metrics(Trace(early)) == compute_metrics(Trace(full))
    assert end["payload"]["completion"] == full_end["payload"]["completion"]
    if end["payload"]["reason"] == "quiescent":
        assert end["payload"]["rounds"] < config.step_budget
        assert not check_episode_invariants(early)


def check_whole_episode(run, monkeypatch) -> None:
    """The trace, dependency-block and item checks on the finished `run`,
    and the exit check against a run of its spec and config without the
    quiescence exit."""
    early = run.trace.events
    check_episode_invariants(early)
    check_dependency_blocks(early, run.spec)
    check_item_conservation(early, run.spec, run.world)
    with monkeypatch.context() as patch:
        patch.setattr(agent, "_quiescent", lambda *args: False)
        full = run_episode(run.spec, run.config).events
    check_episode_invariants(full)
    check_dependency_blocks(full, run.spec)
    check_exit_equivalence(early, full, run.spec, run.config)


def test_episode_invariants_sampled(monkeypatch):
    rng = random.Random(401)
    for _ in range(40):
        spec, config = _sample_run(rng)
        check_whole_episode(simulate_episode(spec, config), monkeypatch)


@pytest.mark.parametrize("index", range(RANDOM_SPEC_COUNT))
def test_a_random_spec_keeps_the_episode_invariants(index, monkeypatch):
    spec = random_spec(index)
    for config in (RunConfig(), random_config(index)):
        run, _ = run_checking_views(spec, config, monkeypatch)
        check_whole_episode(run, monkeypatch)


def dead_chain_spec():
    """a2 holds no iron ingot for its node 3, and nobody can supply one.
    a1's node 2 waits on node 3, and a0's node 1 on node 2. A cobblestone
    source at a0's hand gives a0 a local plan for node 2's material, so
    the gate keeps a0's dependency block local."""
    return hand_built_spec(
        agents={"a0": [120, 0, 0], "a1": [60, 0, 0], "a2": [0, 0, 0]},
        blocks=[[1, "oak_planks", [121, 0, 1]], [2, "cobblestone", [61, 0, 1]],
                [3, "iron_ingot", [1, 0, 1]]],
        assigned={"a0": [1], "a1": [2], "a2": [3]}, partition={}, script={}, edges=[[3, 2], [2, 1]],
        inventories={"a0": {"oak_planks": 1}, "a1": {"cobblestone": 1}},
        sources=[["cobblestone", [122, 0, 2], 1]],
    )


@pytest.mark.parametrize("partition_on", [True, False])
def test_a_dependency_block_ends_when_its_blocker_or_an_ancestor_is_given_up(partition_on):
    """a2 gives node 3 up after two refused windows. That kills node 2 and
    node 1 below it, and in the same step both dependency blocks end
    `abandoned`, each naming its blocker: a1's, whose blocker node 3 was
    given up, and a0's, whose blocker node 2 lies below it. a0's gate kept
    its block local and a1's windows were refused, so nothing else ends
    them; the quiescent episode leaves no issue open."""
    events = run_episode(dead_chain_spec(), RunConfig(partition_on=partition_on)).events
    gates = [(e["agent"], e["payload"]["verdict"]) for e in events if e["kind"] == "gate_decision"]
    assert gates[0] == ("a0", "stay_local") and ("a0", "escalate") not in gates
    issues = [(e["step"], e["agent"], e["payload"]["event"], e["payload"]["issue"], e["payload"]["node_id"])
              for e in events if e["kind"] == "issue"]
    given_up = issues[-3][0]
    assert issues[-3:] == [(given_up, "a2", "abandoned", "missing_material", 3),
                           (given_up, "a0", "abandoned", "dependency_block", 2),
                           (given_up, "a1", "abandoned", "dependency_block", 3)]
    assert [(agent_id, event) for _, agent_id, event, _, _ in issues[:-3]] == [
        ("a0", "detected"), ("a1", "detected"), ("a2", "detected")]
    assert events[-1]["payload"]["reason"] == "quiescent"
    assert not check_episode_invariants(events)


def dead_waiter_spec():
    """a0's node 1 waits on a1's node 2 and on a2's node 3. a2 holds no iron
    ingot for node 3, and nobody can supply one. a1 holds no cobblestone for
    node 2: the one source is far off, so node 2 lands late."""
    return hand_built_spec(
        agents={"a0": [0, 0, 0], "a1": [60, 0, 0], "a2": [-40, 0, 0]},
        blocks=[[1, "oak_planks", [1, 0, 1]], [2, "cobblestone", [25, 0, 1]],
                [3, "iron_ingot", [-41, 0, 1]]],
        assigned={"a0": [1], "a1": [2], "a2": [3]}, partition={}, script={}, edges=[[2, 1], [3, 1]],
        inventories={"a0": {"oak_planks": 1}}, sources=[["cobblestone", [95, 0, 2], 1]],
    )


@pytest.mark.parametrize("partition_on", [True, False])
def test_a_dependency_block_ends_when_its_waiters_last_waiting_node_dies(partition_on):
    """a0 blocks on node 2, the first of node 1's prerequisites. a2 gives
    node 3 up after two refused windows, which kills node 1, a0's only node
    that waits on node 2. In that step a0's block ends `abandoned`, although
    its blocker lives: node 2 is not given up, and a1 places it later. a0
    passes no gate after its block ends."""
    spec = dead_waiter_spec()
    events = run_episode(spec, RunConfig(partition_on=partition_on)).events
    issues = [(e["step"], e["agent"], e["payload"]["event"], e["payload"]["issue"], e["payload"]["node_id"])
              for e in events if e["kind"] == "issue"]
    given_up = next(step for step, agent_id, event, _, _ in issues
                    if (agent_id, event) == ("a2", "abandoned"))
    assert [i for i in issues if i[1] != "a1"] == [
        (0, "a0", "detected", "dependency_block", 2),
        (2, "a2", "detected", "missing_material", 3),
        (given_up, "a2", "abandoned", "missing_material", 3),
        (given_up, "a0", "abandoned", "dependency_block", 2)]
    placed_2 = next(e["step"] for e in events if e["kind"] == "action"
                    and e["payload"]["action"] == {"kind": "place", "node_id": 2})
    assert placed_2 > given_up
    assert not [e for e in events if e["kind"] == "gate_decision" and e["agent"] == "a0"
                and e["step"] >= given_up]
    assert events[-1]["payload"]["reason"] == "quiescent"
    assert not check_episode_invariants(events)
    check_dependency_blocks(events, spec)


@pytest.mark.parametrize("partition_on", [True, False])
def test_a_material_issue_kept_local_with_nothing_pending_is_given_up(partition_on):
    """The gate keeps a0's missing iron ingot local, with no local plan,
    and a0's skip work runs out with no window and no retry scheduled.
    Nothing can bring the ingot any more, so a0 gives node 1 up and the
    quiescent episode leaves no issue open."""
    spec = stay_local_dead_end_spec()
    events = run_episode(spec, RunConfig(partition_on=partition_on)).events
    gate = [e["payload"] for e in events if e["kind"] == "gate_decision"]
    assert [(g["verdict"], g["tier"], g["fv"]["L"]) for g in gate] == [("stay_local", "score", 0)]
    assert gate[0]["score_norm"] < RunConfig().thresholds.t_low
    issues = [(e["agent"], e["payload"]["event"], e["payload"]["node_id"])
              for e in events if e["kind"] == "issue"]
    assert issues == [("a0", "detected", 1), ("a0", "abandoned", 1)]
    assert events[-1]["payload"]["reason"] == "quiescent"
    assert not check_episode_invariants(events)


def test_a_window_that_fails_after_its_issue_ended_records_nothing():
    """a1 never answers a0's window for its dependency block, which ends
    anyway once a1 places node 2 (at step 6). The window times out at step 20
    with no issue of a0's open: the cooldown belonged to that issue, so the
    close records nothing, and a0's next issue starts with a clean one."""
    spec = dependency_block_spec()
    spec.responder_script = {"a1": ["silent"] * 3}
    events = run_episode(spec, RunConfig()).events
    a0 = [(e["step"], e["kind"], e["payload"].get("event"), e["payload"]["issue"])
          for e in events if e["agent"] == "a0" and e["kind"] in ("issue", "window_state")]
    assert a0[:4] == [(0, "issue", "detected", "dependency_block"),
                      (0, "window_state", "opened", "dependency_block"),
                      (6, "issue", "resolved", "dependency_block"),
                      (20, "window_state", "closed", "dependency_block")]
    updates = [(e["step"], e["payload"]["issue"], e["payload"]["consecutive_failures"])
               for e in events if e["kind"] == "cooldown_update" and e["agent"] == "a0"]
    assert updates == [(40, "missing_material", 1)]
    assert not check_episode_invariants(events)


def test_an_escalation_past_a_visible_chest_replays_its_plan_cost():
    """With no tier, a0 escalates its missing sandstone although a chest in
    sight holds one. The escalation's solver context records the chest, and
    replaying it finds the recorded plan, which collects there."""
    spec = hand_built_spec(
        agents={"a0": [0, 0, 0], "a1": [12, 0, 0]},
        blocks=[[0, "sandstone", [1, 0, 1]]], assigned={"a0": [0]}, partition={}, script={},
        chests=[[[0, 0, 3], {"sandstone": 1}]],
    )
    events = run_episode(spec, RunConfig(tiers=0)).events
    [gate] = [e["payload"] for e in events if e["kind"] == "gate_decision"]
    assert gate["verdict"] == "escalate" and gate["local_plan_cost"] is not None
    assert gate["solver_ctx"]["chests"] == [[0, [0, 0, 3], {"sandstone": 1}]]
    assert not check_episode_invariants(events)


def test_default_runs_keep_the_episode_invariants(default_runs):
    for run in default_runs:
        check_episode_invariants(run.trace.events)
        check_dependency_blocks(run.trace.events, run.spec)


def test_items_are_conserved_in_the_default_runs(default_runs):
    kinds = set()
    for run in default_runs:
        check_item_conservation(run.trace.events, run.spec, run.world)
        kinds.update(e["payload"]["action"]["kind"] for e in run.trace.events
                     if e["kind"] == "action" and e["payload"]["outcome"]["status"] == "success")
    assert {"collect", "transfer", "place", "craft", "smelt"} <= kinds


def sight_crossing_spec():
    """a1 walks from beyond OBSERVE_RADIUS of a0 to its node 2 next to a0,
    then back out to its node 3, so a0's views see a teammate come into
    sight and go out of it. a0 places its one node and idles."""
    return hand_built_spec(
        agents={"a0": [0, 0, 0], "a1": [80, 0, 0]},
        blocks=[[1, "cobblestone", [1, 0, 1]], [2, "cobblestone", [5, 0, 1]],
                [3, "cobblestone", [80, 0, 1]]],
        assigned={"a0": [1], "a1": [2, 3]}, partition={}, script={}, edges=[[2, 3]],
        inventories={"a0": {"cobblestone": 1}, "a1": {"cobblestone": 2}},
    )


def test_cached_views_equal_fresh_observation(default_runs, monkeypatch):
    rng = random.Random(401)  # the sampled cases of test_episode_invariants_sampled
    cases = [_sample_run(rng) for _ in range(40)]
    cases += [(run.spec, run.config) for run in default_runs]
    partition_off = 0
    for spec, config in cases:
        run_checking_views(spec, config, monkeypatch)
        partition_off += not config.partition_on
    assert partition_off
    # the generated cases never move an agent into or out of another's sight
    _, served = run_checking_views(sight_crossing_spec(), RunConfig(), monkeypatch)
    sees_a1 = [("a1" in view.teammates) for view in served if view.agent_id == "a0"]
    changes = [now for was, now in zip(sees_a1, sees_a1[1:]) if was != now]
    assert not sees_a1[0] and changes == [True, False]


def run_checking_memories(spec, config, monkeypatch):
    """Simulate `spec` under `config`, checking after every applied action
    (its `_post_action` included) that each agent's private inventory
    equals its world body's. Returns the runtime and the number of actions
    applied."""
    real_post_action = agent._post_action
    applied = [0]

    def checked_post_action(ep, state, action, outcome):
        real_post_action(ep, state, action, outcome)
        applied[0] += 1
        for aid, memory in ep.states.items():
            assert memory.inventory.counts == ep.world.agents[aid].inventory.counts, (
                aid, ep.world.sim_time)

    with monkeypatch.context() as patch:
        patch.setattr(agent, "_post_action", checked_post_action)
        run = simulate_episode(spec, config)
    return run, applied[0]


def test_each_memory_holds_its_bodys_inventory_after_every_action(default_runs, monkeypatch):
    cases = [(run.spec, run.config) for run in default_runs]
    for index in range(RANDOM_SPEC_COUNT):
        spec = random_spec(index)
        cases += [(spec, RunConfig()), (spec, random_config(index))]
    kinds = set()
    for spec, config in cases:
        run, applied = run_checking_memories(spec, config, monkeypatch)
        actions = [e["payload"]["action"]["kind"] for e in run.trace.events if e["kind"] == "action"]
        assert applied == len(actions) > 0
        kinds.update(actions)
    assert {"collect", "transfer", "place", "craft", "smelt"} <= kinds
