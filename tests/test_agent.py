import pickle

import pytest

from gatecraft import RunConfig, Trace, agent, gate, memory, run_episode
from gatecraft.cli import ABLATION_VARIANTS
from gatecraft.gate import GateThresholds, GateWeights, ScriptedAdjudicator
from gatecraft.harness import compute_metrics
from gatecraft.memory import BlockageRecord, IssueType
from gatecraft.world import VerifiedOutcome

from conftest import dependency_block_spec, hand_built_spec, run_checking_views


def _episodes_of_class(dataset, label, limit=None):
    _, episodes = dataset
    chosen = [e for e in episodes if e.class_label == label]
    return chosen[:limit] if limit else chosen


def test_run_config_validates_weights_unless_permitted():
    with pytest.raises(ValueError):
        RunConfig(weights=GateWeights.from_sequence([1, 1, 1, 1, 1]))
    cfg = RunConfig(weights=GateWeights.from_sequence([1, 1, 1, 1, 1]), allow_unvalidated=True)
    assert cfg.weights.as_tuple() == (1, 1, 1, 1, 1)


@pytest.mark.parametrize("tiers", [-1, 4])
def test_run_config_rejects_a_cascade_depth_outside_its_tiers(tiers):
    with pytest.raises(ValueError, match="^tiers must be 0 to 3$"):
        RunConfig(tiers=tiers)
    with pytest.raises(ValueError, match="^tiers must be 0 to 3$"):
        RunConfig().replace(tiers=tiers)


_UNVALIDATED = GateWeights(1, 1, 1, 1, 1)


@pytest.mark.parametrize("changes, message", [
    ({"step_budget": 0}, "step_budget must be >= 1"),
    ({"window_timeout": 0}, "window_timeout must be >= 1"),
    ({"cooldown_duration": -1}, "cooldown_duration must be >= 0"),
    ({"weights": _UNVALIDATED}, "weight vector rejected: wC must exceed max(wR, wI, wL); "
                                "min(wR, wI, wL) must exceed wH"),
], ids=["step_budget", "window_timeout", "cooldown", "weights"])
def test_run_config_and_replace_reject_the_same_values(changes, message):
    """`replace` builds its copy through the constructor, so it checks what
    a new config checks, with the same message (the tiers' check has its
    own test above)."""
    with pytest.raises(ValueError) as built:
        RunConfig(**changes)
    with pytest.raises(ValueError) as replaced:
        RunConfig().replace(**changes)
    assert str(built.value) == str(replaced.value) == message


def test_replace_admits_unvalidated_weights_only_with_allow_unvalidated():
    admitted = RunConfig(allow_unvalidated=True).replace(weights=_UNVALIDATED)
    assert admitted.weights == _UNVALIDATED
    assert RunConfig(weights=_UNVALIDATED, allow_unvalidated=True) == admitted
    with pytest.raises(ValueError, match="^weight vector rejected: "):
        admitted.replace(allow_unvalidated=False)


def test_run_configs_compare_by_value():
    config = RunConfig(weights=GateWeights(5, 2, 2, 2, 1), thresholds=GateThresholds(0.3, 0.6),
                       tiers=2, partition_on=False, window_timeout=5, cooldown_duration=3,
                       step_budget=40)
    same = RunConfig(GateWeights(5, 2, 2, 2, 1), GateThresholds(0.3, 0.6), 2, False, 5, 3, 40)
    assert config == same and config is not same
    assert RunConfig() == RunConfig().replace() == RunConfig(weights=GateWeights(4, 2, 2, 2, 1))
    assert config.replace(step_budget=41) != config
    assert config.replace(step_budget=41).replace(step_budget=40) == config
    assert RunConfig() != RunConfig().describe()


def test_a_run_config_survives_a_pickle_round_trip():
    """Pool workers receive their configs pickled."""
    config = RunConfig(weights=_UNVALIDATED, thresholds=GateThresholds(0.2, 0.8), tiers=1,
                       partition_on=False, window_timeout=7, cooldown_duration=0, step_budget=9,
                       allow_unvalidated=True)
    again = pickle.loads(pickle.dumps(config))
    assert again == config and again is not config
    assert again.describe() == config.describe()


def test_regate_key_ignores_exactly_the_regated_fields():
    """Changing one setting changes the key unless it is one `regate` may
    change."""
    other = {"weights": GateWeights(5, 2, 2, 2, 1), "thresholds": GateThresholds(0.3, 0.6),
             "tiers": 1, "partition_on": False, "window_timeout": 5, "cooldown_duration": 3,
             "step_budget": 40, "allow_unvalidated": True}
    assert sorted(other) == sorted(RunConfig.__slots__)
    key = agent.regate_key(RunConfig())
    ignored = {name for name, value in other.items()
               if agent.regate_key(RunConfig().replace(**{name: value})) == key}
    assert ignored == set(agent.REGATED_FIELDS)


def test_run_config_describe_echoes_settings():
    cfg = RunConfig(thresholds=GateThresholds(0.45, 0.45), step_budget=77, tiers=1)
    desc = cfg.describe()
    assert desc["thresholds"] == [0.45, 0.45]
    assert desc["step_budget"] == 77
    assert desc["weights"] == [4, 2, 2, 2, 1]
    assert desc["tiers"] == 1


def test_trace_round_trips_through_jsonl():
    t = Trace()
    t.emit(0, "a0", "action", {"action": {"kind": "idle"}, "outcome": {"status": "success"}})
    t.emit(1, "", "episode_end", {"completion": 1.0, "schema": agent.TRACE_SCHEMA})
    text = t.to_jsonl()
    assert Trace.from_jsonl(text).events == t.events


def test_every_episode_ends_with_episode_end(dataset):
    _, episodes = dataset
    cfg = RunConfig()
    for spec in episodes[:8]:
        trace = run_episode(spec, cfg)
        kinds = [e["kind"] for e in trace.events]
        assert kinds[-1] == "episode_end"
        assert kinds.count("episode_end") == 1


def test_identical_runs_are_byte_identical(dataset):
    spec = _episodes_of_class(dataset, "C", limit=1)[0]
    cfg = RunConfig()
    t1 = run_episode(spec, cfg).to_jsonl()
    t2 = run_episode(spec, cfg).to_jsonl()
    assert t1 == t2


def test_self_sufficient_episode_completes_without_messages(dataset):
    for spec in _episodes_of_class(dataset, "A", limit=3):
        trace = run_episode(spec, RunConfig())
        end = trace.events[-1]["payload"]
        assert end["completion"] == 1.0
        assert not any(e["kind"] == "coordination_message" for e in trace.events)


def test_handover_episode_runs_full_handshake(dataset):
    spec = _episodes_of_class(dataset, "B", limit=1)[0]
    trace = run_episode(spec, RunConfig())
    protocols = [e["payload"]["protocol"] for e in trace.events
                 if e["kind"] == "coordination_message"]
    assert protocols == ["REQUEST_MATERIAL", "OFFER_TRANSFER", "CONFIRM_TRANSFER"]
    states = [e["payload"]["state"] for e in trace.events if e["kind"] == "window_state"]
    assert states[-1] == "fulfilled"
    assert trace.events[-1]["payload"]["completion"] == 1.0


def test_gray_zone_episode_consults_adjudicator_once(dataset):
    spec = _episodes_of_class(dataset, "C", limit=1)[0]
    trace = run_episode(spec, RunConfig())
    adjudicated = [e for e in trace.events
                   if e["kind"] == "gate_decision" and e["payload"]["tier"] == "adjudicator"]
    assert len(adjudicated) == 1
    payload = adjudicated[0]["payload"]
    assert payload["adjudicator_request"] and payload["adjudicator_reply"]
    assert 0.4 < payload["score_norm"] < 0.5


def test_unresponsive_partner_is_abandoned_within_two_windows(dataset):
    spec = _episodes_of_class(dataset, "D", limit=1)[0]
    trace = run_episode(spec, RunConfig())
    opened = [e for e in trace.events
              if e["kind"] == "window_state" and e["payload"]["event"] == "opened"]
    assert len(opened) == 2
    abandoned = [e for e in trace.events
                 if e["kind"] == "issue" and e["payload"]["event"] == "abandoned"]
    assert len(abandoned) >= 1
    end = trace.events[-1]["payload"]
    assert 0.0 < end["completion"] < 1.0


def test_scripted_backend_substitutes_for_the_recorded_adjudicator(dataset):
    spec = _episodes_of_class(dataset, "C", limit=1)[0]
    cfg = RunConfig()
    recorded = run_episode(spec, cfg)
    replies = [e["payload"]["adjudicator_reply"] for e in recorded.events
               if e["kind"] == "gate_decision" and e["payload"].get("adjudicator_reply")]
    replayed = run_episode(spec, cfg, ScriptedAdjudicator(replies))
    assert replayed.to_jsonl() == recorded.to_jsonl()


def test_disabling_gating_escalates_every_issue(dataset):
    spec = _episodes_of_class(dataset, "A", limit=1)[0]
    cfg = RunConfig(tiers=0)
    trace = run_episode(spec, cfg)
    decisions = [e["payload"] for e in trace.events if e["kind"] == "gate_decision"]
    assert decisions and all(d["tier"] == "disabled" for d in decisions)
    assert all(d["verdict"] == "escalate" for d in decisions)
    # the same episode under the full gate stays silent
    quiet = run_episode(spec, RunConfig())
    assert not any(e["kind"] == "coordination_message" for e in quiet.events)


def test_partition_off_shares_inventories_in_views(dataset):
    spec = _episodes_of_class(dataset, "B", limit=1)[0]
    cfg = RunConfig(partition_on=False)
    trace = run_episode(spec, cfg)
    assert trace.events[-1]["payload"]["config"]["partition_on"] is False
    assert trace.events[-1]["payload"]["completion"] == 1.0


def test_step_budget_bounds_episode_length(dataset):
    spec = _episodes_of_class(dataset, "D", limit=1)[0]
    cfg = RunConfig(step_budget=10)
    trace = run_episode(spec, cfg)
    end = trace.events[-1]["payload"]
    assert end["reason"] == "budget" and end["rounds"] == 10


def _full_budget(monkeypatch):
    """Test-only patch: never take the quiescence exit."""
    monkeypatch.setattr(agent, "_quiescent", lambda *args: False)


def _first_idle_round_end(events) -> int:
    """Trace index just past the first round in which every agent only idled."""
    n_agents = len({e["agent"] for e in events if e["kind"] == "action"})
    idle_run = actions = 0
    for i, e in enumerate(events):
        if e["kind"] == "action":
            actions += 1
            idle_run = idle_run + 1 if e["payload"]["action"]["kind"] == "idle" else 0
            if actions % n_agents == 0 and idle_run >= n_agents:
                return i + 1
        else:
            idle_run = 0
    raise AssertionError("no fully idle round")


def test_a_due_regate_is_not_quiescent(dataset, monkeypatch):
    """An open issue's set gate time blocks the exit even once it is due:
    the gate pass it triggers has not run yet. A stalled issue with no gate
    time does not."""
    spec = _episodes_of_class(dataset, "D", limit=1)[0]
    real = agent._quiescent
    verdicts = []

    def spy(ep, round_start):
        quiet = real(ep, round_start)
        if quiet:
            state = ep.states["a0"]
            state.blockage = record = BlockageRecord(IssueType.TRANSFER_NEEDED, 0, "iron_ingot")
            now = ep.world.sim_time
            for due in (0, now - 1, now, now + 1, None):
                record.gate_at = due
                verdicts.append(real(ep, round_start))
            state.blockage = None
        return quiet

    monkeypatch.setattr(agent, "_quiescent", spy)
    end = run_episode(spec, RunConfig()).events[-1]["payload"]
    assert end["reason"] == "quiescent"
    assert verdicts == [False] * 4 + [True]


def test_retry_after_an_idle_stretch_is_kept(dataset, monkeypatch):
    """Class-D requesters idle through a cooldown and then retry the gate;
    the exit must not fire inside that stretch."""
    specs = _episodes_of_class(dataset, "D")
    early = {s.episode_id: run_episode(s, RunConfig()).events for s in specs}
    _full_budget(monkeypatch)
    retried = 0
    for spec in specs:
        full = run_episode(spec, RunConfig()).events
        late_gates = [e for e in full[_first_idle_round_end(full):] if e["kind"] == "gate_decision"]
        if late_gates:
            retried += 1
            kept = [e for e in early[spec.episode_id] if e["kind"] == "gate_decision"]
            assert all(e in kept for e in late_gates), spec.episode_id
    assert retried > 0


def test_window_timing_out_in_an_idle_round_is_not_quiescent(monkeypatch):
    """A silent responder lets a window time out on the requester's own idle
    turn; with no cooldown left the requester falls back to a local plan,
    and the next round must still run it."""
    spec = hand_built_spec(
        agents={"a0": [0, 0, 0], "a1": [5, 0, 0], "a2": [8, 0, 0]},
        blocks=[[0, "sandstone", [1, 0, -2]]], assigned={"a0": [0]},
        partition={"sandstone": "a1"}, script={"a1": ["silent"]},
        sources=[["sandstone", [6, 0, 0], 2]],
    )
    config = RunConfig(tiers=0, window_timeout=4, cooldown_duration=0)
    trace = run_episode(spec, config)
    end = trace.events[-1]["payload"]
    assert end["reason"] == "completed" and end["completion"] == 1.0
    _full_budget(monkeypatch)
    assert run_episode(spec, config).events == trace.events


def test_idle_round_that_abandons_a_node_is_not_quiescent(monkeypatch):
    """After two refusals each idle round abandons one more node that needs
    the refused item; the exit must wait until none is left."""
    spec = hand_built_spec(
        agents={"a0": [0, 0, 0], "a1": [5, 0, 0]},
        blocks=[[n, "iron_ingot", [n + 1, 0, 1]] for n in range(3)], assigned={"a0": [0, 1, 2]},
        partition={"iron_ingot": "a1"}, script={"a1": ["cannot_supply"] * 3},
    )
    config = RunConfig(cooldown_duration=0)
    early = run_episode(spec, config).events
    assert early[-1]["payload"]["reason"] == "quiescent"
    _full_budget(monkeypatch)
    full = run_episode(spec, config).events
    assert full[:len(early) - 1] == early[:-1]
    abandoned = [e for e in early if e["kind"] == "issue" and e["payload"]["event"] == "abandoned"]
    assert len(abandoned) == 3


def test_an_unexpired_cooldown_does_not_hold_the_exit(dataset, monkeypatch):
    """Cooldowns are read only by a gate pass, a window close and a due
    retry, and a quiescent round leaves none of them to come, so a class-D
    episode ends before its last refusal's cooldown expires."""
    spec = _episodes_of_class(dataset, "D", limit=1)[0]
    early = run_episode(spec, RunConfig()).events
    expiry = max(e["payload"]["expires_at"] for e in early if e["kind"] == "cooldown_update")
    end = early[-1]
    assert end["payload"]["reason"] == "quiescent" and end["step"] < expiry
    _full_budget(monkeypatch)
    full = run_episode(spec, RunConfig()).events
    assert full[:len(early) - 1] == early[:-1]
    tail = full[len(early) - 1:-1]
    assert tail and all(e["kind"] == "action" and e["payload"]["action"]["kind"] == "idle"
                        and e["payload"]["outcome"] == {"status": "success"} for e in tail)


def test_a_resolved_recovery_leaves_the_agent_free_to_detect(monkeypatch):
    """a0 collects the planks it lacks for node 0, which resolves its issue
    mid-plan; after placing node 0 its node 1 waits on a1's node 2, which
    never lands, and a0 must detect that dependency block rather than idle
    in a leftover recovery. a1 has no cobblestone and gives node 2 up; a0's
    block ends `abandoned` in that step, so no window of a0's goes to the
    given-up blocker."""
    spec = hand_built_spec(
        agents={"a0": [0, 0, 0], "a1": [12, 0, 0]},
        blocks=[[0, "oak_planks", [1, 0, 1]], [1, "oak_planks", [2, 0, 1]],
                [2, "cobblestone", [3, 0, 1]]],
        assigned={"a0": [0, 1], "a1": [2]}, partition={}, script={"a1": ["silent"]},
        sources=[["oak_planks", [0, 0, 2], 5]], edges=[[2, 1]],
    )
    events = run_episode(spec, RunConfig()).events
    a0_issues = [(e["payload"]["event"], e["payload"]["issue"], e["payload"]["node_id"])
                 for e in events if e["kind"] == "issue" and e["agent"] == "a0"]
    assert a0_issues[:3] == [("detected", "missing_material", 0), ("resolved", "missing_material", 0),
                             ("detected", "dependency_block", 2)]
    [given_up] = [e["step"] for e in events if e["kind"] == "issue" and e["agent"] == "a1"
                  and e["payload"]["event"] == "abandoned" and e["payload"]["node_id"] == 2]
    assert [(e["step"], e["payload"]["event"], e["payload"]["node_id"]) for e in events
            if e["kind"] == "issue" and e["agent"] == "a0"][3:] == [(given_up, "abandoned", 2)]
    a0_windows = [e["step"] for e in events if e["kind"] == "window_state" and e["agent"] == "a0"
                  and e["payload"]["event"] == "opened"]
    assert a0_windows and all(step < given_up for step in a0_windows)
    assert events[-1]["payload"]["reason"] == "quiescent"


def test_a_dependency_block_resolves_when_the_teammate_places_the_blocker():
    """a0's node 1 waits on a1's node 2; a1 collects cobblestone from its own
    source and places node 2, which resolves a0's block right after the
    place, before a0 acts again."""
    spec = dependency_block_spec()
    events = run_episode(spec, RunConfig()).events
    placed_2 = next(e["step"] for e in events if e["kind"] == "action" and e["agent"] == "a1"
                    and e["payload"]["action"] == {"kind": "place", "node_id": 2})
    a0_blocks = [(e["step"], e["payload"]["event"]) for e in events if e["kind"] == "issue"
                 and e["agent"] == "a0" and e["payload"]["issue"] == "dependency_block"]
    assert [event for _, event in a0_blocks] == ["detected", "resolved"]
    assert a0_blocks[1][0] == placed_2 + 1
    assert events[-1]["payload"]["completion"] == 1.0


def test_the_next_node_and_its_blocker_follow_the_topological_order():
    """a0 holds the planks for its nodes 1 and 2, which wait on a1's nodes 4
    and 3 (edges 4 -> 1 and 3 -> 2). In topological order (3, 2, 4, 1) a1
    builds node 3 first and a0 node 2, so a0's first issue is the block on
    node 3, which lands first, and a0 places node 2 right after. Walking
    a0's nodes by id instead would report the block on node 4."""
    spec = hand_built_spec(
        agents={"a0": [0, 0, 0], "a1": [12, 0, 0]},
        blocks=[[1, "oak_planks", [1, 0, 1]], [2, "oak_planks", [2, 0, 1]],
                [3, "cobblestone", [11, 0, 1]], [4, "cobblestone", [13, 0, 1]]],
        assigned={"a0": [1, 2], "a1": [3, 4]}, partition={}, script={},
        inventories={"a0": {"oak_planks": 2}, "a1": {"cobblestone": 2}}, edges=[[4, 1], [3, 2]],
    )
    events = run_episode(spec, RunConfig()).events
    a0_issues = [(e["step"], e["payload"]["event"], e["payload"]["issue"], e["payload"]["node_id"])
                 for e in events if e["kind"] == "issue" and e["agent"] == "a0"]
    assert a0_issues[:2] == [(0, "detected", "dependency_block", 3),
                             (4, "resolved", "dependency_block", 3)]
    a0_places = [(e["step"], e["payload"]["action"]["node_id"]) for e in events
                 if e["kind"] == "action" and e["agent"] == "a0"
                 and e["payload"]["action"]["kind"] == "place"]
    assert a0_places == [(4, 2), (6, 1)]


@pytest.mark.parametrize("partition_on", [True, False])
def test_skip_work_builds_in_topological_order(partition_on):
    """The edge 5 -> 2 puts a0's nodes in the order 0, 1, 4, 2. a1 places
    node 5 while a0 walks to node 0, then a0 finds no iron ingot for node 1 and
    does skip work. It holds the planks for nodes 2 and 4, both ready now,
    and builds node 4 first, as its topological order has it, although
    node 2 has the smaller id."""
    spec = hand_built_spec(
        agents={"a0": [0, 0, 0], "a1": [12, 0, 0]},
        blocks=[[0, "cobblestone", [8, 0, 1]], [1, "iron_ingot", [1, 0, 1]],
                [2, "oak_planks", [2, 0, 1]], [4, "oak_planks", [3, 0, 1]],
                [5, "cobblestone", [12, 0, 1]]],
        assigned={"a0": [0, 1, 2, 4], "a1": [5]}, partition={}, script={}, edges=[[5, 2]],
        inventories={"a0": {"cobblestone": 1, "oak_planks": 2}, "a1": {"cobblestone": 1}},
    )
    events = run_episode(spec, RunConfig(partition_on=partition_on)).events
    built = [(e["agent"], e["payload"]["action"]["kind"], e["payload"]["action"]["node_id"])
             for e in events if e["kind"] == "action"
             and e["payload"]["action"]["kind"] in ("place", "skip")]
    assert built == [("a1", "place", 5), ("a0", "place", 0), ("a0", "skip", 4), ("a0", "place", 4),
                     ("a0", "skip", 2), ("a0", "place", 2)]
    issues = [(e["payload"]["event"], e["payload"]["node_id"]) for e in events if e["kind"] == "issue"]
    assert issues == [("detected", 1), ("abandoned", 1)]


def test_a_later_issue_does_not_inherit_an_earlier_ones_failed_windows():
    """a1 refuses a0's two windows for node 1, so a0 gives node 1 up at step
    34 and detects node 2, which needs the same item, in the same step. The
    cooldown is the issue's own, so node 2 gets its own gate pass (with a
    clean history, H = 0) and its own window, which a1 fulfils."""
    spec = hand_built_spec(
        agents={"a0": [0, 0, 0], "a1": [12, 0, 0]},
        blocks=[[1, "iron_ingot", [1, 0, 1]], [2, "iron_ingot", [2, 0, 1]],
                [3, "cobblestone", [12, 0, 1]]],
        assigned={"a0": [1, 2], "a1": [3]}, partition={"iron_ingot": "a1"},
        script={"a1": ["cannot_supply", "cannot_supply", "honest"]},
        inventories={"a1": {"iron_ingot": 2, "cobblestone": 1}},
    )
    events = run_episode(spec, RunConfig()).events
    a0_issues = [(e["step"], e["payload"]["event"], e["payload"]["node_id"])
                 for e in events if e["kind"] == "issue" and e["agent"] == "a0"]
    assert a0_issues == [(0, "detected", 1), (34, "abandoned", 1),
                         (34, "detected", 2), (42, "resolved", 2)]
    passes = [(e["step"], e["payload"]["node_id"], e["payload"]["verdict"], e["payload"]["fv"]["H"])
              for e in events if e["kind"] == "gate_decision"]
    assert passes == [(0, 1, "escalate", 0), (32, 1, "escalate", 0), (34, 2, "escalate", 0)]
    closes = [e["payload"]["state"] for e in events
              if e["kind"] == "window_state" and e["payload"]["event"] == "closed"]
    assert closes == ["cannot_supply", "cannot_supply", "fulfilled"]
    end = events[-1]["payload"]
    assert end["completion"] == pytest.approx(2 / 3) and end["reason"] == "quiescent"


def test_each_gate_pass_plan_comes_from_one_planner_call_in_its_step(dataset, monkeypatch):
    """Every planner call is counted, through each name the planner is
    looked up by, and filed under the step it is made in (a step's
    post-action included). Each gate pass's plan is the answer of a call
    made in its step: for a material issue, detection's probe or the
    gate's own. No step asks the planner the same question twice, and a
    seed-0 `run` makes 375 calls: 125 detections probe, and their gate
    passes reuse the answer."""
    calls, passes = [], []  # (step number, inputs, answer); (step number, gate pass)
    stepno = [0]
    for module in (agent, gate, memory):
        def counted(state, view, recipes, blockage, _real=module.plan_local_recovery):
            plan = _real(state, view, recipes, blockage)
            inputs = (state.agent_id, dict(state.inventory.counts), view, recipes,
                      blockage.item, blockage.count)
            calls.append((stepno[0], inputs, plan))
            return plan
        monkeypatch.setattr(module, "plan_local_recovery", counted)
    real_step = agent.step

    def stepped(state, ep):
        stepno[0] += 1
        known = len(ep.gate_passes)
        result = real_step(state, ep)
        passes.extend((stepno[0], gp) for gp in ep.gate_passes[known:])
        return result

    monkeypatch.setattr(agent, "step", stepped)
    _, episodes = dataset
    for spec in episodes:
        run_episode(spec, RunConfig())
    assert len(calls) == 375
    run_episode(dependency_block_spec(), RunConfig())

    by_step = {}
    for n, inputs, plan in calls:
        by_step.setdefault(n, []).append((inputs, plan))
    for n, gp in passes:
        assert any(plan is gp.plan for _, plan in by_step.get(n, ())), n
    for n, made in by_step.items():
        asked = [inputs for inputs, _ in made]
        assert all(asked[i] not in asked[:i] for i in range(len(asked))), n
    kinds = {(gp.blockage.issue, gp.plan is not None) for _, gp in passes}
    assert {("transfer_needed", False), ("missing_material", True), ("dependency_block", True)} <= kinds


def test_a_recovery_leg_collects_from_a_chest():
    """A chest holds the only sandstone; a0's local plan collects it there."""
    spec = hand_built_spec(
        agents={"a0": [0, 0, 0], "a1": [12, 0, 0]},
        blocks=[[0, "sandstone", [1, 0, 1]]], assigned={"a0": [0]}, partition={}, script={},
        chests=[[[0, 0, 3], {"sandstone": 1}]],
    )
    events = run_episode(spec, RunConfig()).events
    a0_actions = [e["payload"]["action"] for e in events if e["kind"] == "action" and e["agent"] == "a0"]
    assert {"kind": "collect", "source": ["chest", 0, "sandstone"]} in a0_actions
    assert a0_actions[-1] == {"kind": "place", "node_id": 0}
    assert events[-1]["payload"]["completion"] == 1.0


def _contested_source_spec():
    """a0 and a1 both need the one unit of sandstone a source holds."""
    return hand_built_spec(
        agents={"a0": [0, 0, 0], "a1": [2, 0, 0]},
        blocks=[[0, "sandstone", [0, 0, 1]], [1, "sandstone", [2, 0, 1]]],
        assigned={"a0": [0], "a1": [1]}, partition={}, script={},
        sources=[["sandstone", [1, 0, 3], 1]],
    )


def test_a_failed_recovery_leg_drops_the_legs_and_regates():
    """a0 and a1 both plan to collect the one unit of sandstone; a1 gets there
    second, its collect fails with source_empty, and its next step passes
    the gate again instead of retrying the drained source."""
    events = run_episode(_contested_source_spec(), RunConfig()).events
    failed = next(i for i, e in enumerate(events)
                  if e["kind"] == "action" and e["payload"]["outcome"]["status"] == "failure")
    assert events[failed]["agent"] == "a1"
    assert (events[failed]["payload"]["action"]["kind"],
            events[failed]["payload"]["outcome"]["reason"]) == ("collect", "source_empty")
    a1_before = [e for e in events[:failed] if e["agent"] == "a1" and e["kind"] == "gate_decision"]
    assert [e["payload"]["verdict"] for e in a1_before] == ["stay_local"]
    a1_after = [e for e in events[failed + 1:] if e["agent"] == "a1"]
    assert a1_after[0]["kind"] == "gate_decision"
    next_action = next(e for e in a1_after if e["kind"] == "action")
    assert next_action["step"] == a1_after[0]["step"]
    assert next_action["payload"]["mode"] != "recovering"


def _rebuilt_outcome(e) -> VerifiedOutcome:
    """The outcome an `action` event records, with the four fields the event
    holds once: `agent` and `sim_time` from its envelope, `kind` and
    `node_id` from its action."""
    action, outcome = e["payload"]["action"], e["payload"]["outcome"]
    return VerifiedOutcome(agent=e["agent"], kind=action["kind"], status=outcome["status"],
                           reason=outcome.get("reason"), deltas=outcome.get("deltas", {}),
                           sim_time=e["step"], node_id=action.get("node_id"))


def test_each_action_event_rebuilds_the_outcome_apply_action_returned(dataset, monkeypatch):
    """The written trace loses nothing of any verified outcome: in every
    variant of the default runs, and in a run with a failed action, the
    `action` events read back from JSONL rebuild, in order, exactly the
    outcomes `apply_action` returned, and no separate `outcome` event is
    written."""
    _, episodes = dataset
    specs = list(episodes) + [_contested_source_spec()]
    real = agent.apply_action
    returned = []

    def spy(world, agent_id, action):
        world, outcome = real(world, agent_id, action)
        returned.append(outcome)
        return world, outcome

    monkeypatch.setattr(agent, "apply_action", spy)
    seen = set()
    for name, overrides in ABLATION_VARIANTS:
        config = RunConfig(**overrides)
        for spec in specs:
            returned.clear()
            events = Trace.from_jsonl(run_episode(spec, config).to_jsonl()).events
            assert not any(e["kind"] == "outcome" for e in events), (name, spec.episode_id)
            rebuilt = [_rebuilt_outcome(e) for e in events if e["kind"] == "action"]
            assert rebuilt == returned, (name, spec.episode_id)
            seen.update(f for o in returned for f in o.__slots__ if getattr(o, f))
    assert seen == set(VerifiedOutcome.__slots__)  # every field was set somewhere


def _stalled_chain_spec(script: dict, sources=()):
    """a0's node 1 waits on a1's node 2, which waits on a1's node 3. a1
    holds no stone bricks for node 3, so node 2 lands only if `sources`
    offer some. A window for a0's dependency block moves node 2's
    cobblestone, which a1 holds one spare of, without clearing the block."""
    return hand_built_spec(
        agents={"a0": [0, 0, 0], "a1": [4, 0, 0]},
        blocks=[[1, "oak_planks", [1, 0, 1]], [2, "cobblestone", [3, 0, 1]],
                [3, "stone_bricks", [4, 0, 1]]],
        assigned={"a0": [1], "a1": [2, 3]}, partition={}, script=script, edges=[[3, 2], [2, 1]],
        inventories={"a0": {"oak_planks": 1}, "a1": {"cobblestone": 2}}, sources=sources,
    )


def test_a_delivery_that_leaves_the_blockage_open_regates_at_once():
    """With every tier off, a0 asks a1 for node 2's cobblestone and a1
    hands it over: the window is fulfilled, but the dependency block stays
    open until node 2 lands, so a0's next step passes the gate again.
    Neither node lands: a1 gives node 3 up after two refused windows, which
    kills node 2, so a0's block ends `abandoned` in the same step, and
    every issue ends."""
    config = RunConfig(tiers=0)
    events = run_episode(_stalled_chain_spec({}), config).events
    closed = next(i for i, e in enumerate(events)
                  if e["kind"] == "window_state" and e["payload"]["event"] == "closed")
    assert (events[closed]["step"], events[closed]["payload"]["window_id"],
            events[closed]["payload"]["state"]) == (6, 0, "fulfilled")
    a0_issues = [e["payload"] for e in events[:closed] if e["kind"] == "issue"]
    assert [(p["event"], p["issue"]) for p in a0_issues] == [("detected", "dependency_block")]
    a0_next = next(e for e in events[closed + 1:] if e["agent"] == "a0")
    assert (a0_next["kind"], a0_next["step"]) == ("gate_decision", 6)
    issues = [(e["step"], e["agent"], e["payload"]["event"]) for e in events if e["kind"] == "issue"]
    assert [(agent_id, event) for _, agent_id, event in issues] == [
        ("a0", "detected"), ("a1", "detected"), ("a1", "abandoned"), ("a0", "abandoned")]
    assert issues[2][0] == issues[3][0]
    assert events[-1]["payload"]["reason"] == "quiescent"


def test_a_fulfilled_retry_clears_the_open_issues_cooldown():
    """a1 lets a0's first window time out, then fulfils the retry, while it
    fetches stone bricks from a source for node 3. The dependency block is
    still open, so the fulfilled close resets its cooldown, traced as level
    0 with no failures, and two more windows fail before the hard block.
    The block ends when a1 places node 2."""
    spec = _stalled_chain_spec({"a1": ["silent", "honest"]}, sources=[["stone_bricks", [30, 0, 0], 1]])
    events = run_episode(spec, RunConfig(cooldown_duration=2)).events
    a0 = [(e["step"], e["kind"], e["payload"].get("event") or e["payload"].get("cause"))
          for e in events if e["agent"] == "a0" and e["kind"] in ("issue", "cooldown_update")]
    assert a0 == [(0, "issue", "detected"), (20, "cooldown_update", "timed_out"),
                  (30, "cooldown_update", "fulfilled"), (32, "cooldown_update", "cannot_supply"),
                  (36, "cooldown_update", "cannot_supply"), (40, "issue", "resolved")]
    updates = [e["payload"] for e in events if e["agent"] == "a0" and e["kind"] == "cooldown_update"]
    assert updates[1] == {"issue": "dependency_block", "level": 0, "consecutive_failures": 0,
                          "expires_at": 0, "cause": "fulfilled"}
    assert [u["consecutive_failures"] for u in updates] == [1, 0, 1, 2]
    places = [e["payload"]["action"]["node_id"] for e in events if e["kind"] == "action"
              and e["payload"]["action"]["kind"] == "place"]
    [resolved] = [e["payload"] for e in events if e["agent"] == "a0" and e["kind"] == "issue"
                  and e["payload"]["event"] == "resolved"]
    assert places == [3, 2, 1] and resolved["via"] == "blocker_placed"


def test_via_names_what_cleared_each_issue(dataset):
    """a1 never answers. a0's dependency block ends when a1 places node 2
    (`blocker_placed`), and its next issue, whose window times out, when a0
    collects the planks itself (`local`), although both opened a window. A
    class-B issue ends when the teammate's transfer arrives (`transfer`).
    `lrr` counts the `local` ones."""
    spec = dependency_block_spec()
    spec.responder_script = {"a1": ["silent"] * 3}
    trace = run_episode(spec, RunConfig())
    resolved = [(e["step"], e["agent"], e["payload"]["windows"], e["payload"]["via"])
                for e in trace.events if e["kind"] == "issue" and e["payload"]["event"] == "resolved"]
    assert resolved == [(4, "a1", 1, "local"), (6, "a0", 1, "blocker_placed"), (41, "a0", 1, "local")]
    assert compute_metrics(trace).lrr == pytest.approx(2 / 3)
    b = next(e for e in dataset[1] if e.class_label == "B")
    trace = run_episode(b, RunConfig())
    resolved = [e["payload"]["via"] for e in trace.events
                if e["kind"] == "issue" and e["payload"]["event"] == "resolved"]
    assert resolved == ["transfer"] and compute_metrics(trace).lrr == 0.0


def test_cached_views_follow_teammates_drained_sources_and_transfers(monkeypatch):
    """The three changes a stale view cache gets wrong. a1 starts out of
    a0's sight, walks over to hand a0 its iron ingot (a transfer into a0's
    inventory), collects sandstone from the source both of them see, and
    walks back out of sight to place it. Every view equals a fresh
    `observe` and every `obs_digest` its digest (`run_checking_views`)."""
    spec = hand_built_spec(
        agents={"a0": [0, 0, 0], "a1": [60, 0, 0]},
        blocks=[[0, "iron_ingot", [1, 0, 1]], [1, "sandstone", [60, 0, 1]]],
        assigned={"a0": [0], "a1": [1]}, partition={"iron_ingot": "a1"}, script={},
        sources=[["sandstone", [31, 0, 0], 2]], inventories={"a1": {"iron_ingot": 1}},
    )
    # every issue escalates, so a0 asks a1 for the ingot before a1 is in sight
    config = RunConfig(tiers=0, window_timeout=40)
    run, views = run_checking_views(spec, config, monkeypatch)
    events = run.trace.events
    assert events[-1]["payload"]["completion"] == 1.0
    a0_views = [v for v in views if v.agent_id == "a0"]
    in_sight = [v.sim_time for v in a0_views if "a1" in v.teammates]
    assert a0_views[0].sim_time < in_sight[0] and in_sight[-1] < a0_views[-1].sim_time
    transfer = next(e["step"] for e in events if e["kind"] == "action"
                    and e["payload"]["action"]["kind"] == "transfer"
                    and e["payload"]["outcome"]["status"] == "success")
    around_transfer = [v for v in a0_views if v.sim_time in (transfer - 1, transfer + 1)]
    assert [v.inventory.count("iron_ingot") for v in around_transfer] == [0, 1]
    drained = next(e["step"] for e in events if e["kind"] == "action"
                   and e["payload"]["outcome"].get("deltas", {}).get("source") == {"0": -1})
    assert any(v.sim_time > drained and v.sources and v.sources[0][0] == 0 for v in a0_views)


def test_a_requester_has_at_most_one_window_open():
    """The board keys open windows by requester, so opening a second for
    the same requester is refused, and the first stays open as it was. A
    window closing frees its requester to open the next, which goes after
    the other requesters' open windows: the board keeps opening order."""
    ep = agent.EpisodeRuntime(dependency_block_spec(), RunConfig())
    request = ep.new_window("missing_material", "a0", "a1", "oak_planks", 1)
    first = ep.windows["a0"]
    assert request.sender == "a0" and request in first.messages
    with pytest.raises(ValueError, match="a0 already has window 0 open"):
        ep.new_window("missing_material", "a0", "a1", "oak_planks", 2)
    assert ep.windows == {"a0": first} and first.count == 1
    assert [e["payload"]["event"] for e in ep.trace.events] == ["opened"]

    ep.new_window("dependency_block", "a1", "a0", "oak_planks", 1)
    del ep.windows["a0"]
    ep.new_window("missing_material", "a0", "a1", "oak_planks", 1)
    assert [(a, w.window_id) for a, w in ep.windows.items()] == [("a1", 1), ("a0", 2)]
