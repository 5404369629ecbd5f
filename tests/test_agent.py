import dataclasses

import pytest

from gatecraft import RunConfig, Trace, agent, gate, run_episode
from gatecraft.cli import ABLATION_VARIANTS
from gatecraft.gate import GateThresholds, GateWeights, ScriptedAdjudicator
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


def test_run_config_describe_echoes_settings():
    cfg = RunConfig(thresholds=GateThresholds(0.45, 0.45), step_budget=77)
    desc = cfg.describe()
    assert desc["thresholds"] == [0.45, 0.45]
    assert desc["step_budget"] == 77
    assert desc["weights"] == [4, 2, 2, 2, 1]


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
    cfg = RunConfig(rules_on=False, score_on=False, adjudicator_on=False)
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
    """A set `gate_at` blocks the exit even once it is due: the gate pass it
    triggers has not run yet."""
    spec = _episodes_of_class(dataset, "D", limit=1)[0]
    real = agent._quiescent
    verdicts = []

    def spy(ep, round_start):
        quiet = real(ep, round_start)
        if quiet:
            rt = ep.runtimes["a0"]
            now = ep.world.sim_time
            for due in (0, now - 1, now, now + 1):
                rt.gate_at = due
                verdicts.append(real(ep, round_start))
            rt.gate_at = None
        return quiet

    monkeypatch.setattr(agent, "_quiescent", spy)
    end = run_episode(spec, RunConfig()).events[-1]["payload"]
    assert end["reason"] == "quiescent"
    assert verdicts == [False] * 4


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
    config = RunConfig(rules_on=False, score_on=False, adjudicator_on=False,
                       window_timeout=4, cooldown_duration=0)
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
    in a leftover recovery."""
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


def test_a_dependency_block_resolves_when_the_teammate_places_the_blocker():
    """a0's node 1 waits on a1's node 2; a1 collects cobblestone from its own
    source and places node 2, and a0's next action resolves the block."""
    spec = dependency_block_spec()
    events = run_episode(spec, RunConfig()).events
    placed_2 = next(e["step"] for e in events if e["kind"] == "action" and e["agent"] == "a1"
                    and e["payload"]["action"] == {"kind": "place", "node_id": 2})
    a0_blocks = [(e["step"], e["payload"]["event"]) for e in events if e["kind"] == "issue"
                 and e["agent"] == "a0" and e["payload"]["issue"] == "dependency_block"]
    assert [event for _, event in a0_blocks] == ["detected", "resolved"]
    assert a0_blocks[1][0] > placed_2
    assert events[-1]["payload"]["completion"] == 1.0


def test_each_gate_pass_probes_the_planner_once(dataset, monkeypatch):
    """A material issue's plan probe is the one its features read, whether
    it found a plan or not; any other issue's features probe once. Every
    call is counted, through both names the planner is looked up by."""
    calls = []
    for module in (agent, gate):
        def counted(*args, _real=module.plan_local_recovery, **kwargs):
            calls.append(1)
            return _real(*args, **kwargs)
        monkeypatch.setattr(module, "plan_local_recovery", counted)
    real_route = agent._gate_and_route
    passes = []  # (issue, plan found, planner calls) per gate pass

    def route(ep, rt, view):
        before, known = len(calls), len(ep.gate_passes)
        action = real_route(ep, rt, view)
        if len(ep.gate_passes) > known:
            gp = ep.gate_passes[-1]
            passes.append((gp.blockage.issue.value, gp.plan is not None, len(calls) - before))
        return action

    monkeypatch.setattr(agent, "_gate_and_route", route)
    _, episodes = dataset
    specs = list(episodes) + [dependency_block_spec()]
    for spec in specs:
        run_episode(spec, RunConfig())
    assert passes and {n for _, _, n in passes} == {1}
    kinds = {(issue, found) for issue, found, _ in passes}
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
        config = dataclasses.replace(RunConfig(), **overrides)
        for spec in specs:
            returned.clear()
            events = Trace.from_jsonl(run_episode(spec, config).to_jsonl()).events
            assert not any(e["kind"] == "outcome" for e in events), (name, spec.episode_id)
            rebuilt = [_rebuilt_outcome(e) for e in events if e["kind"] == "action"]
            assert rebuilt == returned, (name, spec.episode_id)
            seen.update(f for o in returned for f in o.__slots__ if getattr(o, f))
    assert seen == set(VerifiedOutcome.__slots__)  # every field was set somewhere


def test_a_delivery_that_leaves_the_blockage_open_regates_at_once():
    """a0's node 1 waits on a1's node 2, which waits on a1's node 3. With
    every tier off, a0 asks a1 for node 2's cobblestone and a1 hands it
    over: the window is fulfilled, but the dependency block stays open
    until node 2 lands, so a0's next step passes the gate again. a1 has no
    stone bricks for node 3, so neither node lands; both agents give their
    nodes up after two refused windows, and every issue ends."""
    spec = hand_built_spec(
        agents={"a0": [0, 0, 0], "a1": [4, 0, 0]},
        blocks=[[1, "oak_planks", [1, 0, 1]], [2, "cobblestone", [3, 0, 1]],
                [3, "stone_bricks", [4, 0, 1]]],
        assigned={"a0": [1], "a1": [2, 3]}, partition={}, script={}, edges=[[3, 2], [2, 1]],
        inventories={"a0": {"oak_planks": 1}, "a1": {"cobblestone": 2}},
    )
    config = RunConfig(rules_on=False, score_on=False, adjudicator_on=False)
    events = run_episode(spec, config).events
    closed = next(i for i, e in enumerate(events)
                  if e["kind"] == "window_state" and e["payload"]["event"] == "closed")
    assert (events[closed]["step"], events[closed]["payload"]["window_id"],
            events[closed]["payload"]["state"]) == (6, 0, "fulfilled")
    a0_issues = [e["payload"] for e in events[:closed] if e["kind"] == "issue"]
    assert [(p["event"], p["issue"]) for p in a0_issues] == [("detected", "dependency_block")]
    a0_next = next(e for e in events[closed + 1:] if e["agent"] == "a0")
    assert (a0_next["kind"], a0_next["step"]) == ("gate_decision", 6)
    issues = [(e["agent"], e["payload"]["event"]) for e in events if e["kind"] == "issue"]
    assert issues == [("a0", "detected"), ("a1", "detected"), ("a0", "abandoned"), ("a1", "abandoned")]
    assert events[-1]["payload"]["reason"] == "quiescent"


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
    config = RunConfig(rules_on=False, score_on=False, adjudicator_on=False, window_timeout=40)
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
