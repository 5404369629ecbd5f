import pytest

from gatecraft import RunConfig, Trace, run_episode
from gatecraft.gate import GateThresholds, GateWeights, ScriptedAdjudicator


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
    t.emit(0, "a0", "action", {"action": {"kind": "idle"}})
    t.emit(1, "", "episode_end", {"completion": 1.0})
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
