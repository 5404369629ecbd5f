"""Metric counting, aggregation, template splits and calibration."""

import csv
import io
import json

import pytest

from gatecraft import (
    AdjudicatorUnavailable,
    CalibrationConfig,
    GateThresholds,
    GateWeights,
    MockAdjudicator,
    RunConfig,
    ScriptedAdjudicator,
    Trace,
    aggregate,
    calibrate,
    compute_metrics,
    run_episode,
    split_templates,
)
from gatecraft import harness
from gatecraft.harness import (
    adjudicator_replies,
    make_backend,
    metrics_to_csv,
    replay_local_feasibility,
    run_config_suite,
    run_configs,
)
from gatecraft.cli import ABLATION_VARIANTS

from conftest import record_pool_sizes
from random_specs import RANDOM_SPEC_COUNT, random_config, random_spec


def _trace(events):
    t = Trace()
    for step, agent, kind, payload in events:
        t.emit(step, agent, kind, payload)
    return t


def _end(step=40, completion=1.0, reason="completed"):
    return (
        step,
        "system",
        "episode_end",
        {
            "episode_id": "ep",
            "class_label": "B",
            "reason": reason,
            "completion": completion,
            "rounds": step,
            "config": {},
        },
    )


# A solver context with a trivially cheap local plan: the agent stands on a
# sandstone source, so replay finds a collect plan with cost ~ need.
CHEAP_CTX = {
    "position": [0, 0, 0],
    "inventory": {},
    "sources": [[0, "sandstone", [0, 0, 1], 10]],
    "chests": [],
    "stations": [],
    "recipes": [],
    "item": "sandstone",
    "count": 1,
    "issue": "missing_material",
    "node_id": 0,
    "params": {"interaction_radius": 3.0, "speed": 5.0, "far_threshold": 40.0},
}

# Same shape but nothing within reach: replay yields no plan at all.
BARE_CTX = dict(CHEAP_CTX, sources=[], item="iron_ingot")


def test_replay_feasibility_oracles():
    plan = replay_local_feasibility(CHEAP_CTX)
    assert plan is not None and plan.total_cost <= 30
    assert replay_local_feasibility(BARE_CTX) is None


def test_replay_rejects_a_count_below_one():
    with pytest.raises(ValueError, match="solver_ctx.count = 0"):
        replay_local_feasibility(dict(CHEAP_CTX, count=0))


@pytest.mark.parametrize("field, value, problem", [
    ("position", [0, 0], "solver_ctx.position [0, 0] is not three integers"),
    ("inventory", {"x": "lots"}, "solver_ctx.inventory.x 'lots' is not an integer >= 0"),
    ("sources", [[0, "sand"]],
     "solver_ctx.sources[0] [0, 'sand'] is not [index, item, position, remaining]"),
    ("issue", "nonsense", "solver_ctx.issue 'nonsense' is not one of missing_material, "
                          "dependency_block, transfer_needed"),
    ("item", None, "solver_ctx.item is missing"),
    ("position", None, "solver_ctx.position is missing"),
    ("recipes", [{"kind": "craft"}],
     "solver_ctx.recipes[0] {'kind': 'craft'} has no field 'recipe_id'"),
], ids=["position", "inventory", "sources", "issue", "no-item", "no-position", "recipe"])
def test_replay_names_the_solver_ctx_field_it_cannot_replay(field, value, problem):
    """A recorded context the planner cannot replay raises ValueError
    naming the field; a `value` of None leaves the field out. CHEAP_CTX has
    a source in view, so a short position would otherwise fail inside the
    planner."""
    ctx = {k: v for k, v in CHEAP_CTX.items() if k != field}
    if value is not None:
        ctx[field] = value
    with pytest.raises(ValueError) as raised:
        replay_local_feasibility(ctx)
    assert str(raised.value) == problem


def test_replay_rejects_other_physics():
    # the planner's physics are fixed; a context recorded under other physics
    # cannot be replanned faithfully, so it is refused, naming the field
    with pytest.raises(ValueError, match="far_threshold"):
        replay_local_feasibility(dict(CHEAP_CTX, params={"far_threshold": 10}))
    # absent keys read as the fixed values
    without = {k: v for k, v in CHEAP_CTX.items() if k != "params"}
    assert replay_local_feasibility(without) == replay_local_feasibility(CHEAP_CTX)


def test_compute_metrics_counts_synthetic_trace():
    gate_escalate = {
        "issue": "missing_material",
        "node_id": 0,
        "verdict": "escalate",
        "tier": "adjudicator",
        "score_raw": 6,
        "score_norm": 15 / 33,
        "rule_index": None,
        "confidence": 0.4,
        "adjudicator_ok": True,
        "adjudicator_request": "x" * 40,
        "adjudicator_reply": "y" * 24,
        "solver_ctx": CHEAP_CTX,
        "local_plan_cost": 1,
    }
    gate_stay = {
        "issue": "missing_material",
        "node_id": 2,
        "verdict": "stay_local",
        "tier": "rule",
        "score_raw": 0,
        "score_norm": 0.3,
        "rule_index": 0,
        "confidence": None,
        "adjudicator_ok": None,
    }
    window = {
        "window_id": "w0",
        "requester": "a0",
        "responder": "a1",
        "item": "sandstone",
        "count": 1,
        "state": "open",
        "opened_at": 3,
        "deadline": 23,
    }
    events = [
        (0, "a0", "action", {"action": {"kind": "move"}}),
        (0, "a1", "action", {"action": {"kind": "idle"}}),
        (1, "a0", "action", {"action": {"kind": "place"}}),
        (1, "a0", "issue", {"event": "detected", "issue": "missing_material"}),
        (2, "a0", "gate_decision", gate_escalate),
        (3, "a0", "window_state", dict(window, event="opened")),
        (3, "a0", "coordination_message", {"protocol": "REQUEST_MATERIAL"}),
        (4, "a1", "coordination_message", {"protocol": "OFFER_TRANSFER"}),
        (5, "a0", "coordination_message", {"protocol": "CONFIRM_TRANSFER"}),
        (6, "a1", "action", {"action": {"kind": "transfer"}}),
        (
            7,
            "a0",
            "window_state",
            dict(window, event="closed", state="fulfilled"),
        ),
        (
            8,
            "a0",
            "issue",
            {
                "event": "resolved",
                "issue": "missing_material",
                "via": "transfer",
                "windows": 1,
                "recovery_activated": False,
                "duration": 7,
            },
        ),
        (9, "a0", "gate_decision", gate_stay),
        (
            12,
            "a0",
            "issue",
            {
                "event": "resolved",
                "issue": "missing_material",
                "via": "local",
                "windows": 0,
                "recovery_activated": False,
                "duration": 3,
            },
        ),
        (13, "a0", "action", {"action": {"kind": "craft"}}),
        (14, "a0", "action", {"action": {"kind": "send_message"}}),  # not an env interaction
        _end(),
    ]
    m = compute_metrics(_trace(events))
    assert m.episode_id == "ep" and m.class_label == "B"
    assert m.tsr == 1.0
    # move, place, transfer, craft count; idle and send_message do not
    assert m.cs == 4
    assert m.msg == 3
    assert m.escalations == 1
    assert m.adjudicator_calls == 1
    assert m.token_cost == pytest.approx((40 + 24) / 4)
    assert m.windows_opened == 1 and m.windows_fulfilled == 1
    assert m.issues_resolved == 2 and m.issues_abandoned == 0
    # one local resolution out of two issues
    assert m.lrr == pytest.approx(0.5)
    # the lone escalation had a cheap local plan available -> unnecessary
    assert m.uer == pytest.approx(1.0)
    # one coordination episode (windows>0), resolved
    assert m.ecr == pytest.approx(1.0)
    assert m.rsr == pytest.approx(1.0)
    assert m.recovery_time_avg == pytest.approx((7 + 3) / 2)


def test_uer_zero_when_no_local_alternative():
    gate = {
        "issue": "transfer_needed",
        "node_id": 0,
        "verdict": "escalate",
        "tier": "score",
        "score_raw": 10,
        "score_norm": 19 / 33,
        "rule_index": None,
        "confidence": None,
        "adjudicator_ok": None,
        "solver_ctx": BARE_CTX,
        "local_plan_cost": None,
    }
    m = compute_metrics(_trace([(0, "a0", "gate_decision", gate), _end()]))
    assert m.escalations == 1 and m.uer == 0.0


def test_compute_metrics_requires_episode_end():
    with pytest.raises(ValueError):
        compute_metrics(_trace([(0, "a0", "action", {"action": {"kind": "idle"}})]))


@pytest.mark.parametrize("event, problem", [
    ([1], "is not an object with step, agent, kind and payload"),
    ({"kind": "issue"}, "is not an object with step, agent, kind and payload"),
    ({"step": 0, "agent": "a0", "kind": "issue", "payload": [1]}, "has a payload that is not an object"),
], ids=["list", "no-payload", "list-payload"])
def test_compute_metrics_names_a_hand_built_event_that_is_not_one(event, problem):
    """A trace built in memory skips `Trace.from_jsonl`'s check; the count
    names the event it trips on with that check's message."""
    with pytest.raises(ValueError) as raised:
        compute_metrics(Trace(events=[event]))
    assert str(raised.value) == f"event 1 {problem}"


def test_ratios_none_when_undefined():
    m = compute_metrics(_trace([_end(completion=0.0, reason="budget")]))
    assert m.tsr == 0.0
    assert m.lrr is None and m.uer is None and m.ecr is None and m.rsr is None
    assert m.recovery_time_avg is None


def test_aggregate_skips_none_ratios_and_rejects_empty():
    a = compute_metrics(_trace([_end()]))
    trace_b = _trace(
        [
            (
                1,
                "a0",
                "issue",
                {
                    "event": "resolved",
                    "issue": "missing_material",
                    "via": "local",
                    "windows": 0,
                    "recovery_activated": False,
                    "duration": 2,
                },
            ),
            _end(),
        ]
    )
    b = compute_metrics(trace_b)
    agg = aggregate([a, b])
    assert agg["n"] == 2
    assert agg["tsr"] == 1.0
    # only b defines lrr; the mean ignores a rather than treating it as zero
    assert agg["lrr"] == pytest.approx(1.0)
    assert "per_class" in agg and agg["per_class"]["B"]["n"] == 2
    with pytest.raises(ValueError):
        aggregate([])


def test_aggregate_sums_from_left_to_right():
    """Each 1e-16 added to 1.0 rounds back to 1.0, as it did under `sum()`
    before Python 3.12; 3.12's compensated `sum()` would give
    1.000000000000001, and the pinned means would move with the interpreter."""
    metrics = [compute_metrics(_trace([_end(completion=c)])) for c in [1.0] + [1e-16] * 10]
    agg = aggregate(metrics)
    assert agg["tsr"] == agg["per_class"]["B"]["tsr"] == 1.0 / 11


def test_metrics_csv_layout():
    m = compute_metrics(_trace([_end()]))
    text = metrics_to_csv([m])
    lines = text.strip().splitlines()
    assert lines[0].startswith("episode_id,class_label,tsr,cs,msg")
    ids = [ln.split(",")[0] for ln in lines[1:]]
    assert ids == ["ep", "ALL", "CLASS_B"]


def test_metrics_csv_quotes_a_comma_and_ends_lines_in_newline():
    m = compute_metrics(_trace([_end()]))
    m.episode_id = "ep,1"
    text = metrics_to_csv([m])
    assert "\r" not in text and text.endswith("\n")
    rows = list(csv.DictReader(io.StringIO(text)))
    assert [r["episode_id"] for r in rows] == ["ep,1", "ALL", "CLASS_B"]
    assert rows[0]["lrr"] == "" and float(rows[1]["tsr"]) == 1.0


def test_split_templates_keeps_seeds_together(dataset):
    _, episodes = dataset
    split = split_templates(episodes, 0.5, seed=7)
    calib, test = set(split["calib"]), set(split["test"])
    assert calib and test and not (calib & test)
    by_template = {}
    for ep in episodes:
        by_template.setdefault(ep.template_id, set()).add(ep.template_id in calib)
    # no template's five seeds straddle the split: membership is by template id
    assert all(len(v) == 1 for v in by_template.values())
    assert calib | test == set(by_template)
    # deterministic under the same seed, different under another
    assert split == split_templates(episodes, 0.5, seed=7)
    assert split != split_templates(episodes, 0.5, seed=8)


def test_split_templates_stratifies(dataset):
    _, episodes = dataset
    split = split_templates(episodes, 0.5, seed=1)
    calib = set(split["calib"])
    strata = {}
    for ep in episodes:
        key = (ep.class_label, ep.meta["agent_count"])
        strata.setdefault(key, set()).add(ep.template_id)
    for key, tids in strata.items():
        took = len(tids & calib)
        assert took == round(0.5 * len(tids)), key


def test_split_templates_rejects_bad_fractions(dataset):
    _, episodes = dataset
    for frac in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            split_templates(episodes, frac)


def test_calibration_config_validation():
    good_w = [(4, 2, 2, 2, 1)]
    good_t = [(0.4, 0.5)]
    CalibrationConfig(weight_grid=good_w, threshold_grid=good_t)
    with pytest.raises(ValueError):
        CalibrationConfig(weight_grid=[], threshold_grid=good_t)
    with pytest.raises(ValueError):
        CalibrationConfig(weight_grid=[(1, 1, 1, 1, 1)], threshold_grid=good_t)
    with pytest.raises(ValueError):
        CalibrationConfig(weight_grid=good_w, threshold_grid=[(0.6, 0.4)])
    with pytest.raises(ValueError):
        CalibrationConfig(weight_grid=good_w, threshold_grid=good_t, lam_time=-1)


def test_calibrate_singleton_grid(dataset):
    _, episodes = dataset
    subset = episodes[:4]
    cfg = CalibrationConfig(weight_grid=[(4, 2, 2, 2, 1)], threshold_grid=[(0.4, 0.5)])
    best, rows, _ = calibrate(subset, cfg)
    assert tuple(best["weights"]) == (4, 2, 2, 2, 1)
    assert tuple(best["thresholds"]) == (0.4, 0.5)
    assert len(rows) == 1
    row = rows[0]
    # with a single cell every normalizer is that cell's own value, so each
    # cost term contributes exactly lam (or nothing if the raw cost is zero)
    expected = row["tsr"]
    for term, lam in (("c_time", 0.1), ("c_redundant", 0.2), ("c_llm", 0.05)):
        expected -= lam if row[term] > 0 else 0.0
    assert row["objective"] == pytest.approx(expected)


def test_calibrate_matches_brute_force(dataset):
    _, episodes = dataset
    subset = episodes[:6]
    cfg = CalibrationConfig(
        weight_grid=[(4, 2, 2, 2, 1), (3, 2, 2, 2, 1)],
        threshold_grid=[(0.4, 0.5), (0.45, 0.45)],
    )
    best, rows, _ = calibrate(subset, cfg)
    assert len(rows) == 4
    max_time = max(r["c_time"] for r in rows)
    max_red = max(r["c_redundant"] for r in rows)
    max_llm = max(r["c_llm"] for r in rows)

    def objective(r):
        total = r["tsr"]
        for term, mx, lam in (
            ("c_time", max_time, cfg.lam_time),
            ("c_redundant", max_red, cfg.lam_redundant),
            ("c_llm", max_llm, cfg.lam_llm),
        ):
            total -= lam * (r[term] / mx if mx > 0 else 0.0)
        return total

    recomputed = {(tuple(r["weights"]), tuple(r["thresholds"])): objective(r) for r in rows}
    stored = {(tuple(r["weights"]), tuple(r["thresholds"])): r["objective"] for r in rows}
    assert recomputed == stored
    top = max(stored.values())
    winners = sorted(k for k, v in stored.items() if v == top)
    assert (tuple(best["weights"]), tuple(best["thresholds"])) == winners[0]


def test_calibrate_parallel_matches_serial(dataset):
    _, episodes = dataset
    subset = episodes[::50]  # one template of each class
    cfg = CalibrationConfig(
        weight_grid=[(4, 2, 2, 2, 1), (3, 2, 2, 2, 1)],
        threshold_grid=[(0.4, 0.5), (0.45, 0.45)],
    )
    assert calibrate(subset, cfg, jobs=2) == calibrate(subset, cfg, jobs=1)


def test_run_configs_matches_one_run_per_config(dataset):
    """The six ablation variants span both partition settings, all-off and
    partial tier sets: shared simulation must change no metric."""
    _, episodes = dataset
    configs = [RunConfig(**o) for _, o in ABLATION_VARIANTS]
    simulated_total = 0
    for spec in episodes[::25]:
        metrics, simulated = run_configs(spec, configs)
        assert metrics == [compute_metrics(run_episode(spec, c)) for c in configs]
        # one simulation serves both partition settings; class A's gated
        # variants keep its issue local where the ungated ones escalate
        assert simulated == [False] * (2 if spec.class_label == "A" else 1)
        simulated_total += len(simulated)
    assert simulated_total < len(configs) * len(episodes[::25])


def test_run_configs_counts_metrics_without_replaying(dataset, monkeypatch):
    """Metrics count the plan cost each escalation recorded: re-gated runs
    give the metrics fresh runs give, and no solver context is replayed."""
    _, episodes = dataset
    configs = [RunConfig(**o) for _, o in ABLATION_VARIANTS]
    replayed = []
    monkeypatch.setattr(harness, "replay_local_feasibility", replayed.append)
    for spec in episodes[::25]:
        metrics, _ = run_configs(spec, configs)
        assert metrics == [compute_metrics(run_episode(spec, c)) for c in configs]
    assert replayed == []


def test_run_config_suite_gives_each_config_its_own_backend(dataset, tmp_path):
    """A scripted backend's replies depend on the call order: each config
    gets its own instance for the whole suite, as if the configs ran one
    after another, and every run is simulated in this process."""
    _, episodes = dataset
    subset = episodes[::25]  # two of each class; each class-C episode calls the adjudicator
    script = tmp_path / "replies.jsonl"
    script.write_text("".join('{"decision": "%s", "confidence": 0.9}\n' % d
                              for d in ["stay_local", "escalate"] * 20))
    name = f"scripted:{script}"
    configs = [RunConfig(**o) for _, o in ABLATION_VARIANTS]
    per_config, flags = run_config_suite(subset, configs, jobs=2, backend=name)
    assert len(flags) == len(configs) * len(subset)
    for config, metrics in zip(configs, per_config):
        backend = make_backend(name)
        assert metrics == [compute_metrics(run_episode(spec, config, backend)) for spec in subset]
    assert per_config[0] != per_config[-1]


def test_run_config_suite_starts_no_more_workers_than_episodes(dataset, monkeypatch):
    _, episodes = dataset
    sizes = record_pool_sizes(monkeypatch)
    configs = [RunConfig()]
    assert run_config_suite(episodes[:3], configs, jobs=64) == run_config_suite(episodes[:3], configs)
    assert sizes == [3]


def test_make_backend_forms(tmp_path):
    assert make_backend(None) is None
    assert make_backend("") is None
    assert make_backend("mock") is None
    script = tmp_path / "replies.txt"
    script.write_text('{"decision": "escalate", "confidence": 0.9}\n\n')
    backend = make_backend(f"scripted:{script}")
    assert isinstance(backend, ScriptedAdjudicator)
    remote = make_backend("remote:http://localhost:1/adjudicate")
    assert remote.__class__.__name__ == "RemoteAdjudicator"
    with pytest.raises(ValueError):
        make_backend("carrier_pigeon")


def test_adjudicator_replies_roundtrip(dataset):
    _, episodes = dataset
    spec = next(e for e in episodes if e.class_label == "C")
    config = RunConfig(
        weights=GateWeights(),
        thresholds=GateThresholds(0.4, 0.5),
    )
    trace = run_episode(spec, config)
    replies = adjudicator_replies(trace)
    assert replies, "a gray-zone episode should consult the adjudicator"
    replay = run_episode(spec, config, backend=ScriptedAdjudicator(replies))
    assert replay.to_jsonl() == trace.to_jsonl()


class _FailsFirstCall:
    """Fails its first call, then answers as the mock does."""

    def __init__(self, config):
        self.mock = MockAdjudicator(config.thresholds)
        self.calls = 0

    def adjudicate(self, request: bytes) -> bytes:
        self.calls += 1
        if self.calls == 1:
            raise AdjudicatorUnavailable("endpoint down")
        return self.mock.adjudicate(request)


def test_a_failed_adjudicator_call_replays_as_a_failure(dataset, tmp_path):
    """A failed call records no reply, and its transcript entry replays it as
    a failure, so each later reply replays at its own call. Every run of
    seed 0 and of `r00`..`r59` (under `RunConfig()`, their drawn configs
    and the wide gray band 0.2-0.8, where the random specs call the
    adjudicator most) replays byte for byte from its transcript file."""
    wide = RunConfig(thresholds=GateThresholds(0.2, 0.8))
    runs = [(spec, RunConfig()) for spec in dataset[1]]
    for i in range(RANDOM_SPEC_COUNT):
        runs += [(random_spec(i), RunConfig()), (random_spec(i), random_config(i)),
                 (random_spec(i), wide)]
    script = tmp_path / "replies.jsonl"
    second_calls = 0
    for spec, config in runs:
        backend = _FailsFirstCall(config)
        trace = run_episode(spec, config, backend)
        replies = adjudicator_replies(trace)
        assert len(replies) == backend.calls and replies[:1] in ([], [None])
        second_calls += backend.calls > 1
        script.write_text("".join(json.dumps(r) + "\n" for r in replies))
        replayed = run_episode(spec, config, make_backend(f"scripted:{script}"))
        assert replayed.to_jsonl() == trace.to_jsonl(), (spec.episode_id, config)
    assert second_calls >= 10  # the runs whose later replies a lost entry would shift


def test_a_scripted_file_keeps_a_reply_text_apart_from_a_failed_call(dataset, tmp_path):
    """In a scripted backend's file, `null` is a failed call and a JSON
    string is a reply's text, even the text `null`, an empty reply or one
    across lines; a bare reply object is itself the reply."""
    entries = ['{"decision": "escalate", "confidence": 0.9}', "null", None, "not json", "", "a\nb"]
    bare = '{"decision": "stay_local", "confidence": 1}'
    script = tmp_path / "replies.jsonl"
    script.write_text("".join(json.dumps(r) + "\n" for r in entries) + "\n" + bare + "\n")
    backend = make_backend(f"scripted:{script}")
    served = []
    for _ in range(len(entries) + 2):
        try:
            served.append(backend.adjudicate(b"{}").decode())
        except AdjudicatorUnavailable:
            served.append(None)
    assert served == [*entries, bare, None]  # then the script is exhausted

    # a reply that is not the schema and a failed call both fail the call;
    # the transcript and the metrics tell them apart by the recorded reply
    spec = next(e for e in dataset[1] if e.class_label == "C")
    for entry in ("null", None):
        trace = run_episode(spec, RunConfig(), ScriptedAdjudicator([entry]))
        assert adjudicator_replies(trace) == [entry]
        metrics = compute_metrics(trace)
        assert metrics.adjudicator_calls == metrics.adjudicator_failures == 1
