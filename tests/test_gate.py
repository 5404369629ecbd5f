import contextlib
import json
import re
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from gatecraft import (
    IssueType,
    PrivateState,
    extract_features,
    gate_decide,
    observe,
    tier1_rules,
)
from gatecraft.gate import (
    MAX_REPLY_BYTES,
    AdjudicatorUnavailable,
    FeatureVector,
    GateThresholds,
    GateWeights,
    MockAdjudicator,
    RemoteAdjudicator,
    ScriptedAdjudicator,
    escalation_score,
    normalize_score,
    parse_adjudicator_reply,
    score_bounds,
    teammate_resources,
    validate_weights,
)
from gatecraft.memory import BlockageRecord
from gatecraft.protocol import TeamPublicView

from conftest import make_world, plan_for

W_STAR = GateWeights()  # (4, 2, 2, 2, 1)
MISSING = BlockageRecord(issue=IssueType.MISSING_MATERIAL, node_id=0, item="glass", count=1)


def fv(c, r, i, l, h):
    return FeatureVector(C=c, R=r, I=i, L=l, H=h)


# -- scoring oracles -----------------------------------------------------------
# hand-computed: raw = 4C + 2R + 2I - 2L - H, bounds (-9, 24), norm (raw+9)/33


def test_score_known_values():
    assert escalation_score(fv(3, 2, 3, 0, 0), W_STAR) == 22
    assert escalation_score(fv(0, 0, 0, 3, 0), W_STAR) == -6
    assert escalation_score(fv(1, 1, 1, 2, 0), W_STAR) == 4
    assert escalation_score(fv(0, 3, 1, 1, 0), W_STAR) == 6


def test_score_bounds_default_weights():
    assert score_bounds(W_STAR) == (-9, 24)


def test_normalize_known_values():
    assert normalize_score(5, W_STAR) == 14 / 33
    assert normalize_score(-9, W_STAR) == 0.0
    assert normalize_score(24, W_STAR) == 1.0


def test_feature_vector_rejects_out_of_range():
    with pytest.raises(ValueError):
        fv(4, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        fv(0, 0, 0, -1, 0)


def test_weight_validation_envelope():
    ok, _ = validate_weights(W_STAR)
    assert ok
    ok, problems = validate_weights(GateWeights.from_sequence([4, 2, 2, 0, 1]))
    assert not ok and problems  # wL below wH
    ok, _ = validate_weights(GateWeights.from_sequence([1, 1, 1, 1, 1]))
    assert not ok  # flat hierarchy
    ok, _ = validate_weights(GateWeights.from_sequence([4, 3, 1, 2, 0]))
    assert not ok  # |wR - wI| spread too wide


def test_thresholds_ordering_enforced():
    with pytest.raises(ValueError):
        GateThresholds(0.6, 0.4)
    assert GateThresholds(0.4, 0.5).midpoint == pytest.approx(0.45)


# -- tier-1 rules ------------------------------------------------------------------


def test_rule0_trivially_local():
    assert tier1_rules(IssueType.MISSING_MATERIAL, fv(1, 0, 0, 3, 0)) == ("stay_local", 0)
    assert tier1_rules(IssueType.MISSING_MATERIAL, fv(2, 0, 0, 3, 0)) is None  # C too high


def test_rule1_critical_dead_end():
    assert tier1_rules(IssueType.MISSING_MATERIAL, fv(3, 0, 3, 0, 0)) == ("escalate", 1)
    assert tier1_rules(IssueType.MISSING_MATERIAL, fv(3, 0, 3, 0, 1)) is None  # dirty history


def test_rule2_transfer_shaped():
    assert tier1_rules(IssueType.TRANSFER_NEEDED, fv(2, 2, 1, 0, 1)) == ("escalate", 2)
    assert tier1_rules(IssueType.MISSING_MATERIAL, fv(2, 2, 1, 0, 1)) is None  # wrong issue
    assert tier1_rules(IssueType.TRANSFER_NEEDED, fv(2, 2, 1, 0, 2)) is None  # H too high


# -- gate_decide routing ---------------------------------------------------------


def test_gate_rule_tier_short_circuits():
    d = gate_decide(MISSING, fv(0, 0, 0, 3, 0), W_STAR, GateThresholds())
    assert d.verdict == "stay_local" and d.tier == "rule" and d.rule_index == 0


def test_gate_score_tier_boundaries():
    th = GateThresholds(0.4, 0.5)
    # raw 4 -> norm 13/33 ~ 0.394 <= t_low
    d = gate_decide(MISSING, fv(1, 1, 1, 2, 0), W_STAR, th)
    assert d.verdict == "stay_local" and d.tier == "score"
    # raw 10 -> norm 19/33 ~ 0.576 >= t_high
    d = gate_decide(MISSING, fv(2, 1, 1, 1, 1), W_STAR, th)
    assert d.verdict == "escalate" and d.tier == "score"


def test_gate_gray_zone_without_adjudicator_stays_local():
    th = GateThresholds(0.4, 0.5)
    # raw 6 -> norm 15/33 ~ 0.4545, strictly inside the gray zone
    d = gate_decide(MISSING, fv(0, 3, 1, 1, 0), W_STAR, th,
                    adjudicator=None)
    assert d.verdict == "stay_local" and d.tier == "score"


def test_gate_gray_zone_consults_adjudicator_once():
    th = GateThresholds(0.4, 0.5)
    mock = MockAdjudicator(th)
    d = gate_decide(MISSING, fv(0, 3, 1, 1, 0), W_STAR, th,
                    adjudicator=mock)
    # 0.4545 >= midpoint 0.45 -> escalate
    assert d.verdict == "escalate" and d.tier == "adjudicator" and d.adjudicator_ok
    assert d.adjudicator_request and d.adjudicator_reply
    card = json.loads(d.adjudicator_request)
    assert card["score_norm"] == pytest.approx(15 / 33)


def test_gate_score_disabled_escalates_residue():
    d = gate_decide(MISSING, fv(1, 1, 1, 2, 0), W_STAR,
                    GateThresholds(), tiers=1)
    assert d.verdict == "escalate" and d.tier == "rule" and d.rule_index is None


def test_gate_adjudicator_failure_is_conservative():
    th = GateThresholds(0.4, 0.5)
    exhausted = ScriptedAdjudicator([])
    d = gate_decide(MISSING, fv(0, 3, 1, 1, 0), W_STAR, th,
                    adjudicator=exhausted)
    assert d.verdict == "stay_local" and d.tier == "adjudicator"
    assert not d.adjudicator_ok and d.adjudicator_reply is None


def test_gate_dead_endpoint_is_conservative():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    dead = RemoteAdjudicator(f"http://127.0.0.1:{port}/adjudicate", timeout=1.0)
    d = gate_decide(MISSING, fv(0, 3, 1, 1, 0), W_STAR,
                    GateThresholds(0.4, 0.5), adjudicator=dead)
    assert d.verdict == "stay_local" and d.tier == "adjudicator"
    assert d.adjudicator_ok is False and d.adjudicator_reply is None


@contextlib.contextmanager
def _padded_reply_endpoint(size: int):
    """A loopback adjudicator URL whose valid escalate reply is padded to `size` bytes."""
    body = json.dumps({"decision": "escalate", "confidence": 0.9}).encode()
    body += b" " * (size - len(body))

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            self.rfile.read(int(self.headers.get("Content-Length", 0)))
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):  # keep pytest output clean
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}/adjudicate"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.mark.parametrize("size, verdict", [(MAX_REPLY_BYTES, "escalate"), (MAX_REPLY_BYTES + 1, "stay_local")])
def test_gate_oversized_reply_is_conservative(size, verdict):
    with _padded_reply_endpoint(size) as url:
        d = gate_decide(MISSING, fv(0, 3, 1, 1, 0), W_STAR,
                        GateThresholds(0.4, 0.5), adjudicator=RemoteAdjudicator(url))
    assert d.verdict == verdict and d.tier == "adjudicator"
    assert d.adjudicator_ok is (verdict == "escalate")
    if verdict == "stay_local":
        assert d.adjudicator_reply is None


def test_remote_oversized_reply_names_url_and_limit():
    with _padded_reply_endpoint(MAX_REPLY_BYTES + 1) as url:
        message = f"{url}: reply longer than {MAX_REPLY_BYTES} bytes"
        with pytest.raises(AdjudicatorUnavailable, match=re.escape(message)):
            RemoteAdjudicator(url).adjudicate(b"{}")


def test_gate_backend_bug_propagates():
    class Broken:
        def adjudicate(self, request):
            return {}["decision"]

    with pytest.raises(KeyError):
        gate_decide(MISSING, fv(0, 3, 1, 1, 0), W_STAR,
                    GateThresholds(0.4, 0.5), adjudicator=Broken())


def test_gate_malformed_reply_is_conservative():
    th = GateThresholds(0.4, 0.5)
    bad = ScriptedAdjudicator(["not json", json.dumps({"decision": "maybe", "confidence": 0.5})])
    d = gate_decide(MISSING, fv(0, 3, 1, 1, 0), W_STAR, th, adjudicator=bad)
    assert d.verdict == "stay_local" and not d.adjudicator_ok
    d = gate_decide(MISSING, fv(0, 3, 1, 1, 0), W_STAR, th, adjudicator=bad)
    assert d.verdict == "stay_local" and not d.adjudicator_ok  # bad decision label


def test_non_finite_or_repeated_reply_fields_are_malformed():
    """NaN and Infinity are no JSON numbers, 1e999 reads as infinity, and a
    repeated key is not the exact {decision, confidence} schema: each takes
    the stay_local fallback. A valid reply still passes."""
    th = GateThresholds(0.4, 0.5)
    replies = [
        '{"decision":"escalate","confidence":NaN}',
        '{"decision":"escalate","confidence":Infinity}',
        '{"decision":"escalate","confidence":-Infinity}',
        '{"decision":"escalate","confidence":1e999}',
        '{"decision":"stay_local","decision":"escalate","confidence":0.9}',
        '{"decision":"escalate","confidence":0.9,"confidence":0.8}',
        '{"decision":"escalate","confidence":9' + "9" * 5000 + '}',  # past int's digit limit
        '{"decision":"escalate","confidence":0.9}',
    ]
    backend = ScriptedAdjudicator(replies)
    decisions = [gate_decide(MISSING, fv(0, 3, 1, 1, 0), W_STAR, th, adjudicator=backend)
                 for _ in replies]
    assert [(d.verdict, d.confidence, d.adjudicator_ok) for d in decisions] == \
        [("stay_local", 0.0, False)] * 7 + [("escalate", 0.9, True)]
    # an integer too large for a float clamps like any other
    assert parse_adjudicator_reply('{"decision":"escalate","confidence":1' + "0" * 400 + '}') \
        == ("escalate", 1.0)


def test_parse_reply_schema_is_exact():
    assert parse_adjudicator_reply(json.dumps({"decision": "escalate", "confidence": 0.5})) \
        == ("escalate", 0.5)
    assert parse_adjudicator_reply(json.dumps({"decision": "escalate"})) is None
    assert parse_adjudicator_reply(
        json.dumps({"decision": "escalate", "confidence": 0.5, "extra": 1})) is None
    # out-of-range confidence clamps rather than rejects
    assert parse_adjudicator_reply(json.dumps({"decision": "escalate", "confidence": 1.5})) \
        == ("escalate", 1.0)
    assert parse_adjudicator_reply(b"\xff\xfe") is None


def test_mock_adjudicator_midpoint_policy():
    mock = MockAdjudicator(GateThresholds(0.4, 0.5))

    def ask(norm):
        reply = mock.adjudicate(json.dumps({"score_norm": norm}).encode())
        return json.loads(reply)

    assert ask(0.46)["decision"] == "escalate"
    assert ask(0.44)["decision"] == "stay_local"
    assert ask(0.45)["decision"] == "escalate"  # midpoint inclusive
    assert ask(0.50)["confidence"] == pytest.approx(1.0)


def test_scripted_adjudicator_replays_in_order_then_raises():
    s = ScriptedAdjudicator([{"decision": "escalate", "confidence": 1.0}, "raw"])
    assert json.loads(s.adjudicate(b"{}"))["decision"] == "escalate"
    assert s.adjudicate(b"{}") == b"raw"
    with pytest.raises(RuntimeError):
        s.adjudicate(b"{}")


# -- feature extraction on a live view ----------------------------------------------


def _featurize(world, plan, agent_id="a0", failures=()):
    """Features of the detected issue after its windows closed as
    `failures`: (refused, time) pairs, each with a 30-step cooldown."""
    from gatecraft import detect_issue

    view = observe(world, agent_id, plan=plan)
    state = PrivateState(agent_id=agent_id, inventory=view.inventory)
    issue = detect_issue(state, view, world.graph, world.recipes)
    assert issue is not None
    for refused, now in failures:
        issue.register_failure(refused, now, duration=30)
    R = teammate_resources(view, TeamPublicView(), world.recipes, issue)
    return extract_features(view, world.graph, state, R, world.recipes, blockage=issue)


def test_features_local_pickup_scores_l3():
    world = make_world(
        [(0, (0, 0, 1), "sandstone")],
        sources=[("sandstone", (6, 0, 0), 4)],
    )
    vec, plan_found = _featurize(world, plan_for(world))
    assert vec.L == 3 and vec.R == 0 and vec.H == 0
    assert plan_found is not None and plan_found.steps[0].op == "collect"


def test_features_teammate_holder_scores_r2():
    world = make_world(
        [(0, (0, 0, 1), "iron_ingot")],
        agents={"a0": ((0, 0, 0), {}), "a1": ((12, 0, 0), {"iron_ingot": 1})},
    )
    plan = plan_for(world, assignments={0: "a0"}, partition={"iron_ingot": "a1"})
    vec, plan_found = _featurize(world, plan)
    assert vec.R == 2  # viable but not immediate (distance 12 >= 10)
    assert vec.L == 0 and plan_found is None


def test_features_history_tracks_cooldown_level():
    world = make_world(
        [(0, (0, 0, 1), "iron_ingot")],
        agents={"a0": ((0, 0, 0), {}), "a1": ((12, 0, 0), {"iron_ingot": 1})},
    )
    plan = plan_for(world, assignments={0: "a0"}, partition={"iron_ingot": "a1"})
    vec, _ = _featurize(world, plan, failures=[(True, 0)])
    assert vec.H == 3  # explicit refusal jumps the cooldown to its ceiling
