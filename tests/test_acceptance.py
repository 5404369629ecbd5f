"""Release gate: the eight behavioral guarantees this package ships under.

One test per criterion; each line of the -v output is the pass/fail verdict
for that criterion. Shared suite runs are module-scoped fixtures so the whole
gate stays fast.
"""

import itertools
import json
import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from gatecraft import (
    FeatureVector,
    GateThresholds,
    GateWeights,
    RemoteAdjudicator,
    RunConfig,
    ScriptedAdjudicator,
    CalibrationConfig,
    aggregate,
    calibrate,
    compute_metrics,
    escalation_score,
    normalize_score,
    run_episode,
    score_bounds,
    split_templates,
    validate_class_property,
)
from gatecraft.harness import adjudicator_replies

from test_properties import (
    check_inventory_conservation,
    check_message_schema_fuzz,
    check_score_monotonicity,
    check_window_termination,
)

W_STAR = (4, 2, 2, 2, 1)


def _suite(episodes, config):
    t0 = time.perf_counter()
    results = []
    for spec in episodes:
        trace = run_episode(spec, config)
        results.append((spec, trace, compute_metrics(trace)))
    return results, time.perf_counter() - t0


@pytest.fixture(scope="module")
def full_run(dataset):
    _, episodes = dataset
    return _suite(episodes, RunConfig())  # (0.4, 0.5), every tier on


@pytest.fixture(scope="module")
def narrow_band_run(dataset):
    _, episodes = dataset
    return _suite(episodes, RunConfig(thresholds=GateThresholds(0.45, 0.45)))


@pytest.fixture(scope="module")
def rule_only_run(dataset):
    _, episodes = dataset
    return _suite(episodes, RunConfig(tiers=1))


@pytest.fixture(scope="module")
def ungated_run(dataset):
    _, episodes = dataset
    return _suite(episodes, RunConfig(tiers=0))


@pytest.fixture(scope="module")
def no_solvability_run(dataset):
    _, episodes = dataset
    config = RunConfig(weights=GateWeights(4, 2, 2, 0, 1), allow_unvalidated=True)
    return _suite(episodes, config)


@pytest.fixture(scope="module")
def flat_weights_run(dataset):
    _, episodes = dataset
    config = RunConfig(weights=GateWeights(1, 1, 1, 1, 1), allow_unvalidated=True)
    return _suite(episodes, config)


def _agg(results):
    return aggregate([m for _, _, m in results])


def _gate_events(trace):
    return [e["payload"] for e in trace.events if e["kind"] == "gate_decision"]


def test_criterion_1_score_enumeration_exact():
    w = GateWeights(*W_STAR)
    t0 = time.perf_counter()
    raws = [
        escalation_score(FeatureVector(*fv), w)
        for fv in itertools.product(range(4), repeat=5)
    ]
    elapsed = time.perf_counter() - t0
    assert len(raws) == 4**5 == 1024
    assert min(raws) == -9 and max(raws) == 24
    assert score_bounds(w) == (-9, 24)
    norms = [normalize_score(r, w) for r in raws]
    assert all(0.0 <= n <= 1.0 for n in norms)
    assert min(norms) == 0.0 and max(norms) == 1.0  # endpoints attained
    assert elapsed < 1.0


def test_criterion_2_adjudicator_only_in_gray_zone(full_run, narrow_band_run):
    narrow, _ = narrow_band_run
    assert sum(m.adjudicator_calls for _, _, m in narrow) == 0

    full, _ = full_run
    consults = [
        p
        for _, trace, _ in full
        for p in _gate_events(trace)
        if p["tier"] == "adjudicator"
    ]
    assert consults, "the wide band must consult at least once"
    assert all(0.4 < p["score_norm"] < 0.5 for p in consults)


def test_criterion_3_dataset_composition(dataset):
    manifest, episodes = dataset
    assert manifest["total_episodes"] == len(episodes) == 200
    assert manifest["per_class"] == {"A": 50, "B": 50, "C": 50, "D": 50}
    assert manifest["two_agent_episodes"] == 120
    assert manifest["three_agent_episodes"] == 80
    for spec in episodes:
        validate_class_property(spec)  # raises with the reason on any failure


def test_criterion_4_class_behaviors(full_run):
    results, elapsed = full_run
    by_class = {}
    for spec, trace, m in results:
        by_class.setdefault(spec.class_label, []).append((spec, trace, m))

    # A: overwhelmingly local — high local-resolution rate, zero messages
    a = by_class["A"]
    lrrs = [m.lrr for _, _, m in a if m.lrr is not None]
    assert sum(lrrs) / len(lrrs) >= 0.90
    assert sum(1 for _, _, m in a if m.msg == 0) >= 0.90 * len(a)

    # B: the injected bottleneck escalates
    b_hits = 0
    for spec, trace, _ in by_class["B"]:
        node = spec.injected[0]
        if any(
            p["verdict"] == "escalate" and p["node_id"] == node
            for p in _gate_events(trace)
        ):
            b_hits += 1
    assert b_hits >= 0.90 * len(by_class["B"])

    # D: bounded retries under an uncooperative responder, yet some successes
    for spec, trace, m in by_class["D"]:
        opened = {}
        for e in trace.events:
            p = e["payload"]
            if e["kind"] == "window_state" and p.get("event") == "opened":
                key = (p["requester"], p["issue"])
                opened[key] = opened.get(key, 0) + 1
        assert all(n <= 2 for n in opened.values()), spec.episode_id
    d_metrics = [m for _, _, m in by_class["D"]]
    assert sum(m.tsr for m in d_metrics) / len(d_metrics) > 0.0

    # every episode terminates, and the whole suite is fast
    for _, trace, _ in results:
        assert trace.events[-1]["kind"] == "episode_end"
    assert elapsed < 60.0


def test_criterion_5_ablation_orderings(
    full_run, rule_only_run, ungated_run, no_solvability_run, flat_weights_run
):
    full = _agg(full_run[0])
    rule = _agg(rule_only_run[0])
    ungated = _agg(ungated_run[0])
    no_l = _agg(no_solvability_run[0])
    flat = _agg(flat_weights_run[0])

    assert full["msg"] < rule["msg"] < ungated["msg"]
    assert full["ecr"] > ungated["ecr"]
    assert no_l["uer"] > full["uer"]
    assert flat["uer"] > full["uer"]


def test_criterion_6_calibration_matches_brute_force(dataset):
    _, episodes = dataset
    by_class = {}
    for e in episodes:
        by_class.setdefault(e.class_label, []).append(e)
    subset = [e for label in "ABCD" for e in by_class[label][:3]]
    assert len(subset) == 12

    cfg = CalibrationConfig(
        weight_grid=[(4, 2, 2, 2, 1), (3, 2, 2, 2, 1)],
        threshold_grid=[(0.4, 0.5), (0.45, 0.45)],
    )
    assert len(cfg.cells()) <= 8
    best, table, _ = calibrate(subset, cfg)

    # brute force: rerun every cell from scratch and redo the arithmetic
    brute = []
    for weights, thresholds in cfg.cells():
        run_cfg = RunConfig(
            weights=GateWeights.from_sequence(weights),
            thresholds=GateThresholds(*thresholds),
        )
        ms = [compute_metrics(run_episode(e, run_cfg)) for e in subset]
        rec = [m.recovery_time_avg for m in ms if m.recovery_time_avg is not None]
        zero_yield = [
            (m.windows_opened - m.windows_fulfilled) / m.windows_opened
            for m in ms
            if m.windows_opened
        ]
        brute.append(
            {
                "weights": list(weights),
                "thresholds": list(thresholds),
                "tsr": sum(m.tsr for m in ms) / len(ms),
                "c_time": sum(rec) / len(rec) if rec else 0.0,
                "c_redundant": sum(zero_yield) / len(zero_yield) if zero_yield else 0.0,
                "c_llm": sum(m.token_cost for m in ms) / len(ms),
            }
        )
    for term in ("c_time", "c_redundant", "c_llm"):
        mx = max(r[term] for r in brute)
        for r in brute:
            r[term + "_hat"] = r[term] / mx if mx > 0 else 0.0
    for r in brute:
        r["objective"] = (
            r["tsr"]
            - cfg.lam_time * r["c_time_hat"]
            - cfg.lam_redundant * r["c_redundant_hat"]
            - cfg.lam_llm * r["c_llm_hat"]
        )

    by_theta = {(tuple(r["weights"]), tuple(r["thresholds"])): r for r in table}
    assert len(by_theta) == len(brute)
    for r in brute:
        row = by_theta[(tuple(r["weights"]), tuple(r["thresholds"]))]
        for key in ("tsr", "c_time", "c_redundant", "c_llm", "c_time_hat",
                    "c_redundant_hat", "c_llm_hat", "objective"):
            assert row[key] == r[key], key  # bit-exact, not approximate

    top = max(r["objective"] for r in brute)
    winner = min(
        ((tuple(r["weights"]), tuple(r["thresholds"])) for r in brute
         if r["objective"] == top)
    )
    assert (tuple(best["weights"]), tuple(best["thresholds"])) == winner

    # the calib/test split never separates one template's seed replicas
    split = split_templates(episodes, 0.5, seed=0)
    calib_tids = set(split["calib"])
    for e in episodes:
        assert (e.template_id in calib_tids) == (e.template_id not in set(split["test"]))


class _Adjudicator(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        self.rfile.read(length)
        body = json.dumps({"decision": "escalate", "confidence": 0.8}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # keep pytest output clean
        pass


def test_criterion_7_trace_determinism_and_replay(dataset):
    _, episodes = dataset
    spec = next(e for e in episodes if e.class_label == "C")
    config = RunConfig()

    reply = '{"decision": "stay_local", "confidence": 0.7}'
    first = run_episode(spec, config, ScriptedAdjudicator([reply] * 5))
    second = run_episode(spec, config, ScriptedAdjudicator([reply] * 5))
    assert first.to_jsonl() == second.to_jsonl()

    server = ThreadingHTTPServer(("127.0.0.1", 0), _Adjudicator)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        url = f"http://127.0.0.1:{server.server_address[1]}/adjudicate"
        remote_trace = run_episode(spec, config, RemoteAdjudicator(url))
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()

    replies = adjudicator_replies(remote_trace)
    assert replies, "the remote backend must be consulted and recorded"
    replayed = run_episode(spec, config, ScriptedAdjudicator(replies))
    assert replayed.to_jsonl() == remote_trace.to_jsonl()


def test_criterion_8_fuzz_invariants_at_volume():
    per_family = 2500
    checks = 0
    for seed_base, family in (
        (1000, check_score_monotonicity),
        (2000, check_inventory_conservation),
        (3000, check_message_schema_fuzz),
        (4000, check_window_termination),
    ):
        rng = random.Random(seed_base)
        for _ in range(per_family):
            family(rng)
            checks += 1
    assert checks == 10_000
