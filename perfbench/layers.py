"""Per-layer split of a workload, from wrappers around each layer's functions.

The workload's commands run in this process through `gatecraft.cli.main` at
--jobs 1, because spans recorded in pool workers never reach the parent. Each
pass runs them once untraced and once traced; `cli.tracing_overhead` is the
ratio of the two walls, and the two passes must write identical outputs.

Each function is wrapped under the name its caller looks it up by: agent.py
imports its callees by name, so the wrappers go on `gatecraft.agent.observe`
and so on; patching `gatecraft.world.observe` would record nothing. Spans are
aggregated in memory per name (calls, time, self time = time minus the time
of child spans) and written to spans.json when the run ends. A metric named
`<layer>.<function>.s` is the inclusive time of that function's spans.
"""

from __future__ import annotations

import contextlib
import json
import pickle
import shutil
import statistics
import time
from collections import Counter

import gatecraft.agent as agent
import gatecraft.cli as cli
import gatecraft.gate as gate
import gatecraft.harness as harness
from gatecraft.agent import Trace
from gatecraft.gate import MockAdjudicator, RemoteAdjudicator
from gatecraft.scenarios import EpisodeSpec
from gatecraft.world import WorldState, WorldView

# (metric, unit); a unit other than s, ms, us or ratio marks a count that
# must repeat exactly from pass to pass
PER_LAYER = [
    ("agent.run_episode.calls", "count"), ("agent.run_episode.s", "s"),
    ("agent.run_episode.ms_p50", "ms"), ("agent.run_episode.ms_p95", "ms"),
    ("agent.step.calls", "count"), ("agent.step.self_s", "s"),
    ("agent.us_per_action", "us"), ("agent.useful_action_ratio", "fraction"),
    ("world.observe.calls", "count"), ("world.observe.s", "s"),
    ("world.view_digest.calls", "count"), ("world.view_digest.s", "s"),
    ("world.apply_action.calls", "count"), ("world.apply_action.s", "s"),
    ("world.placed_nodes.calls", "count"),
    ("memory.detect_issue.calls", "count"), ("memory.detect_issue.s", "s"),
    ("memory.update_private_state.calls", "count"), ("memory.update_private_state.s", "s"),
    ("gate.extract_features.calls", "count"), ("gate.extract_features.s", "s"),
    ("gate.gate_decide.calls", "count"), ("gate.gate_decide.s", "s"),
    ("gate.tier.rule", "count"), ("gate.tier.score", "count"),
    ("gate.tier.adjudicator", "count"),
    ("gate.adjudicator.calls", "count"), ("gate.adjudicator.s", "s"),
    ("gate.adjudicator.ms_p50", "ms"), ("gate.adjudicator.ms_p95", "ms"),
    ("gate.adjudicator.failures", "count"), ("gate.stub.busy_s", "s"),
    ("solver.plan_local_recovery.calls", "count"), ("solver.plan_local_recovery.s", "s"),
    ("protocol.settle_window.calls", "count"), ("protocol.settle_window.s", "s"),
    ("protocol.windows_opened", "count"), ("protocol.windows_fulfilled", "count"),
    ("protocol.ecr", "fraction"), ("protocol.messages", "count"),
    ("harness.compute_metrics.calls", "count"), ("harness.compute_metrics.s", "s"),
    ("harness.replay_local_feasibility.calls", "count"),
    ("harness.replay_local_feasibility.s", "s"),
    ("harness.metrics_to_csv.s", "s"),
    ("trace.emit.calls", "count"), ("trace.to_jsonl.calls", "count"),
    ("trace.to_jsonl.s", "s"), ("trace.bytes", "bytes"),
    ("trace.discarded_bytes", "bytes"), ("trace.from_jsonl.s", "s"),
    ("scenarios.load_dataset.s", "s"),
    ("scenarios.build_world.calls", "count"), ("scenarios.build_world.s", "s"),
    ("cli.result_bytes", "bytes"), ("cli.tracing_overhead", "ratio"),
]
TIMED_UNITS = {"s", "ms", "us", "ratio"}
SAMPLED = ("agent.run_episode", "gate.adjudicator")


class Tracer:
    """Wraps functions in place and aggregates their spans per name."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.samples = {name: [] for name in SAMPLED}  # per-call durations
        self.counters: Counter = Counter()
        self.episode_metrics: list = []
        self.capture_metrics = False
        self._stack = [0.0]  # time covered by finished children of each open span
        self._patches: list = []

    def _wrap(self, name, fn, after=None):
        span = self.spans.setdefault(name, [0, 0.0, 0.0])
        samples = self.samples.get(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                children = stack.pop()
                stack[-1] += d
                span[0] += 1
                span[1] += d
                span[2] += d - children
                if samples is not None:
                    samples.append(d)
            if after is not None:
                after(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None) -> None:
        original = vars(owner)[attr]
        if isinstance(original, staticmethod):
            setattr(owner, attr, staticmethod(self._wrap(name, original.__func__, after)))
        else:
            setattr(owner, attr, self._wrap(name, original, after))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # result hooks

    def _step(self, result) -> None:
        if result[1].kind != "idle":
            self.counters["useful_actions"] += 1

    def _decision(self, d) -> None:
        self.counters[f"tier.{d.tier}"] += 1
        if d.adjudicator_ok is False:
            self.counters["adjudicator_failures"] += 1

    def _jsonl(self, text: str) -> None:
        self.counters["trace_bytes"] += len(text.encode())

    def _metrics(self, m) -> None:
        if self.capture_metrics:
            self.episode_metrics.append(m)

    def install(self, backend_cls, count_results: bool) -> None:
        p = self.patch
        p(cli, "run_episode", "agent.run_episode")
        p(agent, "step", "agent.step", self._step)
        p(agent, "observe", "world.observe")
        p(WorldView, "digest", "world.view_digest")
        p(agent, "apply_action", "world.apply_action")
        p(WorldState, "placed_nodes", "world.placed_nodes")
        p(agent, "detect_issue", "memory.detect_issue")
        p(agent, "update_private_state", "memory.update_private_state")
        p(agent, "extract_features", "gate.extract_features")
        p(agent, "gate_decide", "gate.gate_decide", self._decision)
        p(backend_cls, "adjudicate", "gate.adjudicator")
        # the feature probe calls the solver through the gate module
        p(agent, "plan_local_recovery", "solver.plan_local_recovery")
        p(gate, "plan_local_recovery", "solver.plan_local_recovery")
        p(agent, "settle_window", "protocol.settle_window")
        p(cli, "compute_metrics", "harness.compute_metrics", self._metrics)
        p(harness, "replay_local_feasibility", "harness.replay_local_feasibility")
        p(cli, "metrics_to_csv", "harness.metrics_to_csv")
        p(Trace, "emit", "trace.emit")
        p(Trace, "to_jsonl", "trace.to_jsonl", self._jsonl)
        p(Trace, "from_jsonl", "trace.from_jsonl")
        p(cli, "load_dataset", "scenarios.load_dataset")
        p(EpisodeSpec, "build_world", "scenarios.build_world")
        if count_results:
            # what pool workers would pickle back to the parent, item by item
            suite = vars(cli)["_run_suite"]
            counters = self.counters

            def counted_suite(*args, **kwargs):
                for item in suite(*args, **kwargs):
                    counters["result_bytes"] += len(pickle.dumps(item))
                    yield item

            cli._run_suite = counted_suite
            self._patches.append((cli, "_run_suite", suite))


def _percentile_ms(values: list[float], q: int) -> float:
    if len(values) < 2:
        return 1000.0 * sum(values)
    return 1000.0 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _run_commands(setup, out, log, tracer: Tracer | None = None) -> tuple:
    """Run the workload's commands in-process; return (wall, Outcome).

    The tracer, if any, is removed after the last command, before the checks
    read the outputs back."""
    walls = []
    shutil.rmtree(out, ignore_errors=True)

    def execute(role, argv):
        if tracer is not None:
            tracer.capture_metrics = role == "sim"
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli.main(argv)
        walls.append(time.perf_counter() - t0)
        if tracer is not None and role == "report":
            tracer.restore()
        return code

    outcome = setup.repetition(out, 1, execute)
    return sum(walls), outcome


def _traced_pass(setup, out, log, untraced_wall) -> tuple[dict, dict, object]:
    tracer = Tracer()
    remote = setup.stub is not None
    tracer.install(RemoteAdjudicator if remote else MockAdjudicator,
                   count_results=setup.workload == "ablate_j2")
    stub_busy = setup.stub.busy_s if remote else 0.0
    try:
        wall, outcome = _run_commands(setup, out, log, tracer)
    finally:
        tracer.restore()

    sp, c, em = tracer.spans, tracer.counters, tracer.episode_metrics
    written = outcome.counts.bytes if outcome.counts else 0
    opened = sum(m.windows_opened for m in em)
    fulfilled = sum(m.windows_fulfilled for m in em)
    steps = sp["agent.step"][0]
    values = {
        "agent.useful_action_ratio": c["useful_actions"] / steps if steps else 0.0,
        "agent.us_per_action": 1e6 * sp["agent.run_episode"][1] / steps if steps else 0.0,
        "agent.step.self_s": sp["agent.step"][2],
        "agent.run_episode.ms_p50": _percentile_ms(tracer.samples["agent.run_episode"], 50),
        "agent.run_episode.ms_p95": _percentile_ms(tracer.samples["agent.run_episode"], 95),
        "gate.tier.rule": c["tier.rule"],
        "gate.tier.score": c["tier.score"],
        "gate.tier.adjudicator": c["tier.adjudicator"],
        "gate.adjudicator.ms_p50": _percentile_ms(tracer.samples["gate.adjudicator"], 50),
        "gate.adjudicator.ms_p95": _percentile_ms(tracer.samples["gate.adjudicator"], 95),
        "gate.adjudicator.failures": c["adjudicator_failures"],
        "gate.stub.busy_s": (setup.stub.busy_s - stub_busy) if remote else 0.0,
        "protocol.windows_opened": opened,
        "protocol.windows_fulfilled": fulfilled,
        "protocol.ecr": fulfilled / opened if opened else 0.0,
        "protocol.messages": sum(m.msg for m in em),
        "trace.bytes": c["trace_bytes"],
        "trace.discarded_bytes": c["trace_bytes"] - written,
        "cli.result_bytes": c["result_bytes"],
        "cli.tracing_overhead": wall / untraced_wall,
    }
    for name, _ in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if name not in values:
            values[name] = sp[layer][0] if stat == "calls" else sp[layer][1]

    if outcome.counts is not None:
        # the traced run must count what its written traces hold
        k = outcome.counts
        seen = {"actions": (steps, k.actions), "events": (sp["trace.emit"][0], k.events),
                "trace bytes": (c["trace_bytes"], k.bytes),
                "adjudicator calls": (sp["gate.adjudicator"][0], k.adjudicator_calls)}
        seen.update({f"tier {t}": (c[f"tier.{t}"], k.tiers.get(t, 0))
                     for t in ("rule", "score", "adjudicator")})
        for what, (traced, written_count) in seen.items():
            if traced != written_count:
                outcome.problems.append(f"tracing saw {traced} {what}, the traces hold "
                                        f"{written_count}")
    spans = {name: {"calls": s[0], "total_s": s[1], "self_s": s[2]} for name, s in sp.items()}
    return values, spans, outcome


def measure(setup, seconds: int) -> tuple[dict, list]:
    """Untraced and traced passes until `seconds` have passed (at least one).

    Counts come from the first traced pass and must repeat exactly in the
    others; times are medians over the traced passes.
    """
    passes, spans, outcomes = [], [], []
    start = time.perf_counter()
    with (setup.work / "inprocess.log").open("w") as log:
        while not passes or time.perf_counter() - start < seconds:
            wall, outcome = _run_commands(setup, setup.work / "untraced", log)
            values, pass_spans, traced_outcome = _traced_pass(
                setup, setup.work / "traced", log, wall)
            outcomes += [outcome, traced_outcome]
            passes.append(values)
            spans.append(pass_spans)
    (setup.work / "spans.json").write_text(json.dumps(spans, indent=1, sort_keys=True) + "\n")

    metrics = {}
    for name, unit in PER_LAYER:
        values = [p[name] for p in passes]
        if unit in TIMED_UNITS:
            metrics[name] = {"value": statistics.median(values), "unit": unit}
        else:
            if len(set(values)) != 1:
                outcomes[-1].problems.append(f"{name} changed between passes: {values}")
            metrics[name] = {"value": values[0], "unit": unit}
    return metrics, outcomes
