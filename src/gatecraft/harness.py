"""Trace metrics, the episode fan-out, shared-simulation runs, aggregation,
grid-search calibration, and dataset splits.

`compute_metrics` is a pure function of a finished trace: it counts, it never
re-simulates or plans. The unnecessary-escalation rate reads the local plan
cost each escalation recorded *at the decision step*, so the feasibility
judgment uses exactly what the agent could see then and nothing that
happened afterwards. With `agent.Trace.from_jsonl`, which checks each
event's envelope and the trace's schema, it is the one reader of the trace
format: a payload value it cannot count raises ValueError naming the event
and the field.
"""

from __future__ import annotations

import csv
import io
import json
import random
from collections.abc import Sequence
from itertools import repeat
from pathlib import Path
from urllib.parse import urlsplit

from .agent import (
    EpisodeRuntime,
    RunConfig,
    Trace,
    _schema_problem,
    regate,
    regate_key,
    simulate_episode,
)
from .gate import (
    GateThresholds,
    GateWeights,
    RemoteAdjudicator,
    ScriptedAdjudicator,
    validate_weights,
)
from .memory import BlockageRecord, IssueType, PrivateState
from .scenarios import EpisodeSpec, check_count, check_counts, check_position
from .solver import PLANNER_PARAMS, RecoveryPlan, plan_local_recovery
from .world import Chest, Inventory, PlanInfo, Recipe, RecipeBook, Source, WorldView

ENV_ACTION_KINDS = ("move", "place", "collect", "craft", "smelt", "transfer")

# Cost cap that makes "a feasible local solution existed" decidable.
LOCAL_BUDGET = 30

_REQUIRED = object()
_TEXT = ("null or a string", lambda v: v is None or type(v) is str, None)
_COUNT = ("an integer", lambda v: type(v) is int, 0)

# The typed payload values `compute_metrics` reads, by field name: what each
# must be, its test, and its value when absent (`_REQUIRED`: it must be there).
_VALUES = {
    "completion": ("a number", lambda v: type(v) in (int, float), _REQUIRED),
    "local_plan_cost": ("null or an integer >= 0",
                        lambda v: v is None or (type(v) is int and v >= 0), _REQUIRED),
    **dict.fromkeys(("episode_id", "class_label", "adjudicator_request", "adjudicator_reply"), _TEXT),
    **dict.fromkeys(("duration", "windows"), _COUNT),
    "adjudicator_ok": ("null or a boolean", lambda v: v is None or type(v) is bool, None),
}

RATIO_FIELDS = ("lrr", "uer", "ecr", "rsr", "recovery_time_avg")
MEAN_FIELDS = ("tsr", "cs", "msg", "escalations", "adjudicator_calls", "adjudicator_failures",
               "token_cost")


class EpisodeMetrics:
    """One episode's counts and rates. `__slots__` names the fields in
    `metrics.csv`'s column order."""

    __slots__ = ("episode_id", "class_label", "tsr", "cs", "msg", "escalations",
                 "adjudicator_calls", "adjudicator_failures", "token_cost", "windows_opened",
                 "windows_fulfilled", "issues_resolved", "issues_abandoned", "lrr", "uer", "ecr",
                 "rsr", "recovery_time_avg")

    def __init__(self, episode_id: str | None, class_label: str | None, tsr: float, cs: int,
                 msg: int, escalations: int, adjudicator_calls: int, adjudicator_failures: int,
                 token_cost: float, windows_opened: int, windows_fulfilled: int, issues_resolved: int,
                 issues_abandoned: int, lrr: float | None = None, uer: float | None = None,
                 ecr: float | None = None, rsr: float | None = None,
                 recovery_time_avg: float | None = None):
        self.episode_id = episode_id
        self.class_label = class_label
        self.tsr = tsr
        self.cs = cs
        self.msg = msg
        self.escalations = escalations
        self.adjudicator_calls = adjudicator_calls
        self.adjudicator_failures = adjudicator_failures
        self.token_cost = token_cost
        self.windows_opened = windows_opened
        self.windows_fulfilled = windows_fulfilled
        self.issues_resolved = issues_resolved
        self.issues_abandoned = issues_abandoned
        self.lrr = lrr
        self.uer = uer
        self.ecr = ecr
        self.rsr = rsr
        self.recovery_time_avg = recovery_time_avg

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __eq__(self, other):
        if other.__class__ is not EpisodeMetrics:
            return NotImplemented
        return self.to_dict() == other.to_dict()


def _ctx_entries(ctx: dict, name: str, shape: tuple[str, ...]) -> list:
    """The list field `name` of a solver context, each entry a list of the
    `shape` items, or ValueError naming the entry."""
    entries = ctx.get(name, [])
    for i, entry in enumerate(entries):
        if type(entry) is not list or len(entry) != len(shape):
            raise ValueError(f"solver_ctx.{name}[{i}] {entry!r} is not [{', '.join(shape)}]")
    return entries


def replay_local_feasibility(ctx: dict) -> RecoveryPlan | None:
    """Re-run the local planner on a recorded decision-step context. Its
    plan's `total_cost` (None without a plan) is the `local_plan_cost` the
    escalation recorded, so this checks a trace's recorded costs; the
    metrics read the recorded cost and never call it.

    The context is self-contained (inventory, visible supplies, stations,
    recipe book, blockage), so this works on a bare trace with no world. The
    planner's physics are fixed, so a context recorded under other physics
    is rejected rather than replanned; missing `params` keys read as the
    fixed values. A field that cannot be replayed raises ValueError naming
    it as `solver_ctx.<field>`: a position that is not three integers, a
    count that is not an integer >= 0 (a blockage's `count` below 1, which
    no run records, included), an entry of the wrong length, an unknown
    `issue`, a missing field or a recipe missing one."""
    for name in ("inventory", "position", "count", "issue", "node_id", "item"):
        if name not in ctx:
            raise ValueError(f"solver_ctx.{name} is missing")
    for name, value in ctx.get("params", {}).items():
        if name not in PLANNER_PARAMS or value != PLANNER_PARAMS[name]:
            raise ValueError(f"solver_ctx.params.{name} = {value!r} does not match the "
                             f"planner's fixed physics {PLANNER_PARAMS}")
    inventory = Inventory(check_counts(ctx["inventory"], "solver_ctx.inventory"))
    state = PrivateState(agent_id="replay", inventory=inventory)
    sources = [
        (int(i), Source(item=item, position=tuple(check_position(p, "solver_ctx.sources[{}] position", k)),
                        remaining=check_count(r, "solver_ctx.sources[{}] remaining", k)))
        for k, (i, item, p, r) in enumerate(
            _ctx_entries(ctx, "sources", ("index", "item", "position", "remaining")))
    ]
    chests = [
        (int(i), Chest(position=tuple(check_position(p, "solver_ctx.chests[{}] position", k)),
                       inventory=Inventory(check_counts(inv, "solver_ctx.chests[{}].inventory", k))))
        for k, (i, p, inv) in enumerate(_ctx_entries(ctx, "chests", ("index", "position", "inventory")))
    ]
    stations = {tuple(check_position(p, "solver_ctx.stations[{}] position", k)): m
                for k, (p, m) in enumerate(_ctx_entries(ctx, "stations", ("position", "station")))}
    view = WorldView(
        agent_id="replay",
        position=tuple(check_position(ctx["position"], "solver_ctx.position")),
        inventory=inventory,
        placed_nodes=frozenset(),
        sources=sources,
        chests=chests,
        teammates={},
        plan=PlanInfo(station_positions=stations),
        sim_time=0,
    )
    recipes = []
    for k, r in enumerate(ctx.get("recipes", [])):
        try:
            recipes.append(Recipe.from_dict(r))
        except KeyError as exc:
            raise ValueError(f"solver_ctx.recipes[{k}] {r!r} has no field {exc}") from exc
    if (count := check_count(ctx["count"], "solver_ctx.count")) < 1:
        raise ValueError(f"solver_ctx.count = {count}; a blockage needs at least 1")
    if ctx["issue"] not in IssueType.ALL:
        raise ValueError(f"solver_ctx.issue {ctx['issue']!r} is not one of {', '.join(IssueType.ALL)}")
    blockage = BlockageRecord(
        issue=ctx["issue"],
        node_id=int(ctx["node_id"]),
        item=ctx["item"],
        count=count,
    )
    return plan_local_recovery(state, view, RecipeBook(recipes), blockage)


def _read(p: dict, name: str, i: int, kind: str):
    """The value of payload field `name` (see `_VALUES`) of event `i`, or
    ValueError naming the event and the field."""
    what, ok, default = _VALUES[name]
    value = p.get(name, default)
    if value is _REQUIRED:
        raise ValueError(f"event {i} ({kind}) has no payload field {name!r}")
    if not ok(value):
        raise ValueError(f"event {i} ({kind}) {name} {value!r} is not {what}")
    return value


def compute_metrics(trace: Trace) -> EpisodeMetrics:
    """Count one finished trace into EpisodeMetrics. Ratio fields are None
    (absent) when their denominator is zero. An escalation is unnecessary
    when the local plan cost it recorded is at most LOCAL_BUDGET. A failed
    adjudicator call is a `gate_decision` with `adjudicator_ok: false`: the
    backend could not answer, or its reply was not the schema.

    The trace is one `simulate_episode` wrote or `Trace.from_jsonl` read:
    every event is an object with `step`, `agent`, `kind` and a `payload`
    object, and the last is its one `episode_end`; a trace built in memory
    that breaks this raises the ValueError `Trace.from_jsonl` would. A
    payload the count cannot read raises ValueError naming the event and the
    field; an error raised while every value read is well-formed keeps its
    own type."""
    cs = msg = opened = fulfilled = adj = failures = escalations = unnecessary = 0
    resolved = local_resolved = abandoned = abandoned_after_recovery = 0
    token_bytes = 0
    durations: list[int] = []

    kind = None
    try:
        for i, e in enumerate(trace.events, 1):
            kind, p = e["kind"], e["payload"]
            if kind == "action":
                if p["action"]["kind"] in ENV_ACTION_KINDS:
                    cs += 1
            elif kind == "coordination_message":
                msg += 1
            elif kind == "window_state":
                if p.get("event") == "opened":
                    opened += 1
                elif p.get("event") == "closed" and p.get("state") == "fulfilled":
                    fulfilled += 1
            elif kind == "gate_decision":
                if p.get("tier") == "adjudicator":
                    adj += 1
                failures += _read(p, "adjudicator_ok", i, kind) is False
                for name in ("adjudicator_request", "adjudicator_reply"):
                    if text := _read(p, name, i, kind):
                        token_bytes += len(text.encode("utf-8"))
                if p.get("verdict") == "escalate":
                    escalations += 1
                    if (cost := _read(p, "local_plan_cost", i, kind)) is not None:
                        unnecessary += cost <= LOCAL_BUDGET
            elif kind == "issue":
                event = p.get("event")
                if event == "resolved":
                    resolved += 1
                    if p.get("via") == "local":
                        local_resolved += 1
                    durations.append(_read(p, "duration", i, kind))
                elif event == "abandoned":
                    abandoned += 1
                    if p.get("recovery_activated") or _read(p, "windows", i, kind) > 0:
                        abandoned_after_recovery += 1
        if kind != "episode_end":
            raise ValueError("incomplete trace: no episode_end event")
        episode_id = _read(p, "episode_id", i, kind)
        class_label = _read(p, "class_label", i, kind)
        completion = float(_read(p, "completion", i, kind))
    except (KeyError, TypeError, AttributeError) as exc:
        # not an event, an action the count cannot read past, or the program's error
        if (problem := _schema_problem(trace.events)) is not None:
            raise ValueError(problem) from exc
        if kind != "action" or (isinstance(p.get("action"), dict) and "kind" in p["action"]):
            raise
        field = "action.kind" if "action" in p else "action"
        raise ValueError(f"event {i} (action) has no payload field {field!r}") from exc

    return EpisodeMetrics(
        episode_id=episode_id,
        class_label=class_label,
        tsr=completion,
        cs=cs,
        msg=msg,
        escalations=escalations,
        adjudicator_calls=adj,
        adjudicator_failures=failures,
        token_cost=token_bytes / 4,
        windows_opened=opened,
        windows_fulfilled=fulfilled,
        issues_resolved=resolved,
        issues_abandoned=abandoned,
        lrr=(local_resolved / resolved) if resolved else None,
        uer=(unnecessary / escalations) if escalations else None,
        ecr=(fulfilled / opened) if opened else None,
        # of issues where a recovery attempt concluded, the share resolved;
        # abandonments that never activated recovery do not count against it
        rsr=(resolved / (resolved + abandoned_after_recovery))
        if (resolved + abandoned_after_recovery)
        else None,
        recovery_time_avg=(sum(durations) / len(durations)) if durations else None,
    )


def _mean(values: list[float]) -> float | None:
    """Summed from left to right, as `sum()` did before Python 3.12 began
    compensating its rounding, so a mean has the same bytes on every
    supported Python."""
    total = 0
    for value in values:
        total += value
    return total / len(values) if values else None


def _aggregate_rows(metrics: list[EpisodeMetrics]) -> dict:
    row: dict = {"n": len(metrics)}
    for name in MEAN_FIELDS:
        row[name] = _mean([getattr(m, name) for m in metrics])
    for name in RATIO_FIELDS:
        defined = [getattr(m, name) for m in metrics if getattr(m, name) is not None]
        row[name] = _mean(defined)
    return row


def aggregate(metrics: list[EpisodeMetrics]) -> dict:
    """Unweighted means; episodes whose ratio denominator was zero are left out
    of that ratio's mean. Includes a per-class breakdown."""
    if not metrics:
        raise ValueError("cannot aggregate zero episodes")
    out = _aggregate_rows(metrics)
    classes = sorted({m.class_label for m in metrics if m.class_label})
    out["per_class"] = {
        c: _aggregate_rows([m for m in metrics if m.class_label == c]) for c in classes
    }
    return out


def csv_text(columns: list[str], rows: list[dict]) -> str:
    """A header line of `columns`, then one line per row dict; every line
    ends in `\n`. A missing or None value is empty, a key outside `columns`
    is left out, and a value holding a comma, quote or newline is quoted."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def metrics_to_csv(metrics: list[EpisodeMetrics]) -> str:
    """One row per episode, then ALL + per-class aggregate rows."""
    agg = aggregate(metrics)
    per_class = agg.pop("per_class")
    rows = [m.to_dict() for m in metrics]
    rows.append({**agg, "episode_id": "ALL"})
    rows += [{**row, "episode_id": f"CLASS_{c}"} for c, row in per_class.items()]
    return csv_text(list(EpisodeMetrics.__slots__), rows)


def run_configs(
    spec: EpisodeSpec, configs: list[RunConfig], backends: list | None = None
) -> tuple[list[EpisodeMetrics], list[bool]]:
    """The metrics of `spec` run under each config, in config order, and for
    each run that was simulated, whether a team-view read in it depended on
    the partition setting (`EpisodeRuntime.partition_dependent`).

    With `backends`, one instance per config, every config is simulated
    under its own instance. Otherwise the mock decides, and configs that
    agree outside the gate settings and `partition_on` (the same
    `regate_key`) form a group. Each group simulates its first config, and
    `regate` derives each other config from one of the group's simulated
    runs; a config that no such run can serve (a flipped verdict, or a
    changed partition setting that a read depended on) is simulated in full
    and serves the rest of the group too."""
    if backends is not None:
        runs = [simulate_episode(spec, c, b) for c, b in zip(configs, backends)]
        return [compute_metrics(r.trace) for r in runs], [r.partition_dependent for r in runs]
    groups: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        groups.setdefault(regate_key(config), []).append(i)
    traces: list[Trace | None] = [None] * len(configs)
    simulated: list[bool] = []
    for members in groups.values():
        references: list[EpisodeRuntime] = []
        for i in members:
            regated = (regate(r, configs[i]) for r in references)
            traces[i] = next((t for t in regated if t is not None), None)
            if traces[i] is None:
                references.append(simulate_episode(spec, configs[i]))
                traces[i] = references[-1].trace
        simulated += [r.partition_dependent for r in references]
    return [compute_metrics(t) for t in traces], simulated


def map_episodes(fn, episodes: Sequence[EpisodeSpec], jobs: int, *shared):
    """Yield `fn(spec, *shared)` for each episode, in episode order.

    With `jobs` and the episodes both above 1, a pool of at most one worker
    per episode (it starts them all at once) takes contiguous slices, about
    four per worker, and gets `shared` once per slice. A slice of a loaded
    `Dataset` is its lines, so each worker decodes only the specs it runs.
    Otherwise the episodes run one by one in this process."""
    workers = min(jobs, len(episodes))
    if workers <= 1:
        yield from (fn(spec, *shared) for spec in episodes)
        return
    from concurrent.futures import ProcessPoolExecutor  # pulls in multiprocessing

    size = max(1, len(episodes) // (4 * workers))
    slices = [episodes[i:i + size] for i in range(0, len(episodes), size)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for results in pool.map(_map_slice, repeat(fn), slices, repeat(shared)):
            yield from results


def _map_slice(fn, episodes: Sequence[EpisodeSpec], shared: tuple) -> list:
    return [fn(spec, *shared) for spec in episodes]


def run_config_suite(
    episodes: Sequence[EpisodeSpec], configs: list[RunConfig], jobs: int = 1,
    backend: str | None = None,
) -> tuple[list[list[EpisodeMetrics]], list[bool]]:
    """`run_configs` over every episode (`map_episodes`). Returns each
    config's metrics in episode order and the `partition_dependent` flag of
    every simulated run.

    `backend` names a scripted or remote backend (see `make_backend`), or
    is None for the mock. Such a backend may reply by the order of its
    calls, so each config gets its own instance for the whole suite, no run
    is re-gated, and the episodes run one by one in this process."""
    backends = None if backend is None else [make_backend(backend) for _ in configs]
    results = list(map_episodes(run_configs, episodes, jobs if backend is None else 1, configs,
                                backends))
    per_config = [[metrics[c] for metrics, _ in results] for c in range(len(configs))]
    return per_config, [flag for _, simulated in results for flag in simulated]


# -- calibration ---------------------------------------------------------------


class CalibrationConfig:
    """The Θ search space plus the utility's penalty coefficients."""

    __slots__ = ("weight_grid", "threshold_grid", "lam_time", "lam_redundant", "lam_llm")

    def __init__(self, weight_grid: list[tuple[int, int, int, int, int]],
                 threshold_grid: list[tuple[float, float]], lam_time: float = 0.1,
                 lam_redundant: float = 0.2, lam_llm: float = 0.05):
        if not weight_grid or not threshold_grid:
            raise ValueError("calibration grids must be non-empty")
        if min(lam_time, lam_redundant, lam_llm) < 0:
            raise ValueError("penalty coefficients must be non-negative")
        for i, w in enumerate(weight_grid):
            ok, problems = validate_weights(GateWeights.from_sequence(w))
            if not ok:
                raise ValueError(f"weights[{i}] {w} rejected: {'; '.join(problems)}")
        for i, (lo, hi) in enumerate(threshold_grid):
            if not (0.0 <= lo <= hi <= 1.0):
                raise ValueError(f"thresholds[{i}] must satisfy 0 <= t_low <= t_high <= 1, "
                                 f"not ({lo}, {hi})")
        self.weight_grid = weight_grid
        self.threshold_grid = threshold_grid
        self.lam_time = lam_time
        self.lam_redundant = lam_redundant
        self.lam_llm = lam_llm

    def cells(self) -> list[tuple[tuple[int, ...], tuple[float, float]]]:
        return sorted(
            (tuple(w), (float(lo), float(hi)))
            for w in self.weight_grid
            for lo, hi in self.threshold_grid
        )


def _cell_raw_scores(weights, thresholds, metrics: list[EpisodeMetrics]) -> dict:
    """Average one Θ's raw objective terms over the calibration episodes."""
    tsr = _mean([m.tsr for m in metrics])
    rec = [m.recovery_time_avg for m in metrics if m.recovery_time_avg is not None]
    zero_yield = [
        (m.windows_opened - m.windows_fulfilled) / m.windows_opened
        for m in metrics
        if m.windows_opened
    ]
    llm = _mean([m.token_cost for m in metrics])
    return {
        "weights": list(weights),
        "thresholds": list(thresholds),
        "tsr": tsr,
        "c_time": _mean(rec) or 0.0,
        "c_redundant": _mean(zero_yield) or 0.0,
        "c_llm": llm or 0.0,
    }


def calibrate(
    episodes: Sequence[EpisodeSpec],
    config: CalibrationConfig,
    jobs: int = 1,
) -> tuple[dict, list[dict], int]:
    """Grid-search Θ = (weights, thresholds) maximizing
    mean TSR − λ1·Ĉ_time − λ2·Ĉ_redundant − λ3·Ĉ_LLM,
    with each Ĉ normalized to [0, 1] by its maximum over the grid.

    Every episode runs under all cells at once (`run_config_suite`), and
    `jobs` worker processes share the episodes. Returns (best Θ, full objective
    table, number of simulated runs). Ties go to the lexicographically
    smallest Θ, so the argmax never depends on enumeration order."""
    if not episodes:
        raise ValueError("calibration needs at least one episode")
    cells = config.cells()
    configs = [RunConfig(weights=GateWeights.from_sequence(w), thresholds=GateThresholds(*t))
               for w, t in cells]
    per_cell, simulated = run_config_suite(episodes, configs, jobs)
    rows = [_cell_raw_scores(w, t, metrics) for (w, t), metrics in zip(cells, per_cell)]

    max_time = max(r["c_time"] for r in rows)
    max_red = max(r["c_redundant"] for r in rows)
    max_llm = max(r["c_llm"] for r in rows)
    for r in rows:
        r["c_time_hat"] = r["c_time"] / max_time if max_time > 0 else 0.0
        r["c_redundant_hat"] = r["c_redundant"] / max_red if max_red > 0 else 0.0
        r["c_llm_hat"] = r["c_llm"] / max_llm if max_llm > 0 else 0.0
        r["objective"] = (
            r["tsr"]
            - config.lam_time * r["c_time_hat"]
            - config.lam_redundant * r["c_redundant_hat"]
            - config.lam_llm * r["c_llm_hat"]
        )

    def theta_key(row: dict) -> tuple:
        return (tuple(row["weights"]), tuple(row["thresholds"]))

    best_objective = max(r["objective"] for r in rows)
    chosen = min((r for r in rows if r["objective"] == best_objective), key=theta_key)
    theta = {"weights": list(chosen["weights"]), "thresholds": list(chosen["thresholds"])}
    return theta, rows, len(simulated)


def split_templates(
    episodes: Sequence[EpisodeSpec], calib_fraction: float, seed: int = 0
) -> dict[str, list[int]]:
    """Template-level calib/test split, stratified by (class, agent count).
    All seeds of one template land on the same side."""
    if not (0.0 < calib_fraction < 1.0):
        raise ValueError("calib_fraction must be in (0, 1)")
    strata: dict[tuple, set[int]] = {}
    for e in episodes:
        key = (e.class_label, e.meta.get("agent_count"))
        strata.setdefault(key, set()).add(e.template_id)
    rng = random.Random(seed)
    calib: set[int] = set()
    for key in sorted(strata):
        tids = sorted(strata[key])
        rng.shuffle(tids)
        calib.update(tids[: round(calib_fraction * len(tids))])
    all_tids = {e.template_id for e in episodes}
    test = all_tids - calib
    if not calib or not test:
        raise ValueError("calib_fraction leaves an empty partition")
    return {"calib": sorted(calib), "test": sorted(test)}


# -- adjudicator backends -------------------------------------------------------


def make_backend(name: str | None):
    """Backend factory for run configs.

    mock (default)    — None; the runtime installs the threshold-midpoint mock.
    scripted:<file>   — replays a transcript, one call per non-blank line
                        (see `_transcript_entry`).
    remote:<url>      — POSTs decision cards to an HTTP adjudicator at an
                        http(s) URL with a host and an optional port.
    """
    if name in (None, "", "mock"):
        return None
    if name.startswith("scripted:"):
        path = Path(name.split(":", 1)[1])
        lines = path.read_text().splitlines()
        return ScriptedAdjudicator([_transcript_entry(line) for line in lines if line.strip()])
    if name.startswith("remote:"):
        url = name.split(":", 1)[1]
        parts = urlsplit(url)
        try:
            port_ok = parts.port is None or parts.port > 0
        except ValueError:  # not a number in 0-65535
            port_ok = False
        if parts.scheme not in ("http", "https") or not parts.hostname or not port_ok:
            raise ValueError(f"remote:<url> takes an http or https URL with a host and "
                             f"an optional port in 1-65535, not {url!r}")
        return RemoteAdjudicator(url)
    raise ValueError(f"unknown backend {name!r} (use mock, scripted:<file>, remote:<url>)")


def _transcript_entry(line: str) -> str | None:
    """One call of a scripted backend's file: `null` is a call that fails, a
    JSON string is the text of its reply, and any other line, such as a bare
    reply object, is itself the reply."""
    try:
        entry = json.loads(line)
    except ValueError:
        return line
    return entry if entry is None or type(entry) is str else line


def adjudicator_replies(trace: Trace) -> list[str | None]:
    """The transcript of a run's adjudicator calls, one entry per call in
    call order: the reply text the call recorded, even one that was not the
    schema, or None for a call that failed with no reply. Feed it to a
    scripted backend, or write `json.dumps` of each entry as one line of its
    file, to replay the run without the original adjudicator."""
    return [
        _read(e["payload"], "adjudicator_reply", i, "gate_decision")
        for i, e in enumerate(trace.events, 1)
        if e["kind"] == "gate_decision" and e["payload"].get("tier") == "adjudicator"
    ]
