"""Trace metrics, shared-simulation runs, aggregation, grid-search
calibration, and dataset splits.

`compute_metrics` is a pure function of a finished trace: it counts, it never
re-simulates — with one deliberate exception. The unnecessary-escalation rate
replays the local planner on the solver context recorded *at the decision
step*, so the feasibility judgment uses exactly what the agent could see then
and nothing that happened afterwards.
"""

from __future__ import annotations

import csv
import io
import random
from itertools import repeat
from pathlib import Path
from urllib.parse import urlsplit

from .agent import (
    EpisodeRuntime,
    RunConfig,
    Trace,
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
from .scenarios import EpisodeSpec
from .solver import PLANNER_PARAMS, RecoveryPlan, plan_local_recovery
from .world import Chest, Inventory, PlanInfo, Recipe, RecipeBook, Source, WorldView

ENV_ACTION_KINDS = ("move", "place", "collect", "craft", "smelt", "transfer")

# Cost cap that makes "a feasible local solution existed" decidable.
LOCAL_BUDGET = 30

# The payload fields `compute_metrics` reads without a default, by event
# kind, as key paths; `cli.cmd_report` names the first event that lacks one.
REQUIRED_PAYLOAD = {"action": (("action", "kind"),), "episode_end": (("completion",),)}

RATIO_FIELDS = ("lrr", "uer", "ecr", "rsr", "recovery_time_avg")
MEAN_FIELDS = ("tsr", "cs", "msg", "escalations", "adjudicator_calls", "token_cost")


class EpisodeMetrics:
    """One episode's counts and rates. `__slots__` names the fields in
    `metrics.csv`'s column order."""

    __slots__ = ("episode_id", "class_label", "tsr", "cs", "msg", "escalations",
                 "adjudicator_calls", "token_cost", "windows_opened", "windows_fulfilled",
                 "issues_resolved", "issues_abandoned", "lrr", "uer", "ecr", "rsr",
                 "recovery_time_avg")

    def __init__(self, episode_id: str | None, class_label: str | None, tsr: float, cs: int,
                 msg: int, escalations: int, adjudicator_calls: int, token_cost: float,
                 windows_opened: int, windows_fulfilled: int, issues_resolved: int,
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


def replay_local_feasibility(ctx: dict) -> RecoveryPlan | None:
    """Re-run the local planner on a recorded decision-step context.

    The context is self-contained (inventory, visible supplies, stations,
    recipe book, blockage), so this works on a bare trace with no world. The
    planner's physics are fixed, so a context recorded under other physics
    is rejected rather than replanned; missing `params` keys read as the
    fixed values."""
    for name, value in ctx.get("params", {}).items():
        if name not in PLANNER_PARAMS or value != PLANNER_PARAMS[name]:
            raise ValueError(f"solver_ctx.params.{name} = {value!r} does not match the "
                             f"planner's fixed physics {PLANNER_PARAMS}")
    inventory = Inventory({k: int(v) for k, v in ctx["inventory"].items()})
    state = PrivateState(agent_id="replay", inventory=inventory)
    sources = [
        (int(i), Source(item=item, position=tuple(p), remaining=int(r)))
        for i, item, p, r in ctx.get("sources", [])
    ]
    chests = [
        (int(i), Chest(position=tuple(p), inventory=Inventory({k: int(v) for k, v in inv.items()})))
        for i, p, inv in ctx.get("chests", [])
    ]
    plan = PlanInfo(station_positions={tuple(p): m for p, m in ctx.get("stations", [])})
    view = WorldView(
        agent_id="replay",
        position=tuple(ctx["position"]),
        inventory=inventory,
        placed_nodes=frozenset(),
        sources=sources,
        chests=chests,
        teammates={},
        plan=plan,
        sim_time=0,
    )
    recipes = RecipeBook([Recipe.from_dict(r) for r in ctx.get("recipes", [])])
    blockage = BlockageRecord(
        issue=IssueType(ctx["issue"]),
        node_id=int(ctx["node_id"]),
        item=ctx["item"],
        count=int(ctx["count"]),
    )
    return plan_local_recovery(state, view, recipes, blockage)


def compute_metrics(trace: Trace, spec: EpisodeSpec | None = None, replay=None) -> EpisodeMetrics:
    """Count one finished trace into EpisodeMetrics. Ratio fields are None
    (absent) when their denominator is zero. `replay` stands in for
    `replay_local_feasibility` and must return what it returns.

    The trace's last event is its one `episode_end`, as `simulate_episode`
    writes it and `Trace.from_jsonl` requires."""
    if replay is None:
        replay = replay_local_feasibility
    end = trace.events[-1] if trace.events else None
    if end is None or end["kind"] != "episode_end":
        raise ValueError("incomplete trace: no episode_end event")

    cs = msg = opened = fulfilled = adj = escalations = unnecessary = 0
    resolved = local_resolved = abandoned = abandoned_after_recovery = 0
    token_bytes = 0
    durations: list[int] = []

    for e in trace.events:
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
            if p.get("adjudicator_request"):
                token_bytes += len(p["adjudicator_request"].encode("utf-8"))
            if p.get("adjudicator_reply"):
                token_bytes += len(p["adjudicator_reply"].encode("utf-8"))
            if p.get("verdict") == "escalate":
                escalations += 1
                ctx = p.get("solver_ctx")
                if ctx is not None:
                    replayed = replay(ctx)
                    if replayed is not None and replayed.total_cost <= LOCAL_BUDGET:
                        unnecessary += 1
        elif kind == "issue":
            event = p.get("event")
            if event == "resolved":
                resolved += 1
                if p.get("windows", 0) == 0:
                    local_resolved += 1
                durations.append(int(p.get("duration", 0)))
            elif event == "abandoned":
                abandoned += 1
                if p.get("recovery_activated") or p.get("windows", 0) > 0:
                    abandoned_after_recovery += 1

    payload = end["payload"]
    return EpisodeMetrics(
        episode_id=payload.get("episode_id") or (spec.episode_id if spec else None),
        class_label=payload.get("class_label") or (spec.class_label if spec else None),
        tsr=float(payload["completion"]),
        cs=cs,
        msg=msg,
        escalations=escalations,
        adjudicator_calls=adj,
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
    return sum(values) / len(values) if values else None


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


def metrics_to_csv(metrics: list[EpisodeMetrics]) -> str:
    """One row per episode, then ALL + per-class aggregate rows."""
    columns = list(EpisodeMetrics.__slots__)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns)
    writer.writeheader()
    for m in metrics:
        writer.writerow({k: ("" if v is None else v) for k, v in m.to_dict().items()})
    agg = aggregate(metrics)
    per_class = agg.pop("per_class")

    def agg_row(label: str, row: dict) -> dict:
        out = {k: "" for k in columns}
        out["episode_id"] = label
        out["class_label"] = ""
        for k, v in row.items():
            if k in columns and v is not None:
                out[k] = v
        return out

    writer.writerow(agg_row("ALL", agg))
    for c, row in per_class.items():
        writer.writerow(agg_row(f"CLASS_{c}", row))
    return buf.getvalue()


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
        return [compute_metrics(r.trace, spec) for r in runs], [r.partition_dependent for r in runs]
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
    # a re-gated trace shares its reference's solver contexts, so each
    # distinct context is replayed once; `traces` keeps every one alive
    plans: dict[int, RecoveryPlan | None] = {}

    def replay_once(ctx: dict) -> RecoveryPlan | None:
        if id(ctx) not in plans:
            plans[id(ctx)] = replay_local_feasibility(ctx)
        return plans[id(ctx)]

    return [compute_metrics(t, spec, replay_once) for t in traces], simulated


def run_config_suite(
    episodes: list[EpisodeSpec], configs: list[RunConfig], jobs: int = 1,
    backend: str | None = None,
) -> tuple[list[list[EpisodeMetrics]], list[bool]]:
    """`run_configs` over every episode, one task per episode, spread over
    `jobs` worker processes. Returns each config's metrics in episode order
    and the `partition_dependent` flag of every simulated run.

    `backend` names a scripted or remote backend (see `make_backend`), or
    is None for the mock. Such a backend may reply by the order of its
    calls, so each config gets its own instance for the whole suite, no run
    is re-gated, and the episodes run one by one in this process."""
    args = (episodes, repeat(configs))
    if backend is not None:
        backends = [make_backend(backend) for _ in configs]
        results = [run_configs(spec, configs, backends) for spec in episodes]
    elif jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # pulls in multiprocessing

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            # about four chunks per worker, `multiprocessing.Pool.map`'s default rule
            chunksize = max(1, len(episodes) // (4 * jobs))
            results = list(pool.map(run_configs, *args, chunksize=chunksize))
    else:
        results = list(map(run_configs, *args))
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
    episodes: list[EpisodeSpec],
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
    episodes: list[EpisodeSpec], calib_fraction: float, seed: int = 0
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
    scripted:<file>   — replays recorded replies, one JSON object per line.
    remote:<url>      — POSTs decision cards to an HTTP adjudicator at an
                        http(s) URL with a host and an optional port.
    """
    if name in (None, "", "mock"):
        return None
    if name.startswith("scripted:"):
        path = Path(name.split(":", 1)[1])
        replies = [line for line in path.read_text().splitlines() if line.strip()]
        return ScriptedAdjudicator(replies)
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


def adjudicator_replies(trace: Trace) -> list[str]:
    """The reply transcript of a run, in call order — feed to a scripted
    backend to replay the run without the original adjudicator."""
    return [
        e["payload"]["adjudicator_reply"]
        for e in trace.events
        if e["kind"] == "gate_decision" and e["payload"].get("adjudicator_reply")
    ]
