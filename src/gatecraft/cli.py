"""Command-line front end.

Subcommands: gen (dataset), run (batch episodes -> traces + metrics CSV),
ablate (six-variant comparison), calibrate (grid search over gate settings),
report (tables from recorded traces).

Every subcommand is deterministic given its inputs, the seed (`gen` and
`calibrate`), and the backend script; a remote adjudicator is the only
nondeterminism source, and its request/reply bytes land verbatim in the
traces so the run can be replayed with the scripted backend.

Exit codes: 0 success, 1 usage/config error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .agent import RunConfig, Trace, run_episode
from .gate import GateThresholds, GateWeights
from .harness import (
    REQUIRED_PAYLOAD,
    CalibrationConfig,
    EpisodeMetrics,
    aggregate,
    calibrate,
    compute_metrics,
    make_backend,
    metrics_to_csv,
    run_config_suite,
    split_templates,
)
from .scenarios import generate_dataset, load_dataset, save_dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

TIER_NAMES = ("rules", "score", "adjudicator")

# (variant, RunConfig overrides) — the same dataset across all six.
ABLATION_VARIANTS = [
    ("base", {"rules_on": False, "score_on": False, "adjudicator_on": False,
              "partition_on": False}),
    ("no_partition", {"partition_on": False}),
    ("no_gating", {"rules_on": False, "score_on": False, "adjudicator_on": False}),
    ("rule", {"score_on": False, "adjudicator_on": False}),
    ("rule_score", {"adjudicator_on": False, "thresholds": GateThresholds(0.45, 0.45)}),
    ("full", {}),
]

GRID_PRESETS = {
    "small": {
        "weights": [(4, 2, 2, 2, 1), (3, 2, 2, 2, 1)],
        "thresholds": [(0.4, 0.5), (0.45, 0.45)],
    },
    "default": {
        "weights": [(4, 2, 2, 2, 1), (3, 2, 2, 2, 1), (4, 3, 2, 2, 1), (5, 3, 3, 2, 1)],
        "thresholds": [(0.4, 0.5), (0.45, 0.45)],
    },
}


class UsageError(Exception):
    """Bad flags, bad config values, or missing inputs."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we reserve that
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _parse_numbers(text, n, label, cast):
    if isinstance(text, (list, tuple)):
        parts = list(text)
    else:
        parts = [p for p in str(text).replace(" ", "").split(",") if p]
    if len(parts) != n:
        raise UsageError(f"{label} needs {n} comma-separated values, got {text!r}")
    try:
        return tuple(cast(p) for p in parts)
    except (TypeError, ValueError):
        raise UsageError(f"{label} has a non-numeric entry: {text!r}")


def _parse_tiers(text) -> tuple[bool, bool, bool]:
    if isinstance(text, (list, tuple)):
        names = {str(t).strip().lower() for t in text}
    else:
        names = {t.strip().lower() for t in str(text).split(",") if t.strip()}
    names.discard("none")
    unknown = names - set(TIER_NAMES)
    if unknown:
        raise UsageError(f"unknown tiers {sorted(unknown)} (choose from {TIER_NAMES})")
    return tuple(t in names for t in TIER_NAMES)


def _parse_json(text: str, source: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{source}: invalid JSON at line {exc.lineno} "
                         f"column {exc.colno}: {exc.msg}")


def _load_config_file(path: str) -> dict:
    """One human-editable document: JSON if it looks like JSON, else key=value lines."""
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"config file not found: {path}")
    text = p.read_text()
    if text.lstrip().startswith("{"):
        data = _parse_json(text, f"config file {path}")
        if not isinstance(data, dict):
            raise UsageError("JSON config must be an object")
        return data
    out: dict = {}
    for i, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"config line {i} is not key=value: {line!r}")
        key, value = line.split("=", 1)
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _pick(ns, cfg: dict, key: str, default):
    """CLI flag beats config file beats hard default."""
    value = getattr(ns, key, None)
    if value is not None:
        return value
    if key in cfg:
        return cfg[key]
    return default


def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    return str(value).strip().lower() in ("1", "true", "yes", "on")


_KINDS = {int: "an integer", float: "a number"}


def _given(ns, cfg: dict, settings) -> dict:
    """`{name: convert(value)}` for each `(key, name, convert)` in `settings`
    whose key a flag or the config file set. The config class owns the
    defaults of the rest. argparse has already converted the flags, so a
    value that `convert` rejects came from the config file: a usage error
    that names the flag, the key and the file."""
    out = {}
    for key, name, convert in settings:
        if (value := _pick(ns, cfg, key, None)) is not None:
            try:
                out[name] = convert(value)
            except (TypeError, ValueError):
                raise UsageError(f"--{key.replace('_', '-')} must be {_KINDS.get(convert, 'valid')}:"
                                 f" config file {ns.config} sets {key} = {value!r}")
    return out


_RUN_SETTINGS = (
    ("no_partition", "partition_on", lambda value: not _as_bool(value)),
    ("window_timeout", "window_timeout", int),
    ("cooldown", "cooldown_duration", int),
    ("step_budget", "step_budget", int),
    ("allow_unvalidated", "allow_unvalidated", _as_bool),
)


def _run_config(ns, cfg: dict) -> RunConfig:
    weights = _pick(ns, cfg, "weights", None)
    thresholds = _pick(ns, cfg, "thresholds", None)
    tiers = _pick(ns, cfg, "tiers", None)
    kwargs = _given(ns, cfg, _RUN_SETTINGS)
    if tiers is not None:
        kwargs.update(zip(("rules_on", "score_on", "adjudicator_on"), _parse_tiers(tiers)))
    if weights is not None:
        kwargs["weights"] = GateWeights.from_sequence(
            _parse_numbers(weights, 5, "--weights", int))
    if thresholds is not None:
        lo, hi = _parse_numbers(thresholds, 2, "--thresholds", float)
        kwargs["thresholds"] = GateThresholds(lo, hi)
    try:
        return RunConfig(**kwargs)
    except ValueError as exc:
        raise UsageError(str(exc))


def _require_dataset(ns, cfg: dict):
    path = Path(_pick(ns, cfg, "dataset", "dataset"))
    if path.is_dir():
        path = path / "episodes.jsonl"
    if not path.is_file():
        raise UsageError(f"dataset not found: {path} (generate one with `gatecraft gen`)")
    try:
        episodes = load_dataset(path)
    except ValueError as exc:
        raise UsageError(str(exc))
    if not episodes:
        raise UsageError(f"dataset at {path} holds no episodes")
    limit = _given(ns, cfg, [("episodes", "episodes", int)]).get("episodes")
    if limit is not None:
        if limit < 1:
            raise UsageError("--episodes must be >= 1")
        episodes = episodes[:limit]
    return episodes


def _jobs(ns, cfg: dict) -> int:
    jobs = _given(ns, cfg, [("jobs", "jobs", int)]).get("jobs", 1)
    if jobs < 1:
        raise UsageError("--jobs must be >= 1")
    return jobs


def _backend_name(ns, cfg: dict) -> str | None:
    """The chosen backend's name, or None for the mock. It is checked by
    building it once: an unknown kind or a script that cannot be read is a
    usage error, not a failed run."""
    name = _pick(ns, cfg, "backend", "mock")
    try:
        if make_backend(name) is None:
            return None
    except FileNotFoundError as exc:
        raise UsageError(f"backend script not found: {exc.filename}")
    except OSError as exc:
        raise UsageError(f"--backend {name}: {exc.strerror}")
    except ValueError as exc:
        raise UsageError(f"--backend: {exc}")
    return name


def _out_dir(ns, cfg: dict) -> Path:
    out = Path(_pick(ns, cfg, "out", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _episode_worker(task) -> EpisodeMetrics:
    """Run one episode; write its trace to `<traces_dir>/<episode_id>.jsonl`
    only when a directory is given."""
    spec, config, backend, traces_dir = task
    trace = run_episode(spec, config, backend)
    if traces_dir is not None:
        (traces_dir / f"{spec.episode_id}.jsonl").write_text(trace.to_jsonl())
    return compute_metrics(trace, spec)


def _run_suite(episodes, config: RunConfig, backend_name, jobs: int, traces_dir: Path | None = None):
    """Run every episode; yield its metrics in episode order.

    Only the default/mock backend fans out across processes: a scripted
    backend is a single consumable reply stream, and remote replies should be
    recorded in a stable call order."""
    backend = make_backend(backend_name)
    tasks = [(spec, config, backend, traces_dir) for spec in episodes]
    if backend is None and jobs > 1:
        from concurrent.futures import ProcessPoolExecutor  # pulls in multiprocessing

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            yield from pool.map(_episode_worker, tasks)
        return
    for task in tasks:
        yield _episode_worker(task)


def _format_table(rows: list[dict], columns: list[str]) -> str:
    def fmt(v):
        if v is None or v == "":
            return "-"
        if isinstance(v, float):
            return f"{v:.4f}"
        return str(v)

    table = [[fmt(r.get(c)) for c in columns] for r in rows]
    widths = [max(len(c), *(len(row[i]) for row in table)) for i, c in enumerate(columns)]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    lines += ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in table]
    return "\n".join(lines)


# -- subcommands -----------------------------------------------------------------


def _write_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    """One header line, then one line per row; a missing or None value is empty."""
    lines = [",".join(columns)]
    for r in rows:
        lines.append(",".join("" if r.get(c) is None else str(r[c]) for c in columns))
    path.write_text("\n".join(lines) + "\n")


def cmd_gen(ns, cfg: dict) -> int:
    seed = _given(ns, cfg, [("seed", "seed", int)]).get("seed", 0)
    out = _out_dir(ns, cfg)
    manifest, episodes = generate_dataset(seed)
    save_dataset(manifest, episodes, out)
    print(f"wrote {manifest['total_episodes']} episode specs to {out} "
          f"(per class {manifest['per_class']}, "
          f"{manifest['two_agent_episodes']} two-agent / "
          f"{manifest['three_agent_episodes']} three-agent)")
    return EXIT_OK


def cmd_run(ns, cfg: dict) -> int:
    episodes = _require_dataset(ns, cfg)
    config = _run_config(ns, cfg)
    backend_name = _backend_name(ns, cfg)
    jobs = _jobs(ns, cfg)
    out = _out_dir(ns, cfg)
    traces_dir = out / "traces"
    traces_dir.mkdir(exist_ok=True)

    metrics = list(_run_suite(episodes, config, backend_name, jobs, traces_dir))
    (out / "metrics.csv").write_text(metrics_to_csv(metrics))

    agg = aggregate(metrics)
    print(f"ran {len(metrics)} episodes -> {traces_dir} and {out / 'metrics.csv'}")
    print(f"TSR {agg['tsr']:.4f}  CS {agg['cs']:.1f}  Msg {agg['msg']:.2f}  "
          f"escalations {agg['escalations']:.2f}  adjudicator {agg['adjudicator_calls']:.2f}")
    return EXIT_OK


def _print_runs(simulated: int, total: int, partition_dependent: int | None = None) -> None:
    """The simulated/re-gated split, and when it is known, how many of the
    simulated runs had a team-view read that the partition setting changed."""
    line = f"simulated {simulated} of {total} runs, re-gated {total - simulated}"
    if partition_dependent is not None:
        line += f", partition-dependent {partition_dependent}"
    print(line)


def cmd_ablate(ns, cfg: dict) -> int:
    episodes = _require_dataset(ns, cfg)
    base_config = _run_config(ns, cfg)
    backend_name = _backend_name(ns, cfg)
    jobs = _jobs(ns, cfg)
    out = _out_dir(ns, cfg)

    configs = [dataclasses.replace(base_config, **overrides) for _, overrides in ABLATION_VARIANTS]
    total = len(configs) * len(episodes)
    if backend_name is None:
        # the mock replies the same whatever the call order, so runs can be re-gated
        per_variant, flags = run_config_suite(episodes, configs, jobs)
        simulated, partition_dependent = len(flags), sum(flags)
    else:
        per_variant = [list(_run_suite(episodes, config, backend_name, jobs)) for config in configs]
        simulated, partition_dependent = total, None

    rows = []
    for (name, _), metrics in zip(ABLATION_VARIANTS, per_variant):
        agg = aggregate(metrics)
        rows.append({
            "variant": name,
            "tsr": agg["tsr"],
            "cs": agg["cs"],
            "ecr": agg["ecr"],
            "msg": agg["msg"],
            "escalations": agg["escalations"],
            "adjudicator_calls": agg["adjudicator_calls"],
            "token_cost": agg["token_cost"],
        })

    columns = ["variant", "tsr", "cs", "ecr", "msg", "escalations",
               "adjudicator_calls", "token_cost"]
    _write_csv(out / "ablation.csv", rows, columns)
    print(_format_table(rows, columns))
    _print_runs(simulated, total, partition_dependent)
    print(f"wrote {out / 'ablation.csv'}")
    return EXIT_OK


def _resolve_grid(ns, cfg: dict) -> dict:
    grid = _pick(ns, cfg, "grid", "small")
    if isinstance(grid, dict):
        return grid
    if grid in GRID_PRESETS:
        return GRID_PRESETS[grid]
    path = Path(str(grid))
    if path.is_file():
        data = _parse_json(path.read_text(), f"grid file {path}")
        if not isinstance(data, dict) or "weights" not in data or "thresholds" not in data:
            raise UsageError(f"grid file {path} must be a JSON object with "
                             f"'weights' and 'thresholds' lists")
        return data
    raise UsageError(f"unknown grid {grid!r} (preset {sorted(GRID_PRESETS)} or a JSON file)")


def cmd_calibrate(ns, cfg: dict) -> int:
    episodes = _require_dataset(ns, cfg)
    grid = _resolve_grid(ns, cfg)
    given = _given(ns, cfg, [("seed", "seed", int), ("calib_fraction", "fraction", float),
                             *[(k, k, float) for k in ("lam_time", "lam_redundant", "lam_llm")]])
    seed, fraction = given.pop("seed", 0), given.pop("fraction", 0.5)  # the rest are lambdas
    jobs = _jobs(ns, cfg)
    out = _out_dir(ns, cfg)

    if fraction >= 1.0:
        calib_eps = episodes
        split = None
    else:
        try:
            split = split_templates(episodes, fraction, seed=seed)
        except ValueError as exc:
            raise UsageError(str(exc))
        chosen = set(split["calib"])
        calib_eps = [e for e in episodes if e.template_id in chosen]

    try:
        calib_config = CalibrationConfig(
            weight_grid=[tuple(int(x) for x in w) for w in grid["weights"]],
            threshold_grid=[(float(lo), float(hi)) for lo, hi in grid["thresholds"]],
            **given,
        )
    except ValueError as exc:
        raise UsageError(str(exc))

    theta, table, simulated = calibrate(calib_eps, calib_config, jobs=jobs)
    result = {
        "best": theta,
        "lambdas": {"time": calib_config.lam_time, "redundant": calib_config.lam_redundant,
                    "llm": calib_config.lam_llm},
        "episodes": len(calib_eps),
        "split": split,
    }
    (out / "theta.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    (out / "objective_table.json").write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")
    print(_format_table(
        [{**r, "weights": ",".join(map(str, r["weights"])),
          "thresholds": ",".join(map(str, r["thresholds"]))} for r in table],
        ["weights", "thresholds", "tsr", "c_time_hat", "c_redundant_hat", "c_llm_hat", "objective"],
    ))
    _print_runs(simulated, len(table) * len(calib_eps))
    print(f"best theta: weights={theta['weights']} thresholds={theta['thresholds']} "
          f"-> {out / 'theta.json'}")
    return EXIT_OK


def _first_bad_event(events: list) -> str | None:
    """Name the first decoded trace line that cannot be an event, or whose
    payload lacks a field that `compute_metrics` needs, if any."""
    for i, event in enumerate(events, 1):
        if not isinstance(event, dict) or not {"step", "agent", "kind", "payload"} <= event.keys():
            return f"event {i} is not an object with step, agent, kind and payload"
        if not isinstance(event["payload"], dict):
            return f"event {i} has a payload that is not an object"
        for path in REQUIRED_PAYLOAD.get(event["kind"], ()):
            value = event["payload"]
            for depth, key in enumerate(path, 1):
                if not isinstance(value, dict) or key not in value:
                    field = ".".join(path[:depth])
                    return f"event {i} ({event['kind']}) has no payload field {field!r}"
                value = value[key]
    return None


def cmd_report(ns, cfg: dict) -> int:
    out = _out_dir(ns, cfg)
    traces_dir = Path(_pick(ns, cfg, "traces", out / "traces"))
    trace_files = sorted(traces_dir.glob("*.jsonl")) if traces_dir.is_dir() else []
    if not trace_files:
        raise UsageError(f"no trace files under {traces_dir}; run `gatecraft run` first")

    metrics = []
    for f in trace_files:
        try:
            trace = Trace.from_jsonl(f.read_text())
        except ValueError as exc:  # not JSONL, or another schema
            raise ValueError(f"{f}: {exc}") from exc
        try:
            metrics.append(compute_metrics(trace))
        except (KeyError, TypeError, AttributeError) as exc:
            # only a failed count pays for the shape scan; with every event
            # well-formed the error is the program's and keeps its own message
            bad = _first_bad_event(trace.events)
            if bad is None:
                raise
            raise ValueError(f"{f}: {bad}") from exc
        except ValueError as exc:
            raise ValueError(f"{f}: {exc}") from exc
    agg = aggregate(metrics)
    per_class = agg.pop("per_class")

    columns = ["scope", "n", "tsr", "cs", "msg", "escalations", "adjudicator_calls",
               "token_cost", "lrr", "uer", "ecr", "rsr", "recovery_time_avg"]
    rows = [{"scope": "ALL", **agg}]
    rows += [{"scope": f"class {c}", **per_class[c]} for c in sorted(per_class)]
    print(f"{len(metrics)} episodes from {traces_dir}")
    print(_format_table(rows, columns))

    _write_csv(out / "summary.csv", rows, columns)
    print(f"wrote {out / 'summary.csv'}")

    ablation = out / "ablation.csv"
    if ablation.is_file():
        print("\nsensitivity (from ablation.csv):")
        print(ablation.read_text().strip())
    return EXIT_OK


# -- argument plumbing -------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, seed=False, dataset=False, run_flags=False):
    p.add_argument("--config", help="config file (JSON or key=value lines); flags override it")
    p.add_argument("--out", help="output directory (default: out)")
    if seed:
        p.add_argument("--seed", type=int, help="seed (default: 0)")
    if dataset:
        p.add_argument("--dataset", help="dataset directory or episodes.jsonl (default: dataset)")
        p.add_argument("--jobs", type=int, help="parallel episode workers (default: 1)")
    if run_flags:
        p.add_argument("--backend", help="mock | scripted:<file> | remote:<url> (default: mock)")
        p.add_argument("--weights", help="wC,wR,wI,wL,wH (default: 4,2,2,2,1)")
        p.add_argument("--thresholds", help="t_low,t_high (default: 0.4,0.5)")
        p.add_argument("--tiers", help="comma list of enabled tiers from "
                                       "rules,score,adjudicator; 'none' disables all")
        p.add_argument("--no-partition", action="store_true", default=None,
                       help="share live teammate inventories (partition off)")
        p.add_argument("--window-timeout", type=int, dest="window_timeout")
        p.add_argument("--cooldown", type=int, help="cooldown base duration")
        p.add_argument("--step-budget", type=int, dest="step_budget")
        p.add_argument("--allow-unvalidated", action="store_true", default=None,
                       help="accept weight vectors outside the sanity envelope")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gatecraft", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate the episode dataset")
    _add_common(p, seed=True)

    p = sub.add_parser("run", help="run episodes, write traces + metrics CSV")
    _add_common(p, dataset=True, run_flags=True)
    p.add_argument("--episodes", type=int, help="run only the first N episodes")

    p = sub.add_parser("ablate", help="run the six-variant comparison")
    _add_common(p, dataset=True, run_flags=True)

    p = sub.add_parser("calibrate", help="grid-search gate weights and thresholds")
    _add_common(p, seed=True, dataset=True)
    p.add_argument("--grid", help="preset (small, default) or a JSON grid file")
    p.add_argument("--calib-fraction", type=float, dest="calib_fraction",
                   help="template fraction used for calibration (1.0 = all; default 0.5)")
    p.add_argument("--lam-time", type=float, dest="lam_time")
    p.add_argument("--lam-redundant", type=float, dest="lam_redundant")
    p.add_argument("--lam-llm", type=float, dest="lam_llm")

    p = sub.add_parser("report", help="summarize recorded traces")
    _add_common(p)
    p.add_argument("--traces", help="trace directory (default: <out>/traces)")

    return parser


COMMANDS = {
    "gen": cmd_gen,
    "run": cmd_run,
    "ablate": cmd_ablate,
    "calibrate": cmd_calibrate,
    "report": cmd_report,
}


def _check_config_keys(ns, cfg: dict) -> None:
    """A config file may set only the command's own flags, by their dests."""
    unknown = sorted(cfg.keys() - (vars(ns).keys() - {"config", "subcommand"}))
    if unknown:
        raise UsageError(f"config file {ns.config} sets keys the {ns.subcommand} command does not take: "
                         + ", ".join(unknown))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        cfg = _load_config_file(ns.config) if getattr(ns, "config", None) else {}
        _check_config_keys(ns, cfg)
        return COMMANDS[ns.subcommand](ns, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        return EXIT_RUNTIME
    except Exception as exc:  # runtime failure: broken inputs, backend crash, ...
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
