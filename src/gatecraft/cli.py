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
from .gate import TIERS, GateThresholds, GateWeights
from .harness import (
    MEAN_FIELDS,
    RATIO_FIELDS,
    CalibrationConfig,
    EpisodeMetrics,
    aggregate,
    calibrate,
    compute_metrics,
    csv_text,
    make_backend,
    map_episodes,
    metrics_to_csv,
    run_config_suite,
    split_templates,
)
from .scenarios import generate_dataset, load_dataset, save_dataset

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

# (variant, RunConfig overrides) — the same dataset across all six.
ABLATION_VARIANTS = [
    ("base", {"tiers": 0, "partition_on": False}),
    ("no_partition", {"partition_on": False}),
    ("no_gating", {"tiers": 0}),
    ("rule", {"tiers": 1}),
    ("rule_score", {"tiers": 2, "thresholds": GateThresholds(0.45, 0.45)}),
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
        if bad := sorted(k for k, v in data.items() if v is None or isinstance(v, dict)):
            raise UsageError(f"config file {path} sets {', '.join(bad)} to null or an object; "
                             f"give a key its flag's value, or leave it out")
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


def _cast(cast, kind: str):
    """A converter: `cast` of the text, or ValueError("must be <kind>")."""
    def convert(text: str):
        try:
            return cast(text)
        except (ValueError, KeyError):
            raise ValueError(f"must be {kind}") from None
    return convert


def _within(convert, rule: str, ok):
    """`convert`, also rejecting a value that fails `ok`."""
    def checked(text: str):
        value = convert(text)
        if not ok(value):
            raise ValueError(f"must be {rule}")
        return value
    return checked


def _threshold_pair(text: str) -> GateThresholds:
    lo, hi = map(float, text.split(","))
    return GateThresholds(lo, hi)


def _tier_depth(text: str) -> int:
    """How many of TIERS a comma list names: `none` alone, or a non-empty
    prefix of them."""
    names = {t.strip().lower() for t in text.split(",") if t.strip()}
    if names == {"none"}:
        return 0
    if not names or names != set(TIERS[:len(names)]):
        raise ValueError(names)
    return len(names)


_ON_OFF = {"true": True, "1": True, "yes": True, "on": True,
           "false": False, "0": False, "no": False, "off": False}
_integer = _cast(int, "an integer")
_number = _cast(float, "a number")
_count = _within(_integer, ">= 1", lambda n: n >= 1)
_on_off = _cast(lambda t: _ON_OFF[t.strip().lower()], "true/false, 1/0, yes/no or on/off")


def _backend(text: str) -> str | None:
    """The backend's name, or None for the mock. It is checked by building
    it once: an unknown kind or a script that cannot be read is a usage
    error, not a failed run."""
    try:
        return None if make_backend(text) is None else text
    except FileNotFoundError as exc:
        raise UsageError(f"backend script not found: {exc.filename}")
    except OSError as exc:
        raise UsageError(f"--backend {text}: {exc.strerror}")
    except ValueError as exc:
        raise UsageError(f"--backend: {exc}")


def _grid(text: str) -> dict:
    if text in GRID_PRESETS:
        return GRID_PRESETS[text]
    path = Path(text)
    if not path.is_file():
        raise ValueError(f"must be a preset ({', '.join(sorted(GRID_PRESETS))}) or a JSON file")
    data = _parse_json(path.read_text(), f"grid file {path}")
    if not isinstance(data, dict) or "weights" not in data or "thresholds" not in data:
        raise UsageError(f"grid file {path} must be a JSON object with "
                         f"'weights' and 'thresholds' lists")
    grid = {"weights": _grid_rows(path, data, "weights", 5, _integer),
            "thresholds": _grid_rows(path, data, "thresholds", 2, _number)}
    try:  # checked here as calibrate checks it, so a rejected entry names the file
        CalibrationConfig(grid["weights"], grid["thresholds"])
    except ValueError as exc:
        raise UsageError(f"grid file {path}: {exc}") from None
    return grid


def _grid_rows(path: Path, data: dict, key: str, size: int, convert) -> list[tuple]:
    """`data[key]` as a list of `size`-tuples, each entry read by `convert`
    as a config-file value is (`--weights` takes integers, `--thresholds`
    numbers). A bad entry is a usage error naming the file and the entry,
    e.g. `weights[0][2]`."""
    rows = data[key]
    if not isinstance(rows, list):
        raise UsageError(f"grid file {path}: {key} must be a list of {size}-entry lists, "
                         f"not {rows!r}")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != size:
            raise UsageError(f"grid file {path}: {key}[{i}] must be a list of {size} entries, "
                             f"not {row!r}")
        values = []
        for j, v in enumerate(row):
            try:
                values.append(convert(_as_text(v)))
            except ValueError as exc:
                raise UsageError(f"grid file {path}: {key}[{i}][{j}] {exc}, not {v!r}") from None
        out.append(tuple(values))
    return out


# dest -> (converter, default) for every setting that takes a value. A
# converter takes text and raises ValueError("must be ...") or a UsageError
# with the whole message; a default of None leaves the setting to the
# config class (RunConfig, CalibrationConfig) or to the command.
SETTINGS = {
    "out": (Path, "out"),
    "seed": (_integer, "0"),
    "dataset": (Path, "dataset"),
    "jobs": (_count, "1"),
    "episodes": (_count, None),
    "backend": (_backend, "mock"),
    "weights": (_cast(lambda t: GateWeights.from_sequence([int(w) for w in t.split(",")]),
                      "5 comma-separated integers"), None),
    "thresholds": (_cast(_threshold_pair, "t_low,t_high with 0 <= t_low <= t_high <= 1"), None),
    "tiers": (_cast(_tier_depth, f"none or a prefix of {','.join(TIERS)}"), None),
    "no_partition": (_on_off, None),
    "window_timeout": (_count, None),
    "cooldown": (_within(_integer, ">= 0", lambda n: n >= 0), None),
    "step_budget": (_count, None),
    "allow_unvalidated": (_on_off, None),
    "grid": (_grid, "small"),
    "calib_fraction": (_within(_number, "in (0, 1]", lambda f: 0 < f <= 1), "0.5"),
    "lam_time": (_number, None),
    "lam_redundant": (_number, None),
    "lam_llm": (_number, None),
    "traces": (Path, None),
}


def _as_text(value) -> str:
    """A config-file value as its flag would take it: a JSON list joined
    with commas, a JSON scalar as JSON writes it (`true`, `15`, `1.9`)."""
    if isinstance(value, list):
        return ",".join(v if isinstance(v, str) else json.dumps(v) for v in value)
    return value if isinstance(value, str) else json.dumps(value)


def _resolve(ns) -> None:
    """Convert each of the command's settings once, in place: the flag's
    value, else the config file's, else the default. A rejected value is a
    usage error naming the flag, and the file and key it came from. A
    command that runs episodes also gets its settings as one `run_config`."""
    cfg = _load_config_file(ns.config) if ns.config else {}
    takes = [dest for dest in vars(ns) if dest in SETTINGS]
    unknown = sorted(cfg.keys() - set(takes))
    if unknown:
        raise UsageError(f"config file {ns.config} sets keys the {ns.subcommand} command does not take: "
                         + ", ".join(unknown))
    sources = {}
    for dest in takes:
        convert, value = SETTINGS[dest]  # the default, unless a flag or the file sets one
        source = ""
        if getattr(ns, dest) is not None:
            value = getattr(ns, dest)
        elif dest in cfg:
            value = _as_text(cfg[dest])
            source = f": config file {ns.config} sets {dest} = {cfg[dest]!r}"
        if value is None:
            continue
        try:
            setattr(ns, dest, convert(value))
        except ValueError as exc:
            raise UsageError(f"--{dest.replace('_', '-')} {exc}{source}")
        except UsageError as exc:
            raise UsageError(f"{exc}{source}")
        sources[dest] = source
    if "weights" in takes:
        try:
            ns.run_config = _run_config(vars(ns))
        except ValueError as exc:
            # each setting's own range is its converter's; what RunConfig
            # checks beyond them is the weights' envelope
            raise UsageError(f"--weights: {exc}{sources.get('weights', '')}")


def _run_config(s: dict) -> RunConfig:
    """The run settings; RunConfig owns the default of each one not set.
    They are read by key, so the gate fields keep their few readers."""
    given = dict(tiers=s["tiers"], weights=s["weights"], thresholds=s["thresholds"],
                 partition_on=None if s["no_partition"] is None else not s["no_partition"],
                 window_timeout=s["window_timeout"], cooldown_duration=s["cooldown"],
                 step_budget=s["step_budget"], allow_unvalidated=s["allow_unvalidated"])
    return RunConfig(**{k: v for k, v in given.items() if v is not None})


def _require_dataset(ns):
    path = ns.dataset
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
    return episodes[:getattr(ns, "episodes", None)]


def _out_dir(ns) -> Path:
    ns.out.mkdir(parents=True, exist_ok=True)
    return ns.out


def _episode_worker(spec, config: RunConfig, backend, traces_dir: Path) -> EpisodeMetrics:
    """Run one episode; write its trace to `<traces_dir>/<episode_id>.jsonl`.
    Returns the episode's metrics."""
    trace = run_episode(spec, config, backend)
    (traces_dir / f"{spec.episode_id}.jsonl").write_text(trace.to_jsonl())
    return compute_metrics(trace)


def _run_suite(episodes, config: RunConfig, backend_name, jobs: int, traces_dir: Path):
    """Run every episode (`map_episodes`); yield each one's metrics, in
    episode order.

    Only the default/mock backend fans out across processes: a scripted
    backend is a single consumable reply stream, and remote replies should be
    recorded in a stable call order."""
    backend = make_backend(backend_name)
    yield from map_episodes(_episode_worker, episodes, jobs if backend is None else 1, config,
                            backend, traces_dir)


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


def cmd_gen(ns) -> int:
    out = _out_dir(ns)
    manifest, episodes = generate_dataset(ns.seed)
    save_dataset(manifest, episodes, out)
    print(f"wrote {manifest['total_episodes']} episode specs to {out} "
          f"(per class {manifest['per_class']}, "
          f"{manifest['two_agent_episodes']} two-agent / "
          f"{manifest['three_agent_episodes']} three-agent)")
    return EXIT_OK


def cmd_run(ns) -> int:
    episodes = _require_dataset(ns)
    out = _out_dir(ns)
    traces_dir = out / "traces"
    traces_dir.mkdir(exist_ok=True)

    metrics = list(_run_suite(episodes, ns.run_config, ns.backend, ns.jobs, traces_dir))
    (out / "metrics.csv").write_text(metrics_to_csv(metrics))

    agg = aggregate(metrics)
    print(f"ran {len(metrics)} episodes -> {traces_dir} and {out / 'metrics.csv'}")
    print(f"TSR {agg['tsr']:.4f}  CS {agg['cs']:.1f}  Msg {agg['msg']:.2f}  "
          f"escalations {agg['escalations']:.2f}  adjudicator {agg['adjudicator_calls']:.2f}")
    # else a dead endpoint passes for a cautious gate
    if failed := sum(m.adjudicator_failures for m in metrics):
        print(f"warning: {failed} of {sum(m.adjudicator_calls for m in metrics)} adjudicator calls "
              "failed; those gate passes stayed local", file=sys.stderr)
    return EXIT_OK


def _print_runs(simulated: int, total: int, partition_dependent: int | None = None) -> None:
    """The simulated/re-gated split, and when it is known, how many of the
    simulated runs had a team-view read that the partition setting changed."""
    line = f"simulated {simulated} of {total} runs, re-gated {total - simulated}"
    if partition_dependent is not None:
        line += f", partition-dependent {partition_dependent}"
    print(line)


def cmd_ablate(ns) -> int:
    episodes = _require_dataset(ns)
    out = _out_dir(ns)

    configs = [dataclasses.replace(ns.run_config, **overrides) for _, overrides in ABLATION_VARIANTS]
    per_variant, flags = run_config_suite(episodes, configs, ns.jobs, ns.backend)

    columns = ["variant", "tsr", "cs", "ecr", "msg", "escalations",
               "adjudicator_calls", "adjudicator_failures", "token_cost"]
    rows = []
    for (name, _), metrics in zip(ABLATION_VARIANTS, per_variant):
        agg = aggregate(metrics)
        rows.append({"variant": name, **{c: agg[c] for c in columns[1:]}})
    (out / "ablation.csv").write_text(csv_text(columns, rows))
    print(_format_table(rows, columns))
    _print_runs(len(flags), len(configs) * len(episodes), sum(flags))
    print(f"wrote {out / 'ablation.csv'}")
    return EXIT_OK


def cmd_calibrate(ns) -> int:
    episodes = _require_dataset(ns)
    lambdas = {k: vars(ns)[k] for k in ("lam_time", "lam_redundant", "lam_llm")
               if vars(ns)[k] is not None}
    out = _out_dir(ns)

    if ns.calib_fraction == 1.0:
        calib_eps = episodes
        split = None
    else:
        try:
            split = split_templates(episodes, ns.calib_fraction, seed=ns.seed)
        except ValueError as exc:
            raise UsageError(str(exc))
        chosen = set(split["calib"])
        calib_eps = episodes.select([i for i, e in enumerate(episodes) if e.template_id in chosen])

    try:
        calib_config = CalibrationConfig(
            weight_grid=ns.grid["weights"],
            threshold_grid=ns.grid["thresholds"],
            **lambdas,
        )
    except ValueError as exc:
        raise UsageError(str(exc))

    theta, table, simulated = calibrate(calib_eps, calib_config, jobs=ns.jobs)
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


def cmd_report(ns) -> int:
    out = _out_dir(ns)
    traces_dir = ns.traces or out / "traces"
    trace_files = sorted(traces_dir.glob("*.jsonl")) if traces_dir.is_dir() else []
    if not trace_files:
        raise UsageError(f"no trace files under {traces_dir}; run `gatecraft run` first")

    metrics = []
    for f in trace_files:
        try:
            metrics.append(compute_metrics(Trace.from_jsonl(f.read_text())))
        except ValueError as exc:  # not JSONL, another schema, or a value the count cannot read
            raise ValueError(f"{f}: {exc}") from exc
    agg = aggregate(metrics)
    per_class = agg.pop("per_class")

    columns = ["scope", "n", *MEAN_FIELDS, *RATIO_FIELDS]
    rows = [{"scope": "ALL", **agg}]
    rows += [{"scope": f"class {c}", **per_class[c]} for c in sorted(per_class)]
    print(f"{len(metrics)} episodes from {traces_dir}")
    print(_format_table(rows, columns))

    (out / "summary.csv").write_text(csv_text(columns, rows))
    print(f"wrote {out / 'summary.csv'}")

    ablation = out / "ablation.csv"
    if ablation.is_file():
        print("\nsensitivity (from ablation.csv):")
        print(ablation.read_text().strip())
    return EXIT_OK


# -- argument plumbing -------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, seed=False, dataset=False, run_flags=False):
    """Every flag stores text; `SETTINGS` converts it (see `_resolve`)."""
    p.add_argument("--config", help="config file (JSON or key=value lines); flags override it")
    p.add_argument("--out", help="output directory (default: out)")
    if seed:
        p.add_argument("--seed", help="seed (default: 0)")
    if dataset:
        p.add_argument("--dataset", help="dataset directory or episodes.jsonl (default: dataset)")
        p.add_argument("--jobs", help="parallel episode workers (default: 1)")
    if run_flags:
        p.add_argument("--backend", help="mock | scripted:<file> | remote:<url> (default: mock)")
        p.add_argument("--weights", help="wC,wR,wI,wL,wH (default: 4,2,2,2,1)")
        p.add_argument("--thresholds", help="t_low,t_high (default: 0.4,0.5)")
        p.add_argument("--tiers", help="how deep the gate's cascade runs: none, rules, "
                                       "rules,score or rules,score,adjudicator (default)")
        p.add_argument("--no-partition", action="store_const", const="true",
                       help="share live teammate inventories (partition off)")
        p.add_argument("--window-timeout", dest="window_timeout")
        p.add_argument("--cooldown", help="cooldown base duration")
        p.add_argument("--step-budget", dest="step_budget")
        p.add_argument("--allow-unvalidated", action="store_const", const="true",
                       help="accept weight vectors outside the sanity envelope")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gatecraft", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate the episode dataset")
    _add_common(p, seed=True)

    p = sub.add_parser("run", help="run episodes, write traces + metrics CSV")
    _add_common(p, dataset=True, run_flags=True)
    p.add_argument("--episodes", help="run only the first N episodes")

    p = sub.add_parser("ablate", help="run the six-variant comparison")
    _add_common(p, dataset=True, run_flags=True)

    p = sub.add_parser("calibrate", help="grid-search gate weights and thresholds")
    _add_common(p, seed=True, dataset=True)
    p.add_argument("--grid", help="preset (small, default) or a JSON grid file")
    p.add_argument("--calib-fraction", dest="calib_fraction",
                   help="template fraction used for calibration, in (0, 1] (1 = all; default 0.5)")
    p.add_argument("--lam-time", dest="lam_time")
    p.add_argument("--lam-redundant", dest="lam_redundant")
    p.add_argument("--lam-llm", dest="lam_llm")

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


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        _resolve(ns)
        return COMMANDS[ns.subcommand](ns)
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
