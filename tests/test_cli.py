"""End-to-end command-line checks, run in-process through main()."""

import csv
import gc
import json
import re
import socket

import pytest

from gatecraft import Trace, agent, cli, gate, harness, memory, scenarios, solver
from gatecraft.cli import main
from gatecraft.scenarios import EpisodeSpec, save_dataset

from conftest import record_pool_sizes


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory, dataset):
    """A four-episode dataset (one per class) saved to disk for CLI runs."""
    manifest, episodes = dataset
    picked = []
    for label in ("A", "B", "C", "D"):
        picked.append(next(e for e in episodes if e.class_label == label))
    root = tmp_path_factory.mktemp("ds")
    save_dataset(manifest, picked, root)
    return root


def _episode_end(trace_path):
    trace = Trace.from_jsonl(trace_path.read_text())
    last = trace.events[-1]
    assert last["kind"] == "episode_end"
    return last["payload"]


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen", "--out", str(a), "--seed", "3"]) == 0
    assert main(["gen", "--out", str(b), "--seed", "3"]) == 0
    for name in ("manifest.json", "episodes.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_writes_traces_and_metrics(tmp_path, small_dataset):
    out = tmp_path / "out"
    rc = main([
        "run", "--dataset", str(small_dataset), "--out", str(out),
        "--thresholds", "0.4,0.5",
    ])
    assert rc == 0
    traces = sorted((out / "traces").glob("*.jsonl"))
    assert len(traces) == 4
    for path in traces:
        payload = _episode_end(path)
        assert payload["reason"] in ("completed", "budget", "quiescent")
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    # header + 4 episodes + ALL + one row per class
    assert len(lines) == 1 + 4 + 1 + 4
    assert lines[0].split(",")[0] == "episode_id"


def test_run_is_deterministic(tmp_path, small_dataset):
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert main(["run", "--dataset", str(small_dataset), "--out", str(out)]) == 0
        outs.append(out)
    for path in sorted((outs[0] / "traces").glob("*.jsonl")):
        twin = outs[1] / "traces" / path.name
        assert path.read_bytes() == twin.read_bytes()
    assert (outs[0] / "metrics.csv").read_bytes() == (outs[1] / "metrics.csv").read_bytes()


def test_run_warns_when_adjudicator_calls_failed(tmp_path, small_dataset, capsys):
    """A dead endpoint keeps every adjudicator gate pass local, which reads
    like a cautious gate, so `run` counts the failed calls on stderr. Its
    exit code, stdout, traces and `metrics.csv` are those of the run."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(small_dataset), "--out", str(out),
                 "--backend", f"remote:http://127.0.0.1:{port}/"]) == 0
    captured = capsys.readouterr()
    traces = [Trace.from_jsonl(p.read_text()) for p in sorted((out / "traces").glob("*.jsonl"))]
    calls = [e["payload"]["adjudicator_ok"] for t in traces for e in t.events
             if e["payload"].get("tier") == "adjudicator"]
    assert calls and not any(calls)
    assert captured.err == (f"warning: {len(calls)} of {len(calls)} adjudicator calls failed; "
                            "those gate passes stayed local\n")
    assert "warning" not in captured.out
    with open(out / "metrics.csv", newline="") as f:
        rows = {r["episode_id"]: r for r in csv.DictReader(f)}
    episodes = [r for eid, r in rows.items() if eid != "ALL" and not eid.startswith("CLASS_")]
    assert sum(int(r["adjudicator_failures"]) for r in episodes) == len(calls)
    assert float(rows["ALL"]["adjudicator_failures"]) == len(calls) / len(traces)

    assert main(["run", "--dataset", str(small_dataset), "--out", str(tmp_path / "mock")]) == 0
    assert capsys.readouterr().err == ""


def test_a_pool_has_no_more_workers_than_episodes(tmp_path, small_dataset, monkeypatch):
    """A process pool starts all its workers at once, so `--jobs 64` on two
    episodes starts two, and on one episode runs it in this process."""
    sizes = record_pool_sizes(monkeypatch)
    args = ["--dataset", str(small_dataset), "--out", str(tmp_path / "o"), "--jobs", "64"]
    assert main(["run", *args, "--episodes", "2"]) == 0
    assert main(["run", *args, "--episodes", "1"]) == 0
    assert main(["ablate", *args]) == 0
    assert sizes == [2, 4]


@pytest.mark.parametrize("command", ["run", "ablate", "calibrate"])
def test_jobs_three_matches_jobs_one(tmp_path, small_dataset, capsys, command):
    """Three workers share four episodes in uneven slices; every output file
    is the one a run in this process writes."""
    flags = ["--grid", "small", "--calib-fraction", "1.0"] if command == "calibrate" else []
    outs = [tmp_path / f"j{jobs}" for jobs in ("1", "3")]
    for out, jobs in zip(outs, ("1", "3")):
        assert main([command, "--dataset", str(small_dataset), "--out", str(out), "--jobs", jobs,
                     *flags]) == 0
    capsys.readouterr()
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*") if p.is_file())
    assert files and files == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*") if p.is_file())
    for name in files:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


@pytest.fixture(scope="module")
def split_dataset(tmp_path_factory, dataset):
    """The first twelve episodes saved to disk: templates 0 (a00s0-a00s4)
    and 1 (a01s0-a01s4), and a02s0-a02s1 of template 2. A half split at
    seed 0 calibrates on templates 0 and 2, which are not contiguous."""
    manifest, episodes = dataset
    root = tmp_path_factory.mktemp("split")
    save_dataset(manifest, episodes[:12], root)
    return root


@pytest.mark.parametrize("command", ["run", "ablate", "calibrate"])
def test_a_loaded_dataset_fans_out_as_slices_of_lines(tmp_path, small_dataset, split_dataset,
                                                      monkeypatch, command):
    """A pool's tasks hold slices of the dataset's lines, so each worker
    decodes the specs it runs. `run` and `ablate` decode none in the parent
    before the pool starts. `calibrate` at `--calib-fraction 0.5` reads
    every spec to pick its templates, and its slices hold the lines of the
    calibration episodes alone."""
    tasks = []
    sizes = record_pool_sizes(monkeypatch, tasks)
    pools_at_decode = []
    decode = scenarios._decode
    monkeypatch.setattr(scenarios, "_decode",
                        lambda line: pools_at_decode.append(len(sizes)) or decode(line))
    if command == "calibrate":
        flags = ["--dataset", str(split_dataset), "--grid", "small", "--calib-fraction", "0.5"]
        expected = [f"a00s{i}" for i in range(5)] + ["a02s0", "a02s1"]
    else:
        flags = ["--dataset", str(small_dataset)]
        expected = None
    assert main([command, *flags, "--out", str(tmp_path / "o"), "--jobs", "3"]) == 0
    assert sizes == [3]
    slices = [args[1] for args in tasks]  # each task is (fn, slice, shared arguments)
    assert {type(s) for s in slices} == {scenarios.Dataset}
    if expected is None:
        assert sum(map(len, slices)) == 4
        assert pools_at_decode == [1] * 4
    else:
        # iterating a slice decodes through the spy too, after the pool has run
        workers_decoded = pools_at_decode.count(1)
        assert [spec.episode_id for s in slices for spec in s] == expected
        assert workers_decoded == len(expected)
        assert json.loads((tmp_path / "o" / "theta.json").read_text())["split"] == {
            "calib": [0, 2], "test": [1]}


def test_run_episode_limit(tmp_path, small_dataset):
    out = tmp_path / "out"
    rc = main([
        "run", "--dataset", str(small_dataset), "--out", str(out), "--episodes", "1",
    ])
    assert rc == 0
    assert len(list((out / "traces").glob("*.jsonl"))) == 1


def test_usage_errors_exit_one(tmp_path, small_dataset, capsys):
    assert main(["run", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]) == 1
    assert "dataset not found" in capsys.readouterr().err

    assert main(["report", "--out", str(tmp_path / "empty")]) == 1
    assert "no trace files" in capsys.readouterr().err

    rc = main([
        "run", "--dataset", str(small_dataset), "--out", str(tmp_path / "o2"),
        "--weights", "1,1,1,1,1",
    ])
    assert rc == 1
    assert "error:" in capsys.readouterr().err

    rc = main([
        "run", "--dataset", str(small_dataset), "--out", str(tmp_path / "o3"),
        "--tiers", "vibes",
    ])
    assert rc == 1

    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text('{\n  "seed": 1,\n  "thresholds": \n}\n')
    rc = main([
        "run", "--dataset", str(small_dataset), "--out", str(tmp_path / "o4"),
        "--config", str(bad_cfg),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert str(bad_cfg) in err and "line 4 column 1" in err

    # argparse-level failures funnel into the same exit code
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_dataset_directory_without_episodes_exits_one(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    for command in ("run", "ablate", "calibrate"):
        assert main([command, "--dataset", str(empty), "--out", str(tmp_path / "o")]) == 1
        assert f"dataset not found: {empty / 'episodes.jsonl'}" in capsys.readouterr().err


def test_bad_backend_exits_one_naming_the_flag_or_file(tmp_path, small_dataset, capsys):
    missing = tmp_path / "no_replies.jsonl"
    for command in ("run", "ablate"):
        args = [command, "--dataset", str(small_dataset), "--out", str(tmp_path / "o")]
        assert main(args + ["--backend", "bogus"]) == 1
        assert "error: --backend: unknown backend 'bogus'" in capsys.readouterr().err
        assert main(args + ["--backend", f"scripted:{missing}"]) == 1
        assert f"error: backend script not found: {missing}" in capsys.readouterr().err
    assert not (tmp_path / "o" / "metrics.csv").exists()


@pytest.mark.parametrize("url", ["localhost:9", "ftp://x/", "", "http://x:abc/"])
def test_a_remote_backend_url_that_cannot_work_exits_one(tmp_path, small_dataset, capsys, url):
    """A remote adjudicator is reached over http(s) at a host. Any other
    URL is a usage error before any episode runs, not a run whose every
    adjudicator call falls back to stay_local (or that stops part-way)."""
    assert main(["run", "--dataset", str(small_dataset), "--out", str(tmp_path / "o"),
                 "--backend", f"remote:{url}"]) == 1
    assert capsys.readouterr().err.endswith(
        "error: --backend: remote:<url> takes an http or https URL with a host and "
        f"an optional port in 1-65535, not {url!r}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "ablate", "calibrate"])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exits_one(tmp_path, small_dataset, capsys, command, jobs):
    args = [command, "--dataset", str(small_dataset), "--out", str(tmp_path / "o"), "--jobs", jobs]
    assert main(args) == 1
    assert "error: --jobs must be >= 1" in capsys.readouterr().err

    cfg = tmp_path / "jobs.cfg"
    cfg.write_text(f"jobs = {jobs}\n")
    assert main(args[:-2] + ["--config", str(cfg)]) == 1
    assert "error: --jobs must be >= 1" in capsys.readouterr().err

    cfg.write_text("jobs = two\n")
    assert main(args[:-2] + ["--config", str(cfg)]) == 1
    assert "error: --jobs must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("command, text, message", [
    ("run", "window_timeout = soon\n",
     "--window-timeout must be an integer: config file {cfg} sets window_timeout = 'soon'"),
    ("ablate", "step_budget = 1.5\n",
     "--step-budget must be an integer: config file {cfg} sets step_budget = '1.5'"),
    ("gen", "seed = abc\n", "--seed must be an integer: config file {cfg} sets seed = 'abc'"),
    ("calibrate", '{"lam_time": "x"}',
     "--lam-time must be a number: config file {cfg} sets lam_time = 'x'"),
    ("calibrate", "calib_fraction = half\n",
     "--calib-fraction must be a number: config file {cfg} sets calib_fraction = 'half'"),
    ("run", '{"window_timeout": 1.9}',
     "--window-timeout must be an integer: config file {cfg} sets window_timeout = 1.9"),
    ("run", '{"window_timeout": true}',
     "--window-timeout must be an integer: config file {cfg} sets window_timeout = True"),
    ("run", "no_partition = maybe\n", "--no-partition must be true/false, 1/0, yes/no or on/off:"
     " config file {cfg} sets no_partition = 'maybe'"),
    ("ablate", "allow_unvalidated = yes please\n", "--allow-unvalidated must be true/false, 1/0,"
     " yes/no or on/off: config file {cfg} sets allow_unvalidated = 'yes please'"),
    ("run", "weights = 1,2\n",
     "--weights must be 5 comma-separated integers: config file {cfg} sets weights = '1,2'"),
    ("ablate", "tiers = vibes\n", "--tiers must be none or a prefix of"
     " rules,score,adjudicator: config file {cfg} sets tiers = 'vibes'"),
    ("run", "step_budget = 0\n",
     "--step-budget must be >= 1: config file {cfg} sets step_budget = '0'"),
    ("ablate", '{"window_timeout": 0}',
     "--window-timeout must be >= 1: config file {cfg} sets window_timeout = 0"),
    ("run", '{"cooldown": -1}', "--cooldown must be >= 0: config file {cfg} sets cooldown = -1"),
])
def test_a_non_numeric_config_value_exits_one_naming_key_and_file(
        tmp_path, small_dataset, capsys, command, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    args = [command, "--out", str(tmp_path / "o"), "--config", str(cfg)]
    if command != "gen":
        args += ["--dataset", str(small_dataset)]
    assert main(args) == 1
    assert f"error: {message.format(cfg=cfg)}" in capsys.readouterr().err


def test_a_json_null_or_object_config_value_exits_one(tmp_path, capsys):
    """Neither has a flag form: a null is not a default, an object not a path."""
    cfg = tmp_path / "null.json"
    cfg.write_text('{"seed": 1, "out": null, "jobs": {"n": 2}}')
    assert main(["calibrate", "--config", str(cfg)]) == 1
    assert (f"error: config file {cfg} sets jobs, out to null or an object; give a key its"
            " flag's value, or leave it out" in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_out_of_range_thresholds_exit_one_naming_the_flag(tmp_path, small_dataset, capsys, command):
    args = [command, "--dataset", str(small_dataset), "--out", str(tmp_path / "o")]
    problem = "--thresholds must be t_low,t_high with 0 <= t_low <= t_high <= 1"
    assert main(args + ["--thresholds", "0.6,0.2"]) == 1
    assert capsys.readouterr().err.endswith(f"error: {problem}\n")

    cfg = tmp_path / "band.json"
    cfg.write_text('{"thresholds": [0.6, 0.2]}')
    assert main(args + ["--config", str(cfg)]) == 1
    assert (f"error: {problem}: config file {cfg} sets thresholds = [0.6, 0.2]"
            in capsys.readouterr().err)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("fraction", ["1.5", "0", "-0.5", "nan"])
def test_calib_fraction_outside_zero_one_exits_one(tmp_path, small_dataset, capsys, fraction):
    assert main(["calibrate", "--dataset", str(small_dataset), "--out", str(tmp_path / "o"),
                 "--calib-fraction", fraction]) == 1
    assert "error: --calib-fraction must be in (0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "o" / "theta.json").exists()


# One value of each setting that differs from its default: the flag's
# arguments, the same value as a key=value line, and as a JSON entry.
SAMPLES = {
    "out": (["--out", "o"], "o", "o"),
    "seed": (["--seed", "3"], "3", 3),
    "dataset": (["--dataset", "ds"], "ds", "ds"),
    "jobs": (["--jobs", "2"], "2", 2),
    "episodes": (["--episodes", "2"], "2", 2),
    "backend": (["--backend", "remote:http://127.0.0.1:9/adjudicate"],
                "remote:http://127.0.0.1:9/adjudicate", "remote:http://127.0.0.1:9/adjudicate"),
    "weights": (["--weights", "3,2,2,2,1"], "3,2,2,2,1", [3, 2, 2, 2, 1]),
    "thresholds": (["--thresholds", "0.45,0.45"], "0.45, 0.45", [0.45, 0.45]),
    "tiers": (["--tiers", "rules,score"], "rules,score", ["rules", "score"]),
    "no_partition": (["--no-partition"], "yes", True),
    "window_timeout": (["--window-timeout", "15"], "15", 15),
    "cooldown": (["--cooldown", "9"], "9", 9),
    "step_budget": (["--step-budget", "40"], "40", 40),
    "allow_unvalidated": (["--allow-unvalidated"], "on", True),
    "grid": (["--grid", "default"], "default", "default"),
    "calib_fraction": (["--calib-fraction", "1"], "1.0", 1),
    "lam_time": (["--lam-time", "0.3"], "0.3", 0.3),
    "lam_redundant": (["--lam-redundant", "0.3"], "0.3", 0.3),
    "lam_llm": (["--lam-llm", "0.3"], "0.3", 0.3),
    "traces": (["--traces", "t"], "t", "t"),
}
RUN_DESTS = ["weights", "thresholds", "tiers", "no_partition", "window_timeout", "cooldown",
                "step_budget", "allow_unvalidated"]


def _resolved(command, flags=(), config=None) -> dict:
    ns = cli.build_parser().parse_args([command, *flags, *(["--config", str(config)] * bool(config))])
    cli._resolve(ns)
    return {k: v for k, v in vars(ns).items() if k != "config"}


def test_a_flag_and_a_config_key_resolve_through_one_converter(tmp_path):
    """Every value-taking dest of every subcommand has one converter, and a
    value set as a flag, a key=value line or a JSON entry resolves the same."""
    parser = cli.build_parser()
    takes = {command: vars(parser.parse_args([command])).keys() - {"config", "subcommand"}
             for command in cli.COMMANDS}
    assert set().union(*takes.values()) == cli.SETTINGS.keys() == SAMPLES.keys()
    lines, entries = tmp_path / "one.cfg", tmp_path / "one.json"
    for command, dests in takes.items():
        for dest in sorted(dests):
            flag, line, entry = SAMPLES[dest]
            lines.write_text(f"{dest} = {line}\n")
            entries.write_text(json.dumps({dest: entry}))
            by_flag = _resolved(command, flag)
            assert by_flag != _resolved(command), (command, dest)
            assert _resolved(command, config=lines) == by_flag, (command, dest)
            assert _resolved(command, config=entries) == by_flag, (command, dest)


@pytest.mark.parametrize("dest", RUN_DESTS)
def test_a_run_setting_from_a_flag_a_line_or_json_runs_the_same(tmp_path, small_dataset, dest):
    """For a run setting, `resolves the same` means the same `episode_end.config`."""
    args = ["run", "--dataset", str(small_dataset), "--episodes", "1"]
    if dest == "allow_unvalidated":  # it only admits weights
        args += ["--weights", "1,1,1,1,1"]
    flag, line, entry = SAMPLES[dest]
    (tmp_path / "one.cfg").write_text(f"{dest} = {line}\n")
    (tmp_path / "one.json").write_text(json.dumps({dest: entry}))
    echoed = []
    for source in (flag, ["--config", str(tmp_path / "one.cfg")],
                   ["--config", str(tmp_path / "one.json")]):
        out = tmp_path / f"o{len(echoed)}"
        assert main(args + ["--out", str(out)] + source) == 0
        echoed.append(_episode_end(next((out / "traces").glob("*.jsonl")))["config"])
    assert echoed[0] == echoed[1] == echoed[2]
    if dest != "allow_unvalidated":
        assert main(args + ["--out", str(tmp_path / "d")]) == 0
        assert echoed[0] != _episode_end(next((tmp_path / "d" / "traces").glob("*.jsonl")))["config"]


@pytest.mark.parametrize("value, depth", [
    ("none", 0), ("rules", 1), ("rules,score", 2), ("Score, rules", 2),
    ("rules,score,adjudicator", 3),
])
def test_tiers_names_how_deep_the_cascade_runs(value, depth):
    assert _resolved("run", ["--tiers", value])["run_config"].tiers == depth


@pytest.mark.parametrize("value", ["score", "vibes", "rules,adjudicator", "none,score,adjudicator",
                                   "", ",", "none,rules", "rules,none"])
def test_tiers_other_than_a_prefix_of_the_cascade_exit_one(tmp_path, small_dataset, capsys, value):
    """A tier runs only behind every tier before it, so a list that skips
    one is a usage error naming the flag, or the file and the key. So is
    an empty list, and `none` next to a tier."""
    args = ["run", "--dataset", str(small_dataset), "--out", str(tmp_path / "o")]
    problem = "--tiers must be none or a prefix of rules,score,adjudicator"
    assert main(args + ["--tiers", value]) == 1
    assert capsys.readouterr().err.endswith(f"error: {problem}\n")
    cfg = tmp_path / "tiers.cfg"
    cfg.write_text(f"tiers = {value}\n")
    assert main(args + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err.endswith(f"error: {problem}: config file {cfg} sets tiers = {value!r}\n")
    assert not (tmp_path / "o").exists()


def test_tiers_rules_score_runs_the_rules_and_the_score(tmp_path, small_dataset):
    out = tmp_path / "o"
    assert main(["run", "--dataset", str(small_dataset), "--out", str(out), "--tiers", "rules,score"]) == 0
    traces = sorted((out / "traces").glob("*.jsonl"))
    tiers = {e["payload"]["tier"] for path in traces for e in Trace.from_jsonl(path.read_text()).events
             if e["kind"] == "gate_decision"}
    assert tiers == {"rule", "score"}
    assert {_episode_end(path)["config"]["tiers"] for path in traces} == {2}


@pytest.mark.parametrize("command, text, key", [
    ("run", "window_timout = 5\n", "window_timout"),
    ("run", "seed = 9\n", "seed"),
    ("report", '{"dataset": "dataset"}', "dataset"),
])
def test_a_config_key_the_command_does_not_take_exits_one(
        tmp_path, small_dataset, capsys, command, text, key):
    cfg = tmp_path / "extra.cfg"
    cfg.write_text(text)
    args = [command, "--out", str(tmp_path / "o"), "--config", str(cfg)]
    if command == "run":
        args += ["--dataset", str(small_dataset)]
    assert main(args) == 1
    assert f"error: config file {cfg} sets keys the {command} command does not take: {key}" \
        in capsys.readouterr().err
    assert not (tmp_path / "o" / "metrics.csv").exists()


@pytest.mark.parametrize("command", ["report", "run", "ablate"])
def test_report_takes_no_seed(tmp_path, capsys, command):
    """Only `gen` and `calibrate` use a seed."""
    assert main([command, "--out", str(tmp_path / "o"), "--seed", "1"]) == 1
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_unvalidated_weights_need_opt_in(tmp_path, small_dataset):
    args = [
        "run", "--dataset", str(small_dataset), "--out", str(tmp_path / "o"),
        "--episodes", "1", "--weights", "1,1,1,1,1",
    ]
    assert main(args) == 1
    assert main(args + ["--allow-unvalidated"]) == 0


@pytest.mark.parametrize("command", ["run", "ablate"])
def test_a_rejected_weight_vector_names_its_source(tmp_path, small_dataset, capsys, command):
    args = [command, "--dataset", str(small_dataset), "--out", str(tmp_path / "o")]
    problem = ("--weights: weight vector rejected: wC must exceed max(wR, wI, wL); "
               "min(wR, wI, wL) must exceed wH")
    assert main(args + ["--weights", "1,1,1,1,1"]) == 1
    assert capsys.readouterr().err.endswith(f"error: {problem}\n")

    cfg = tmp_path / "weights.cfg"
    cfg.write_text("weights = 1,1,1,1,1\n")
    assert main(args + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err.endswith(
        f"error: {problem}: config file {cfg} sets weights = '1,1,1,1,1'\n")
    assert not (tmp_path / "o").exists()


def test_config_file_with_flag_override(tmp_path, small_dataset):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults for this experiment\nwindow_timeout=15\nthresholds=0.45,0.45\n")
    out = tmp_path / "out"
    rc = main([
        "run", "--dataset", str(small_dataset), "--out", str(out),
        "--episodes", "1", "--config", str(cfg), "--thresholds", "0.4,0.5",
    ])
    assert rc == 0
    payload = _episode_end(next(iter((out / "traces").glob("*.jsonl"))))
    # the flag overrides the file; the file fills in what no flag set
    assert payload["config"]["thresholds"] == [0.4, 0.5]
    assert payload["config"]["window_timeout"] == 15


def test_config_file_json_form(tmp_path, small_dataset):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"thresholds": "0.45,0.45", "window_timeout": 15, "episodes": 1}))
    out = tmp_path / "out"
    rc = main(["run", "--dataset", str(small_dataset), "--out", str(out), "--config", str(cfg)])
    assert rc == 0
    assert len(list((out / "traces").glob("*.jsonl"))) == 1
    payload = _episode_end(next(iter((out / "traces").glob("*.jsonl"))))
    assert payload["config"]["thresholds"] == [0.45, 0.45]
    assert payload["config"]["window_timeout"] == 15


def test_report_tables_and_sensitivity(tmp_path, small_dataset, capsys):
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(small_dataset), "--out", str(out)]) == 0
    capsys.readouterr()

    assert main(["report", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "ALL" in text and "class A" in text and "class D" in text
    assert "sensitivity" not in text
    summary = (out / "summary.csv").read_text().strip().splitlines()
    assert summary[0].startswith("scope,n,tsr")
    assert len(summary) == 1 + 1 + 4
    for name in ("metrics.csv", "summary.csv"):  # one writer: every line ends in \n
        data = (out / name).read_bytes()
        assert b"\r" not in data and data.endswith(b"\n"), name

    (out / "ablation.csv").write_text("variant,tsr\nfull,1.0\n")
    assert main(["report", "--out", str(out)]) == 0
    assert "sensitivity" in capsys.readouterr().out


def test_report_names_the_rejected_trace(tmp_path, small_dataset, capsys, monkeypatch):
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(small_dataset), "--out", str(out)]) == 0
    good = sorted((out / "traces").glob("b*.jsonl"))[0]
    events = Trace.from_jsonl(good.read_text()).events
    traces = tmp_path / "traces"
    traces.mkdir()
    (traces / good.name).write_text(good.read_text())
    bad = traces / "bad.jsonl"
    capsys.readouterr()
    bad.write_text(Trace(events=events[:-1]).to_jsonl())
    assert main(["report", "--out", str(out), "--traces", str(traces)]) == 2
    assert f"{bad}: incomplete trace: no episode_end event" in capsys.readouterr().err

    bad.write_text("[1]\n")  # valid JSON, but not an event
    assert main(["report", "--out", str(out), "--traces", str(traces)]) == 2
    assert (f"runtime error: {bad}: event 1 is not an object with step, agent, kind and payload"
            in capsys.readouterr().err)

    lines = good.read_text().splitlines(keepends=True)
    not_an_event = "is not an object with step, agent, kind and payload"
    # the count could read past each of these events; `Trace.from_jsonl` names them
    countable = [{k: v for k, v in events[3].items() if k != key} for key in ("step", "agent")]
    countable += [{**events[3], key: value} for key, value in
                  (("step", "3"), ("step", 3.0), ("step", True), ("agent", None), ("kind", 7))]
    for line_4, problem in (('{"step": 0, "agent": "a0", "kind": "action"}\n', not_an_event),
                            ('{"step": 0, "agent": "a0", "kind": "issue", "payload": [1]}\n',
                             "has a payload that is not an object"),
                            *((json.dumps(e) + "\n", not_an_event) for e in countable)):
        bad.write_text("".join(lines[:3]) + line_4 + "".join(lines[4:]))
        assert main(["report", "--out", str(out), "--traces", str(traces)]) == 2
        assert capsys.readouterr().err == f"runtime error: {bad}: event 4 {problem}\n"

    # the first of two events that are not events is the one named
    without = {4: "step", 5: "agent"}
    broken = [{k: v for k, v in e.items() if k != without.get(i)} for i, e in enumerate(events, 1)]
    bad.write_text(Trace(events=broken).to_jsonl())
    assert main(["report", "--out", str(out), "--traces", str(traces)]) == 2
    assert capsys.readouterr().err == f"runtime error: {bad}: event 4 {not_an_event}\n"

    end = '{"agent":"","kind":"episode_end","payload":{"completion":1.0,"schema":3},"step":1}\n'
    for action, field in (("{}", "action"), ('{"action":{}}', "action.kind")):
        bad.write_text('{"agent":"a0","kind":"action","payload":%s,"step":0}\n' % action + end)
        assert main(["report", "--out", str(out), "--traces", str(traces)]) == 2
        assert (f"runtime error: {bad}: event 1 (action) has no payload field '{field}'"
                in capsys.readouterr().err)

    # dropping a payload field, or setting it to null or [1], leaves a
    # countable trace or is named: in the first event of each kind, of each
    # kind and `event` value (a resolved issue, a closed window) and the first
    # gate_decision with adjudicator fields
    runs = [Trace.from_jsonl(p.read_text()).events for p in sorted((out / "traces").glob("*.jsonl"))]
    first = {}  # (run, event index) of the first event in each role
    for r, events in enumerate(runs):
        for i, e in enumerate(events):
            roles = [e["kind"], (e["kind"], e["payload"].get("event"))]
            if "adjudicator_request" in e["payload"]:
                roles.append("adjudicated gate_decision")
            for role in roles:
                first.setdefault(role, (r, i))
    assert {"episode_end", ("issue", "resolved"), "adjudicated gate_decision"} <= first.keys()
    for r, i in sorted(set(first.values())):
        event = runs[r][i]
        for key in event["payload"]:
            for change in ("drop", None, [1]):
                payload = {k: v for k, v in event["payload"].items() if k != key or change != "drop"}
                if change != "drop":
                    payload[key] = change
                changed = runs[r][:i] + [{**event, "payload": payload}] + runs[r][i + 1:]
                bad.write_text(Trace(events=changed).to_jsonl())
                code = main(["report", "--out", str(out), "--traces", str(traces)])
                err = capsys.readouterr().err
                assert code == 0 or (code == 2 and key in err and err.startswith(
                    f"runtime error: {bad}: event {i + 1} ({event['kind']}) ")), (key, change, err)

    # with every value it reads well-formed, an error inside the count keeps
    # its own type and message
    bad.write_text(good.read_text())
    for error in (KeyError, TypeError, AttributeError):
        class Kinds:
            def __contains__(self, kind):
                raise error("boom")

        monkeypatch.setattr(harness, "ENV_ACTION_KINDS", Kinds())
        with pytest.raises(error, match="boom"):
            harness.compute_metrics(Trace.from_jsonl(good.read_text()))
        assert main(["report", "--out", str(out), "--traces", str(traces)]) == 2
        assert capsys.readouterr().err == f"runtime error: {error('boom')}\n"
    monkeypatch.undo()

    bad.write_text("".join(lines[:-1]) + lines[-1][:len(lines[-1]) // 2])  # truncated last line
    assert main(["report", "--out", str(out), "--traces", str(traces)]) == 2
    assert f"runtime error: {bad}: line {len(lines)}: " in capsys.readouterr().err

    bad.write_text("".join(lines[:3]) + "garbage\n" + "".join(lines[4:]))
    assert main(["report", "--out", str(out), "--traces", str(traces)]) == 2
    assert f"runtime error: {bad}: line 4: Expecting value" in capsys.readouterr().err


@pytest.mark.parametrize("cost, problem", [
    (None, "has no payload field 'local_plan_cost'"),
    ("7", "local_plan_cost '7' is not null or an integer >= 0"),
    (-1, "local_plan_cost -1 is not null or an integer >= 0"),
], ids=["missing", "string", "negative"])
def test_report_names_an_escalation_whose_plan_cost_it_cannot_count(tmp_path, small_dataset, capsys,
                                                                    cost, problem):
    """`uer` counts an escalation's recorded `local_plan_cost`, so one that
    is missing, or neither null nor an integer >= 0, fails `report` with
    exit 2, naming the trace file, the event and the field."""
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(small_dataset), "--out", str(out)]) == 0
    good = sorted((out / "traces").glob("b*.jsonl"))[0]
    events = Trace.from_jsonl(good.read_text()).events
    i, escalation = next((i, e["payload"]) for i, e in enumerate(events, 1)
                         if e["payload"].get("verdict") == "escalate")
    if cost is None:
        del escalation["local_plan_cost"]
    else:
        escalation["local_plan_cost"] = cost
    traces = tmp_path / "traces"
    traces.mkdir()
    bad = traces / good.name
    bad.write_text(Trace(events=events).to_jsonl())
    capsys.readouterr()
    assert main(["report", "--out", str(out), "--traces", str(traces)]) == 2
    assert capsys.readouterr().err == f"runtime error: {bad}: event {i} (gate_decision) {problem}\n"


def test_report_calls_no_planner(tmp_path, small_dataset, monkeypatch):
    """`report` counts the plan cost each escalation recorded: it neither
    replays a recorded solver context nor calls the local planner."""
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(small_dataset), "--out", str(out)]) == 0
    escalations = sum(e["payload"].get("verdict") == "escalate"
                      for path in (out / "traces").glob("*.jsonl")
                      for e in Trace.from_jsonl(path.read_text()).events)
    assert escalations > 0
    calls = []

    def spy(*args):
        calls.append(args)

    monkeypatch.setattr(harness, "replay_local_feasibility", spy)
    for module in (solver, harness, memory, gate, agent):  # every name the planner is bound to
        monkeypatch.setattr(module, "plan_local_recovery", spy)
    assert main(["report", "--out", str(out)]) == 0
    assert calls == []


@pytest.mark.parametrize("schema, problem", [
    (None, "has no payload field 'schema'"),
    (1, "has schema 1; this reader takes schema 3"),
    ("1", "has schema '1'; this reader takes schema 3"),
    ("2", "has schema '2'; this reader takes schema 3"),
    (2, "has schema 2; this reader takes schema 3"),
])
def test_report_rejects_a_trace_of_another_schema(tmp_path, small_dataset, capsys, schema, problem):
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(small_dataset), "--out", str(out), "--episodes", "1"]) == 0
    trace = next(iter((out / "traces").glob("*.jsonl")))
    events = Trace.from_jsonl(trace.read_text()).events
    assert events[-1]["payload"]["schema"] == 3
    if schema is None:
        del events[-1]["payload"]["schema"]
    else:
        events[-1]["payload"]["schema"] = schema
    trace.write_text(Trace(events=events).to_jsonl())
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 2
    assert (f"runtime error: {trace}: event {len(events)} (episode_end) {problem}"
            in capsys.readouterr().err)


def _as_schema_1(events: list) -> list:
    """`events` in the schema-1 form: each `action` event's outcome as a
    separate `outcome` event right after it, with its agent, kind, time and
    node written out, and `episode_end.schema` 1."""
    old = []
    for e in events:
        p = e["payload"]
        if e["kind"] == "action":
            action = p["action"]
            outcome = {"agent": e["agent"], "kind": action["kind"], "sim_time": e["step"],
                       **p["outcome"]}
            if "node_id" in action:
                outcome["node_id"] = action["node_id"]
            old.append({**e, "payload": {k: v for k, v in p.items() if k != "outcome"}})
            old.append({**e, "kind": "outcome", "payload": outcome})
        elif e["kind"] == "episode_end":
            old.append({**e, "payload": {**p, "schema": 1}})
        else:
            old.append(e)
    return old


def test_a_schema_1_trace_is_rejected_by_every_reader(tmp_path, small_dataset, capsys):
    """A trace in the old form, with its separate `outcome` events, is
    rejected by `Trace.from_jsonl` and by `report`, naming its `episode_end`."""
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(small_dataset), "--out", str(out), "--episodes", "1"]) == 0
    trace = next(iter((out / "traces").glob("*.jsonl")))
    events = _as_schema_1(Trace.from_jsonl(trace.read_text()).events)
    assert sum(e["kind"] == "outcome" for e in events) > 0
    text = Trace(events=events).to_jsonl()
    problem = f"event {len(events)} (episode_end) has schema 1; this reader takes schema 3"
    with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
        Trace.from_jsonl(text)
    trace.write_text(text)
    capsys.readouterr()
    assert main(["report", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"runtime error: {trace}: {problem}\n"


def test_a_trace_of_two_episodes_is_rejected_by_every_reader(tmp_path, small_dataset, capsys):
    """A trace holds one episode: `Trace.from_jsonl` and `report` reject two
    traces concatenated into one file, or any event after the `episode_end`,
    naming the first event past it."""
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(small_dataset), "--out", str(out), "--episodes", "2"]) == 0
    first, second = (p.read_text() for p in sorted((out / "traces").glob("*.jsonl")))
    end = len(first.splitlines())
    trace = out / "traces" / "two.jsonl"
    for text in (first + second, first + first.splitlines(keepends=True)[-1]):
        problem = f"event {end + 1} follows the episode_end at event {end}; a trace holds one episode"
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            Trace.from_jsonl(text)
        trace.write_text(text)
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"runtime error: {trace}: {problem}\n"


def test_bad_dataset_line_names_file_and_line(tmp_path, small_dataset, capsys):
    lines = (small_dataset / "episodes.jsonl").read_text().splitlines()
    spec = json.loads(lines[0])
    stray_node = {**spec, "assigned": {**spec["assigned"], "a0": spec["assigned"]["a0"] + [99]}}
    stray_edge = {**spec, "edges": spec["edges"] + [[0, 99]]}
    del spec["template_id"]
    episodes = tmp_path / "episodes.jsonl"
    for bad_line, message in ((json.dumps(spec), "line 2: missing field 'template_id'"),
                              ("{not json", "line 2: Expecting property name"),
                              (json.dumps(stray_node), "line 2: assigned names nodes outside blocks: [99]"),
                              (json.dumps(stray_edge), "line 2: edges name nodes outside blocks: [[0, 99]]")):
        episodes.write_text("\n".join([lines[0], bad_line, lines[1]]) + "\n")
        assert main(["run", "--dataset", str(episodes), "--out", str(tmp_path / "o")]) == 1
        assert f"error: {episodes} {message}" in capsys.readouterr().err
    # every line is checked before the first episode runs
    episodes.write_text("\n".join([lines[0], lines[1], json.dumps(spec)]) + "\n")
    assert main(["run", "--dataset", str(episodes), "--out", str(tmp_path / "o")]) == 1
    assert f"error: {episodes} line 3: missing field 'template_id'" in capsys.readouterr().err
    assert not list(tmp_path.glob("o/traces/*.jsonl"))


@pytest.mark.parametrize("edit, problem", [
    (lambda d: d["agents"]["a0"].update(position=[0, 0]), "agents.a0.position [0, 0] is not three integers"),
    (lambda d: d["agents"]["a0"].update(inventory={"x": "lots"}),
     "agents.a0.inventory.x 'lots' is not an integer >= 0"),
    (lambda d: d["edges"].append([1, 0]), "edges close a cycle: "),
    (lambda d: d["blocks"][0].__setitem__(2, [1, 0, "2"]), "blocks node 0 position [1, 0, '2'] is not three integers"),
    (lambda d: d["sources"].append(["sand", [1, 0], 2]), "sources[1] position [1, 0] is not three integers"),
    (lambda d: d["sources"][0].__setitem__(2, -1), "sources[0] remaining -1 is not an integer >= 0"),
    (lambda d: d["blocks"].append([0, "stone_bricks", [9, 9, 9]]), "blocks repeat node 0"),
    (lambda d: d["blocks"][1].__setitem__(2, d["blocks"][0][2]), "blocks node 1 repeats the position of node 0"),
    (lambda d: d["assigned"]["a1"].append(d["assigned"]["a0"][0]), "assigned lists node 0 under a0 and a1"),
], ids=["agent_position", "agent_count", "cycle", "block_position", "source_position", "source_count",
        "repeated_node", "repeated_position", "node_under_two_agents"])
def test_a_dataset_line_whose_world_cannot_be_built_fails_at_load(tmp_path, small_dataset, capsys,
                                                                   edit, problem):
    """A line whose world `build_world` could not build fails `run` at load
    with exit 1, naming the file, the line and the field, before any trace
    is written."""
    lines = (small_dataset / "episodes.jsonl").read_text().splitlines()
    spec = json.loads(lines[0])
    assert [0, 1] in spec["edges"] and len(spec["sources"]) == 1
    edit(spec)
    episodes = tmp_path / "episodes.jsonl"
    episodes.write_text("\n".join([lines[1], json.dumps(spec)]) + "\n")
    assert main(["run", "--dataset", str(episodes), "--out", str(tmp_path / "o")]) == 1
    assert f"error: {episodes} line 2: {problem}" in capsys.readouterr().err
    assert not list(tmp_path.glob("o/traces/*.jsonl"))


@pytest.mark.parametrize("episode_id", ["../escaped", "a/b", "a\\b", "nul\0", "", ".", "..", 7])
def test_an_episode_id_that_is_not_a_file_name_fails_at_load(tmp_path, small_dataset, capsys, episode_id):
    """An episode id names its trace file, `traces/<id>.jsonl`, so it must
    be one non-empty path component."""
    lines = (small_dataset / "episodes.jsonl").read_text().splitlines()
    bad = json.dumps({**json.loads(lines[1]), "episode_id": episode_id})
    episodes = tmp_path / "data" / "episodes.jsonl"
    episodes.parent.mkdir()
    episodes.write_text("\n".join([lines[0], bad]) + "\n")
    out = tmp_path / "data" / "out"
    assert main(["run", "--dataset", str(episodes), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"error: {episodes} line 2: episode_id {episode_id!r} is not a single path component" in err
    assert sorted(p.name for p in tmp_path.rglob("*.jsonl")) == ["episodes.jsonl"]


def test_a_repeated_episode_id_fails_at_load_naming_both_lines(tmp_path, small_dataset, capsys):
    """Two episodes with one id would write one trace file: `run` would say
    it ran both while `report` counts one."""
    lines = (small_dataset / "episodes.jsonl").read_text().splitlines()
    first = json.loads(lines[0])["episode_id"]
    again = json.dumps({**json.loads(lines[1]), "episode_id": first})
    episodes = tmp_path / "episodes.jsonl"
    episodes.write_text("\n".join([lines[0], lines[2], "", again]) + "\n")
    assert main(["run", "--dataset", str(episodes), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"error: {episodes} line 4: episode_id {first!r} repeats line 1" in err
    assert not list(tmp_path.glob("o/traces/*.jsonl"))


def test_run_holds_one_decoded_spec_at_a_time(tmp_path, dataset, monkeypatch):
    """`run --jobs 1` decodes each spec of the loaded dataset as it runs
    it, so when an episode starts its spec is the only one alive.
    `EpisodeSpec` has `__slots__` and no `__weakref__`, so the live specs
    are counted through the garbage collector."""
    manifest, episodes = dataset
    renamed = [EpisodeSpec.from_dict({**e.to_dict(), "episode_id": f"live{i}"})
               for i, e in enumerate(episodes[::10])]
    save_dataset(manifest, renamed, tmp_path / "ds")
    del renamed
    real, live = cli.run_episode, []

    def counted(spec, *args):
        live.append(sum(isinstance(o, EpisodeSpec) and o.episode_id.startswith("live")
                        for o in gc.get_objects()))
        return real(spec, *args)

    monkeypatch.setattr(cli, "run_episode", counted)
    args = ["run", "--dataset", str(tmp_path / "ds"), "--out", str(tmp_path / "o"), "--jobs", "1"]
    assert main(args) == 0
    assert live == [1] * 20


def test_malformed_grid_file_names_the_file(tmp_path, small_dataset, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text("{oops")
    assert main(["calibrate", "--dataset", str(small_dataset), "--out", str(tmp_path / "o"),
                 "--grid", str(grid)]) == 1
    assert (f"error: grid file {grid}: invalid JSON at line 1 column 2: "
            "Expecting property name enclosed in double quotes") in capsys.readouterr().err


@pytest.mark.parametrize("weights, thresholds, field", [
    ("5", "[[0.4, 0.5]]", "weights must be a list of 5-entry lists, not 5"),
    ('[[4, 2, "x", 2, 1]]', "[[0.4, 0.5]]", "weights[0][2] must be an integer, not 'x'"),
    ("[[4, 2, 2.0, 2, 1]]", "[[0.4, 0.5]]", "weights[0][2] must be an integer, not 2.0"),
    ("[[4, 2, 2, 2, 1], [4, 2, 2, 2]]", "[[0.4, 0.5]]",
     "weights[1] must be a list of 5 entries, not [4, 2, 2, 2]"),
    ("[[4, 2, 2, 2, 1]]", "0.4", "thresholds must be a list of 2-entry lists, not 0.4"),
    ("[[4, 2, 2, 2, 1]]", "[[0.4, true]]", "thresholds[0][1] must be a number, not True"),
])
def test_a_grid_file_entry_of_the_wrong_shape_names_the_file_and_field(
        tmp_path, small_dataset, capsys, weights, thresholds, field):
    """A grid file's weights are lists of five integers and its thresholds
    pairs of numbers, each entry read as `--weights` and `--thresholds`
    read theirs."""
    grid = tmp_path / "grid.json"
    grid.write_text(f'{{"weights": {weights}, "thresholds": {thresholds}}}')
    assert main(["calibrate", "--dataset", str(small_dataset), "--out", str(tmp_path / "o"),
                 "--grid", str(grid)]) == 1
    assert capsys.readouterr().err.endswith(f"error: grid file {grid}: {field}\n")
    assert not (tmp_path / "o" / "theta.json").exists()


@pytest.mark.parametrize("weights, thresholds, field", [
    ("[[1, 1, 1, 1, 1]]", "[[0.4, 0.5]]",
     "weights[0] (1, 1, 1, 1, 1) rejected: wC must exceed max(wR, wI, wL)"),
    ("[[4, 2, 2, 2, 1]]", "[[0.4, 0.5], [0.6, 0.2]]",
     "thresholds[1] must satisfy 0 <= t_low <= t_high <= 1, not (0.6, 0.2)"),
])
def test_a_grid_file_entry_that_calibration_rejects_names_the_file_and_entry(
        tmp_path, small_dataset, capsys, weights, thresholds, field):
    """An entry of the right shape whose value calibration rejects is named
    the same way as an entry of the wrong shape."""
    grid = tmp_path / "grid.json"
    grid.write_text(f'{{"weights": {weights}, "thresholds": {thresholds}}}')
    assert main(["calibrate", "--dataset", str(small_dataset), "--out", str(tmp_path / "o"),
                 "--grid", str(grid)]) == 1
    assert f"error: grid file {grid}: {field}" in capsys.readouterr().err
    assert not (tmp_path / "o" / "theta.json").exists()


def test_malformed_manifest_is_not_read(tmp_path, small_dataset):
    root = tmp_path / "ds"
    root.mkdir()
    (root / "episodes.jsonl").write_bytes((small_dataset / "episodes.jsonl").read_bytes())
    (root / "manifest.json").write_text("{oops")
    assert main(["run", "--dataset", str(root), "--out", str(tmp_path / "o")]) == 0
    assert len(list((tmp_path / "o" / "traces").glob("*.jsonl"))) == 4


def test_ablate_runs_all_variants(tmp_path, small_dataset, capsys, monkeypatch):
    serialized = []
    to_jsonl = Trace.to_jsonl
    monkeypatch.setattr(Trace, "to_jsonl", lambda self: serialized.append(1) or to_jsonl(self))
    out = tmp_path / "out"
    rc = main(["ablate", "--dataset", str(small_dataset), "--out", str(out)])
    assert rc == 0
    assert serialized == []  # ablate reads only metrics, so no trace is ever serialized
    capsys.readouterr()
    data = (out / "ablation.csv").read_bytes()
    assert b"\r" not in data and data.endswith(b"\n")
    lines = data.decode().strip().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["variant", "tsr", "cs", "ecr"]
    rows = {ln.split(",")[0]: ln.split(",") for ln in lines[1:]}
    assert set(rows) == {"base", "no_partition", "no_gating", "rule", "rule_score", "full"}
    adj_col = header.index("adjudicator_calls")
    assert float(rows["rule_score"][adj_col]) == 0.0


def test_ablate_and_calibrate_print_simulated_runs(tmp_path, small_dataset, capsys):
    assert main(["ablate", "--dataset", str(small_dataset), "--out", str(tmp_path / "a")]) == 0
    printed = capsys.readouterr().out
    line = next(ln for ln in printed.splitlines() if ln.startswith("simulated "))
    numbers = (int(w) for w in line.replace(",", "").split() if w.isdigit())
    simulated, total, regated, partition_dependent = numbers
    # one simulation serves all six variants, except that class A's gated
    # variants keep its issue local where the ungated ones escalate
    assert total == 6 * 4 and simulated + regated == total and simulated == 4 + 1
    assert partition_dependent == 0

    assert main(["calibrate", "--dataset", str(small_dataset), "--out", str(tmp_path / "c"),
                 "--grid", "small", "--calib-fraction", "1.0"]) == 0
    assert "of 16 runs, re-gated" in capsys.readouterr().out


def test_ablate_uses_the_chosen_backend(tmp_path, small_dataset, capsys):
    # the mock would escalate the class-C gray-zone call; this script never does
    replies = tmp_path / "replies.jsonl"
    replies.write_text('{"decision": "stay_local", "confidence": 0.9}\n' * 50)
    backend = f"scripted:{replies}"
    out = tmp_path / "out"
    assert main(["run", "--dataset", str(small_dataset), "--out", str(out),
                 "--backend", backend]) == 0
    assert main(["ablate", "--dataset", str(small_dataset), "--out", str(out),
                 "--backend", backend]) == 0
    assert "simulated 24 of 24 runs, re-gated 0" in capsys.readouterr().out

    with open(out / "metrics.csv", newline="") as f:
        run_all = next(r for r in csv.DictReader(f) if r["episode_id"] == "ALL")
    with open(out / "ablation.csv", newline="") as f:
        full = next(r for r in csv.DictReader(f) if r["variant"] == "full")
    assert {k: full[k] for k in full if k != "variant"} == {k: run_all[k] for k in full if k != "variant"}


def test_calibrate_writes_theta_and_table(tmp_path, small_dataset, capsys):
    out = tmp_path / "out"
    rc = main([
        "calibrate", "--dataset", str(small_dataset), "--out", str(out),
        "--grid", "small", "--calib-fraction", "1.0",
    ])
    assert rc == 0
    capsys.readouterr()
    theta = json.loads((out / "theta.json").read_text())
    table = json.loads((out / "objective_table.json").read_text())
    assert len(table) == 4  # 2 weight vectors x 2 threshold pairs
    grid_thetas = {(tuple(r["weights"]), tuple(r["thresholds"])) for r in table}
    assert (tuple(theta["best"]["weights"]), tuple(theta["best"]["thresholds"])) in grid_thetas
    assert all("objective" in r for r in table)
