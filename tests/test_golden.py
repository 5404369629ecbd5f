"""Behaviour contract: golden digests of every trace, metrics table and calibration.

`tests/golden/digests.json` holds the sha256 of each episode's trace JSONL
and of each variant's `metrics.csv`, for `generate_dataset(0)` under the six
`cli.ABLATION_VARIANTS`. These runs call `run_episode` once per variant and
episode, so they never go through `agent.regate`. A change that alters any
trace byte or metric fails here, naming the variant and the episodes that
moved.

Under the key `random_specs` it also holds the trace sha256 of each
`tests/random_specs.py` spec `r00`..`r59`, run under `RunConfig()`
(`rNN/default`) and under its `random_config` (`rNN/drawn`). These reach
dependency blocks, and windows that outlive their issue, which seed 0
never does.

`gatecraft run` on the saved dataset must write the `full` variant's
trace and `metrics.csv` digests: saving, loading, decoding one spec per
episode and writing change no byte.

`tests/golden/calibrate.json` holds the sha256 of `theta.json` and
`objective_table.json` that `gatecraft calibrate --grid small|default`
writes for the same dataset. `tests/golden/summaries.json` holds the
sha256 of the `summary.csv` that `gatecraft report` writes over the
`full` and the `base` variant's traces, and of the `ablation.csv` that
`gatecraft ablate` writes on the saved dataset. `base` escalates every
issue, so its summary shows a change in how `uer` is counted.

Regenerate the files only for a change that is meant to alter behaviour, and
say in CHANGES.md which fields moved and why:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import dataclasses
import hashlib
import json
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from gatecraft import RunConfig, run_episode
from gatecraft.cli import ABLATION_VARIANTS, main
from gatecraft.harness import compute_metrics, metrics_to_csv
from gatecraft.scenarios import generate_dataset, save_dataset

from random_specs import RANDOM_SPEC_COUNT, random_config, random_spec

DIGESTS = Path(__file__).parent / "golden" / "digests.json"
CALIBRATE_DIGESTS = Path(__file__).parent / "golden" / "calibrate.json"
CALIBRATE_GRIDS = ("small", "default")
CALIBRATE_OUTPUTS = ("theta.json", "objective_table.json")
SUMMARY_DIGESTS = Path(__file__).parent / "golden" / "summaries.json"
REPORTED_VARIANTS = ("full", "base")
RANDOM_SPECS = "random_specs"  # the key of the random-spec trace digests


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _file_sha256(path: Path) -> str:
    """The sha256 of a file's bytes, as a command wrote them."""
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run_cli(args: list[str]) -> None:
    with redirect_stdout(StringIO()):
        rc = main(args)
    assert rc == 0, f"{args[0]} exited {rc}"


def compute_digests(episodes) -> dict:
    """variant -> {"metrics_csv": sha256, "traces": {episode_id: sha256}}."""
    out = {}
    for name, overrides in ABLATION_VARIANTS:
        config = dataclasses.replace(RunConfig(), **overrides)
        traces, metrics = {}, []
        for spec in episodes:
            trace = run_episode(spec, config)
            traces[spec.episode_id] = _sha256(trace.to_jsonl())
            metrics.append(compute_metrics(trace, spec))
        out[name] = {"metrics_csv": _sha256(metrics_to_csv(metrics)), "traces": traces}
    return out


def compute_random_digests() -> dict:
    """`rNN/default` and `rNN/drawn` -> trace sha256, for each random spec."""
    out = {}
    for index in range(RANDOM_SPEC_COUNT):
        spec = random_spec(index)
        for name, config in (("default", RunConfig()), ("drawn", random_config(index))):
            out[f"{spec.episode_id}/{name}"] = _sha256(run_episode(spec, config).to_jsonl())
    return out


def test_traces_and_metrics_match_golden_digests(dataset):
    _, episodes = dataset
    expected = json.loads(DIGESTS.read_text())
    del expected[RANDOM_SPECS]
    actual = compute_digests(episodes)
    assert sorted(actual) == sorted(expected), "variant set changed"
    problems = []
    for name in expected:
        want, got = expected[name], actual[name]
        moved = sorted(
            eid for eid in want["traces"].keys() | got["traces"].keys()
            if want["traces"].get(eid) != got["traces"].get(eid)
        )
        if moved:
            problems.append(f"{name}: {len(moved)} traces moved: {', '.join(moved)}")
        if want["metrics_csv"] != got["metrics_csv"]:
            problems.append(f"{name}: metrics.csv moved")
    assert not problems, "\n".join(problems)


def test_random_spec_traces_match_golden_digests():
    expected = json.loads(DIGESTS.read_text())[RANDOM_SPECS]
    actual = compute_random_digests()
    moved = sorted(run for run in expected.keys() | actual.keys() if expected.get(run) != actual.get(run))
    assert not moved, f"{len(moved)} random-spec traces moved: {', '.join(moved)}"


def test_run_command_writes_the_golden_full_outputs(dataset, tmp_path):
    manifest, episodes = dataset
    save_dataset(manifest, episodes, tmp_path / "dataset")
    out = tmp_path / "run"
    _run_cli(["run", "--dataset", str(tmp_path / "dataset"), "--out", str(out)])
    want = json.loads(DIGESTS.read_text())["full"]
    got = {path.stem: _file_sha256(path) for path in (out / "traces").glob("*.jsonl")}
    moved = sorted(eid for eid in want["traces"].keys() | got.keys()
                   if want["traces"].get(eid) != got.get(eid))
    assert not moved, f"run: {len(moved)} traces moved: {', '.join(moved)}"
    assert _file_sha256(out / "metrics.csv") == want["metrics_csv"], "run: metrics.csv moved"


def compute_calibrate_digests(dataset, work: Path) -> dict:
    """grid -> {output file: sha256} for `calibrate --grid <grid>` on the
    saved `dataset` (manifest, episodes), run in-process under `work`."""
    manifest, episodes = dataset
    save_dataset(manifest, episodes, work / "dataset")
    out = {}
    for grid in CALIBRATE_GRIDS:
        target = work / f"calibrate-{grid}"
        _run_cli(["calibrate", "--dataset", str(work / "dataset"), "--out", str(target), "--grid", grid])
        out[grid] = {name: _sha256((target / name).read_text()) for name in CALIBRATE_OUTPUTS}
    return out


def compute_summary_digests(dataset, work: Path) -> dict:
    """`report <variant>` -> {"summary.csv": sha256} for `gatecraft report`
    over the traces of each of REPORTED_VARIANTS, and `ablate` ->
    {"ablation.csv": sha256} for `gatecraft ablate` on the saved `dataset`
    (manifest, episodes), run in-process under `work`."""
    manifest, episodes = dataset
    save_dataset(manifest, episodes, work / "dataset")
    variants = dict(ABLATION_VARIANTS)
    out = {}
    for name in REPORTED_VARIANTS:
        config = dataclasses.replace(RunConfig(), **variants[name])
        traces = work / f"traces-{name}"
        traces.mkdir()
        for spec in episodes:
            (traces / f"{spec.episode_id}.jsonl").write_text(run_episode(spec, config).to_jsonl())
        target = work / f"report-{name}"
        _run_cli(["report", "--traces", str(traces), "--out", str(target)])
        out[f"report {name}"] = {"summary.csv": _file_sha256(target / "summary.csv")}
    _run_cli(["ablate", "--dataset", str(work / "dataset"), "--out", str(work / "ablate")])
    out["ablate"] = {"ablation.csv": _file_sha256(work / "ablate" / "ablation.csv")}
    return out


def moved_outputs(expected: dict, actual: dict, command: str) -> list[str]:
    """`<command>: <file> moved` for each output file whose digest differs,
    with `command` formatted from the key the file's digest sits under."""
    return [f"{command.format(key)}: {name} moved"
            for key in sorted(expected.keys() | actual.keys())
            for name in sorted(expected.get(key, {}).keys() | actual.get(key, {}).keys())
            if expected.get(key, {}).get(name) != actual.get(key, {}).get(name)]


def test_calibration_matches_golden_digests(dataset, tmp_path):
    expected = json.loads(CALIBRATE_DIGESTS.read_text())
    moved = moved_outputs(expected, compute_calibrate_digests(dataset, tmp_path), "calibrate --grid {}")
    assert not moved, "\n".join(moved)


def test_report_and_ablate_match_golden_digests(dataset, tmp_path):
    expected = json.loads(SUMMARY_DIGESTS.read_text())
    moved = moved_outputs(expected, compute_summary_digests(dataset, tmp_path), "{}")
    assert not moved, "\n".join(moved)


def describe_moves(old: dict, new: dict) -> list[str]:
    """One line per variant: how many trace digests moved against `old`,
    whether its metrics.csv digest moved, and the ids of the moved episodes."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        was, now = old.get(name, {}), new.get(name, {})
        traces_was, traces_now = was.get("traces", {}), now.get("traces", {})
        moved = sorted(eid for eid in traces_was.keys() | traces_now.keys()
                       if traces_was.get(eid) != traces_now.get(eid))
        csv = "moved" if was.get("metrics_csv") != now.get("metrics_csv") else "unchanged"
        line = f"{name}: {len(moved)} of {len(traces_now)} trace digests moved, metrics_csv {csv}"
        lines.append(line + (f": {', '.join(moved)}" if moved else ""))
    return lines


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    DIGESTS.parent.mkdir(exist_ok=True)
    dataset = generate_dataset(0)
    digests = compute_digests(dataset[1])
    committed = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    random_committed = committed.pop(RANDOM_SPECS, {})
    print("\n".join(describe_moves(committed, digests)))
    digests[RANDOM_SPECS] = compute_random_digests()
    moved = sum(random_committed.get(run) != sha for run, sha in digests[RANDOM_SPECS].items())
    print(f"{RANDOM_SPECS}: {moved} of {len(digests[RANDOM_SPECS])} trace digests moved")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    for path, compute, command in ((CALIBRATE_DIGESTS, compute_calibrate_digests, "calibrate --grid {}"),
                                   (SUMMARY_DIGESTS, compute_summary_digests, "{}")):
        with tempfile.TemporaryDirectory() as work:
            outputs = compute(dataset, Path(work))
        committed = json.loads(path.read_text()) if path.exists() else {}
        print("\n".join(moved_outputs(committed, outputs, command)) or f"{path.name}: no output moved")
        path.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path}")
