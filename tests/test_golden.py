"""Behaviour contract: golden digests of every trace and metrics table.

`tests/golden/digests.json` holds the sha256 of each episode's trace JSONL
and of each variant's `metrics.csv`, for `generate_dataset(0)` under the six
`cli.ABLATION_VARIANTS`. A change that alters any trace byte or metric fails
here, naming the variant and the episodes that moved.

Regenerate the file only for a change that is meant to alter behaviour, and
say in CHANGES.md which fields moved and why:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from gatecraft import RunConfig, run_episode
from gatecraft.cli import ABLATION_VARIANTS
from gatecraft.harness import compute_metrics, metrics_to_csv
from gatecraft.scenarios import generate_dataset

DIGESTS = Path(__file__).parent / "golden" / "digests.json"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


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


def test_traces_and_metrics_match_golden_digests(dataset):
    _, episodes = dataset
    expected = json.loads(DIGESTS.read_text())
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


def describe_moves(old: dict, new: dict) -> list[str]:
    """One line per variant: how many trace digests moved against `old`, and
    whether its metrics.csv digest moved."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        was, now = old.get(name, {}), new.get(name, {})
        traces_was, traces_now = was.get("traces", {}), now.get("traces", {})
        moved = sum(traces_was.get(eid) != traces_now.get(eid) for eid in traces_was.keys() | traces_now.keys())
        csv = "moved" if was.get("metrics_csv") != now.get("metrics_csv") else "unchanged"
        lines.append(f"{name}: {moved} of {len(traces_now)} trace digests moved, metrics_csv {csv}")
    return lines


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    DIGESTS.parent.mkdir(exist_ok=True)
    _, episodes = generate_dataset(0)
    digests = compute_digests(episodes)
    committed = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    print("\n".join(describe_moves(committed, digests)))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
