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


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    DIGESTS.parent.mkdir(exist_ok=True)
    _, episodes = generate_dataset(0)
    DIGESTS.write_text(json.dumps(compute_digests(episodes), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
