"""Counterfactual re-gating: `agent.regate` against full simulation."""

import random
from pathlib import Path

import pytest

from gatecraft import RunConfig, default_recipes
from gatecraft.agent import GATE_FIELDS, regate, run_episode, simulate_episode
from gatecraft.gate import GateThresholds, GateWeights, validate_weights
from gatecraft.scenarios import EpisodeSpec

from conftest import attribute_reads

SRC = Path(__file__).resolve().parent.parent / "src" / "gatecraft"


def _hand_built() -> EpisodeSpec:
    """Three agents, a dependency on a teammate's node, partitioned materials,
    a refusing and a silent responder: four gate passes whose tiers and
    verdicts move with Θ."""
    return EpisodeSpec(
        episode_id="hand", template_id=0, seed_index=0, class_label="C", variant="hand",
        agents={"a0": {"position": [0, 0, 0], "inventory": {}},
                "a1": {"position": [6, 0, 0], "inventory": {"sandstone": 2, "oak_planks": 1}},
                "a2": {"position": [20, 0, 0], "inventory": {"glass": 1}}},
        blocks=[[0, "sandstone", [1, 0, -2]], [1, "glass", [2, 0, -2]],
                [2, "oak_planks", [3, 0, -2]], [3, "sandstone", [4, 0, -2]]],
        edges=[[2, 3], [0, 1]], assigned={"a0": [0, 1, 3], "a1": [2]},
        partition={"sandstone": "a1", "glass": "a2"},
        work_regions={"a0": [[0, 0, 0], 12], "a1": [[6, 0, 0], 12], "a2": [[20, 0, 0], 12]},
        recipes=[r.to_dict() for r in default_recipes().recipes.values()],
        sources=[["sand", [9, 0, 0], 3], ["sandstone", [25, 0, 0], 2], ["oak_log", [2, 0, 3], 2]],
        responder_script={"a1": ["cannot_supply", "honest"], "a2": ["silent", "honest"]},
    )


def _partition_spec(teammates: dict[str, int], partition: dict[str, str]) -> EpisodeSpec:
    """a0 needs glass for its one node and has no way to make it. Each
    teammate holds one glass at the given distance on the x axis, and none
    has advertised it, so the partition setting decides which of them a0's
    team view shows: only the glass's designated holder (on), or every
    teammate holding it (off)."""
    agents = {"a0": {"position": [0, 0, 0], "inventory": {}}}
    agents.update({aid: {"position": [x, 0, 0], "inventory": {"glass": 1}}
                   for aid, x in teammates.items()})
    return EpisodeSpec(
        episode_id="part", template_id=0, seed_index=0, class_label="B", variant="hand",
        agents=agents, blocks=[[0, "glass", [1, 0, -2]]], edges=[], assigned={"a0": [0]},
        partition=partition, work_regions={aid: [a["position"], 12] for aid, a in agents.items()},
        recipes=[r.to_dict() for r in default_recipes().recipes.values()],
        sources=[], responder_script={},
    )


# One spec per team-view read whose answer the partition changes:
# R (0 with no designated holder, 3 with a1's live glass at 6 blocks), and
# the escalation target (designated a2 at 20 blocks, or a1 at 15; R is 2 both ways).
PARTITION_SPECS = {
    "R": _partition_spec({"a1": 6}, {}),
    "target": _partition_spec({"a1": 15, "a2": 20}, {"glass": "a2"}),
}


def _random_gate_settings(rng: random.Random) -> dict:
    while True:
        weights = GateWeights(*(rng.randint(0, 6) for _ in range(5)))
        if validate_weights(weights)[0]:
            break
    cuts = sorted(rng.choice([0.3, 0.4, 0.45, 0.5, 0.6]) if rng.random() < 0.5
                  else round(rng.random(), 2) for _ in range(2))
    return {"weights": weights, "thresholds": GateThresholds(*cuts), "tiers": rng.randint(0, 3)}


def _verdicts(trace) -> list[str]:
    return [e["payload"]["verdict"] for e in trace.events if e["kind"] == "gate_decision"]


def test_regate_matches_full_simulation_for_random_gate_settings(dataset):
    """With random gate settings, and `partition_on` flipped at random:
    whenever `regate` returns a trace, it is byte-identical to simulating;
    whenever it returns None, simulating really does flip a verdict, or a
    team-view read of the reference depended on the changed partition."""
    rng = random.Random(20240601)
    _, episodes = dataset
    specs = [*PARTITION_SPECS.values(), _hand_built()] + [episodes[i] for i in range(0, len(episodes), 10)]
    regated = fell_back = across = dependent = 0
    for n in range(240):
        spec = specs[n % len(specs)]
        partition_on = rng.random() < 0.5
        flip = rng.random() < 0.5
        reference_config = RunConfig(partition_on=partition_on, **_random_gate_settings(rng))
        config = RunConfig(partition_on=partition_on != flip, **_random_gate_settings(rng))
        reference = simulate_episode(spec, reference_config)
        trace = regate(reference, config)
        full = run_episode(spec, config)
        if trace is not None:
            regated += 1
            across += flip
            assert trace.to_jsonl() == full.to_jsonl(), (spec.episode_id, reference_config, config)
        elif flip and reference.partition_dependent:
            dependent += 1
        else:
            fell_back += 1
            assert _verdicts(full) != _verdicts(reference.trace), (spec.episode_id, config)
    assert regated >= 100 and fell_back >= 20 and across >= 50 and dependent >= 5


@pytest.mark.parametrize("read", sorted(PARTITION_SPECS))
def test_a_partition_dependent_read_needs_a_simulation(read):
    """Where the partition changes R or the target, the reference is flagged,
    `regate` declines the other setting, and simulating it really does
    trace another run; the gate settings alone still re-gate."""
    spec = PARTITION_SPECS[read]
    for partition_on in (True, False):
        reference = simulate_episode(spec, RunConfig(partition_on=partition_on))
        assert reference.partition_dependent
        other = RunConfig(partition_on=not partition_on)
        assert regate(reference, other) is None
        assert run_episode(spec, other).events[:-1] != reference.trace.events[:-1]
        same = RunConfig(partition_on=partition_on, tiers=2)
        assert regate(reference, same).to_jsonl() == run_episode(spec, same).to_jsonl()


def test_the_default_runs_read_nothing_that_depends_on_the_partition(default_runs):
    """Why `ablate` simulates each episode once for both partition settings."""
    assert not any(run.partition_dependent for run in default_runs)


def test_class_a_without_gating_must_fall_back(dataset):
    """`full` keeps a class-A issue local; with every tier off it escalates,
    so the run takes another path and has to be simulated."""
    _, episodes = dataset
    no_gating = RunConfig(tiers=0)
    spec = next(e for e in episodes if e.class_label == "A"
                and "stay_local" in _verdicts(run_episode(e, RunConfig())))
    assert regate(simulate_episode(spec, RunConfig()), no_gating) is None
    assert _verdicts(run_episode(spec, no_gating)) != _verdicts(run_episode(spec, RunConfig()))


def test_a_reference_with_every_tier_off_regates_the_default(dataset):
    """Every gate pass is featurized whatever the tiers, so a run with every
    tier off serves as the reference of a config with tiers on."""
    _, episodes = dataset
    no_gating = RunConfig(tiers=0)
    spec = next(e for e in episodes if e.class_label == "B")
    trace = regate(simulate_episode(spec, no_gating), RunConfig())
    assert trace is not None and _verdicts(trace)
    assert trace.to_jsonl() == run_episode(spec, RunConfig()).to_jsonl()


def test_regate_with_identical_settings_reproduces_the_reference(dataset):
    _, episodes = dataset
    spec = next(e for e in episodes if e.class_label == "C")
    reference = simulate_episode(spec, RunConfig())
    assert regate(reference, RunConfig()).to_jsonl() == reference.trace.to_jsonl()


def test_regate_rejects_a_config_that_differs_outside_the_gate():
    reference = simulate_episode(_hand_built(), RunConfig())
    for change in ({"window_timeout": 5}, {"cooldown_duration": 3}, {"step_budget": 40}):
        with pytest.raises(ValueError, match="outside the gate settings"):
            regate(reference, RunConfig(**change))


# The only code that may read a gate setting. `regate`'s equivalence argument
# rests on this list; a new read has to be added here and argued there.
GATE_READS = {
    ("agent", "RunConfig.__init__"),  # weight and tier validation, before any run
    ("agent", "RunConfig.describe"),  # episode_end.config, re-rendered by regate
    ("agent", "_mock_backend"),
    ("agent", "_gate_decision"),
    ("gate", "MockAdjudicator.adjudicate"),  # the mock's own thresholds
    ("scenarios", "validate_class_property"),  # the defaults' gray band, outside any run
}


# The only code that may read `partition_on`, and the only reader of the
# team view, its one lever. `read_team` answers under both settings and
# sets `partition_dependent`; `regate` rests on both lists.
PARTITION_READS = {
    ("agent", "RunConfig.describe"),  # episode_end.config, re-rendered by regate
    ("agent", "EpisodeRuntime.read_team"),
    ("agent", "regate"),  # declines a partition change for a flagged reference
}
TEAM_VIEW_READS = {
    ("agent", "EpisodeRuntime.read_team"),
}


def _reads(names) -> set[tuple[str, str]]:
    return {(module, scope) for path in sorted(SRC.glob("*.py"))
            for module, scope, _ in attribute_reads(path, names)}


def test_gate_settings_are_read_only_where_regate_expects():
    assert _reads(GATE_FIELDS) == GATE_READS


def test_the_partition_setting_is_read_only_where_regate_expects():
    assert _reads({"partition_on"}) == PARTITION_READS
    assert _reads({"_team_view"}) == TEAM_VIEW_READS
