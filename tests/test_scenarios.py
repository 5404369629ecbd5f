import json

import pytest

from gatecraft import scenarios
from gatecraft import EpisodeSpec, RunConfig, generate_dataset, run_episode, validate_class_property
from gatecraft.scenarios import (
    build_episode,
    dataset_templates,
    load_dataset,
    probe_bottleneck,
    save_dataset,
)


def test_manifest_composition(dataset):
    manifest, episodes = dataset
    assert manifest["total_episodes"] == 200 and len(episodes) == 200
    assert manifest["per_class"] == {"A": 50, "B": 50, "C": 50, "D": 50}
    assert manifest["two_agent_episodes"] == 120
    assert manifest["three_agent_episodes"] == 80


def test_every_episode_validates_its_class(dataset):
    _, episodes = dataset
    for spec in episodes:
        validate_class_property(spec)  # raises on violation


def test_templates_cover_both_team_sizes_per_class():
    templates = dataset_templates()
    assert len(templates) == 40
    for label in "ABCD":
        sizes = {t.agent_count for t in templates if t.class_label == label}
        assert sizes == {2, 3}


def test_generation_is_deterministic():
    m1, eps1 = generate_dataset(3)
    m2, eps2 = generate_dataset(3)
    assert m1 == m2
    assert [e.to_dict() for e in eps1] == [e.to_dict() for e in eps2]


def test_different_dataset_seeds_vary_layouts():
    _, eps1 = generate_dataset(0)
    _, eps2 = generate_dataset(1)
    assert any(a.to_dict() != b.to_dict() for a, b in zip(eps1, eps2))


def test_generated_edges_run_from_lower_to_higher_ids():
    """In a generated spec every prerequisite edge runs from a lower to a
    higher node id, so the task graph's topological order, which an agent
    builds in, is ascending id order."""
    for seed in range(3):
        for spec in generate_dataset(seed)[1]:
            assert all(u < v for u, v in spec.edges), (seed, spec.episode_id)
            assert spec.build_world().graph.topo_order == sorted(n for n, _, _ in spec.blocks)


def test_an_episode_no_sample_of_which_passes_its_class_checks_raises(monkeypatch):
    """`build_episode` writes no layout that failed the class checks: after
    100 rejected samples it raises ValueError naming the template, the seed
    index and the last rejection."""
    checked = []

    def reject(spec):
        checked.append(spec.episode_id)
        raise ValueError(f"{spec.episode_id}: out of the cost band")

    monkeypatch.setattr(scenarios, "validate_class_property", reject)
    template = dataset_templates()[0]
    with pytest.raises(ValueError, match=rf"^template {template.template_id} \(class A, .*\), seed index 3, "
                                         r"dataset seed 0: no sample of 100 .*out of the cost band$"):
        build_episode(template, 3)
    assert len(checked) == 100


def test_seed_variants_share_structure_but_jitter_geometry():
    template = dataset_templates()[0]
    a = build_episode(template, 0, dataset_seed=0)
    b = build_episode(template, 1, dataset_seed=0)
    assert a.class_label == b.class_label and a.assigned == b.assigned
    assert a.episode_id != b.episode_id


def test_spec_round_trips_through_dict(dataset):
    _, episodes = dataset
    for spec in episodes[:10]:
        again = EpisodeSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again.to_dict() == spec.to_dict()


def test_save_and_load_dataset(tmp_path, dataset):
    manifest, episodes = dataset
    out = save_dataset(manifest, episodes, tmp_path / "ds")
    assert json.loads((out / "manifest.json").read_text()) == manifest
    loaded = load_dataset(out)
    assert [e.to_dict() for e in loaded] == [e.to_dict() for e in episodes]
    # the episodes file alone is also accepted
    from_file = load_dataset(out / "episodes.jsonl")
    assert [e.to_dict() for e in from_file] == [e.to_dict() for e in episodes]


def test_world_builds_and_bottleneck_binds(dataset):
    _, episodes = dataset
    for spec in episodes[::25]:
        world = spec.build_world()
        assert set(world.agents) == set(spec.agents)
        probe = probe_bottleneck(spec)
        assert probe["issue"] is not None
        assert probe["node_id"] == spec.injected[0]


def test_validated_facts_are_the_runs_first_decision(default_runs):
    """The validator's facts are those of the `issue` and `gate_decision`
    events that open the default run's trace, for datasets 0 and 1."""
    runs = [(ep.spec, ep.trace) for ep in default_runs]
    runs += [(spec, run_episode(spec, RunConfig())) for spec in generate_dataset(1)[1]]
    for spec, trace in runs:
        probe = validate_class_property(spec)
        issue, decision = trace.events[:2]
        assert (issue["agent"], issue["kind"]) == ("a0", "issue"), spec.episode_id
        assert (decision["agent"], decision["kind"]) == ("a0", "gate_decision"), spec.episode_id
        issue, decision = issue["payload"], decision["payload"]
        run_facts = {
            "issue": issue["issue"], "item": issue["item"], "node_id": issue["node_id"],
            "fv": tuple(decision["fv"][k] for k in "CRILH"),
            # only an escalation records the local plan's cost
            "plan_cost": decision.get("local_plan_cost", probe["plan_cost"]),
            "verdict": decision["verdict"], "tier": decision["tier"],
            "score_norm": decision["score_norm"],
        }
        assert probe == run_facts, spec.episode_id


def test_stations_sit_outside_requester_regions(dataset):
    _, episodes = dataset
    c_eps = [e for e in episodes if e.class_label == "C"]
    for spec in c_eps[:5]:
        (cx, cy, cz), radius = spec.work_regions["a0"]
        for (x, y, z), _material in spec.scaffold:
            assert (x - cx) ** 2 + (y - cy) ** 2 + (z - cz) ** 2 > radius**2
