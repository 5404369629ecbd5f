import pytest

from gatecraft import (
    Blueprint,
    BlockSpec,
    PlanInfo,
    Source,
    TaskGraph,
    WorldState,
    AgentBody,
    Inventory,
    RunConfig,
    default_recipes,
)
from gatecraft.agent import simulate_episode
from gatecraft.scenarios import generate_dataset


@pytest.fixture(scope="session")
def dataset():
    """The standard 200-episode suite, generated once per test session."""
    return generate_dataset(0)


@pytest.fixture(scope="session")
def default_runs(dataset):
    """The finished runtime (spec, trace, final world) of every episode of the
    standard suite under the default config."""
    _, episodes = dataset
    config = RunConfig()
    return [simulate_episode(spec, config) for spec in episodes]


def make_world(
    blocks,
    edges=(),
    agents=None,
    sources=(),
    chests=(),
    scaffold=None,
    recipes=None,
):
    """Small-world builder for unit tests.

    blocks: list of (node_id, (x, y, z), material)
    agents: dict agent_id -> (position, inventory dict)
    """
    blueprint = Blueprint(
        name="test",
        blocks=tuple(BlockSpec(node_id=n, position=tuple(p), material=m) for n, p, m in blocks),
    )
    graph = TaskGraph([b[0] for b in blocks], [tuple(e) for e in edges])
    bodies = {}
    for aid, (pos, inv) in (agents or {"a0": ((0, 0, 0), {})}).items():
        bodies[aid] = AgentBody(agent_id=aid, position=tuple(pos), inventory=Inventory(dict(inv)))
    return WorldState(
        blueprint=blueprint,
        graph=graph,
        recipes=recipes if recipes is not None else default_recipes(),
        agents=bodies,
        sources=[Source(item=i, position=tuple(p), remaining=r) for i, p, r in sources],
        chests=list(chests),
        scaffold=dict(scaffold or {}),
    )


def plan_for(world, assignments=None, partition=None, work_regions=None):
    assignments = assignments or {n: "a0" for n in world.blueprint.node_ids}
    return PlanInfo.for_world(world, assignments, partition=partition, work_regions=work_regions)
