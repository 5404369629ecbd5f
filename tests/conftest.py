import ast
import concurrent.futures
import itertools
from pathlib import Path

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
from gatecraft import agent
from gatecraft.agent import simulate_episode
from gatecraft.scenarios import EpisodeSpec, generate_dataset
from gatecraft.world import observe


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


def plan_for(world, assignments=None, partition=None):
    assignments = assignments or {n: "a0" for n in world.blueprint.by_id}
    return PlanInfo.for_world(world, assignments, partition=partition)


def hand_built_spec(agents, blocks, assigned, partition, script, sources=(), edges=(), chests=(),
                    inventories=None):
    """An episode spec outside the generated classes, with the default
    recipes and a radius-12 work region around each agent."""
    return EpisodeSpec(
        episode_id="hand", template_id=0, seed_index=0, class_label="D", variant="hand",
        agents={aid: {"position": pos, "inventory": (inventories or {}).get(aid, {})}
                for aid, pos in agents.items()},
        blocks=blocks, edges=list(edges), assigned=assigned, partition=partition,
        work_regions={aid: [pos, 12] for aid, pos in agents.items()},
        recipes=[r.to_dict() for r in default_recipes().recipes.values()],
        sources=list(sources), chests=list(chests), responder_script=script,
    )


def dependency_block_spec():
    """a0's node 1 waits on a1's node 2, the one prerequisite edge that
    crosses agents; each agent has a source of its own node's material."""
    return hand_built_spec(
        agents={"a0": [0, 0, 0], "a1": [12, 0, 0]},
        blocks=[[1, "oak_planks", [1, 0, 1]], [2, "cobblestone", [10, 0, 1]]],
        assigned={"a0": [1], "a1": [2]}, partition={}, script={},
        sources=[["oak_planks", [0, 0, 2], 2], ["cobblestone", [12, 0, 2], 2]], edges=[[2, 1]],
    )


def stay_local_dead_end_spec():
    """a0's node 1 needs the iron ingot that only a1 holds, and a0 has no
    local route to it. The gate keeps the issue local (its score is below
    `t_low` with the partition on or off), and a0's skip work, node 2, runs
    out at once: no plan, no skip work, no window and no retry is left."""
    return hand_built_spec(
        agents={"a0": [0, 0, 0], "a1": [20, 0, 0]},
        blocks=[[1, "iron_ingot", [1, 0, 1]], [2, "cobblestone", [2, 0, 1]],
                [3, "cobblestone", [20, 0, 1]]],
        assigned={"a0": [1, 2], "a1": [3]}, partition={}, script={},
        inventories={"a0": {"cobblestone": 1}, "a1": {"iron_ingot": 1, "cobblestone": 1}},
    )


def attribute_reads(path: Path, names) -> set[tuple[str, str, str]]:
    """`(module, scope, name)` for each load of an attribute called one of
    `names` in the module at `path`. The scope is the dotted path of the
    enclosing classes and functions, or `<module>`."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if (isinstance(child, ast.Attribute) and child.attr in names
                    and isinstance(child.ctx, ast.Load)):
                found.add((path.stem, scope or "<module>", child.attr))
            visit(child, inner)

    visit(ast.parse(path.read_text()), "")
    return found


def run_checking_views(spec, config, monkeypatch):
    """Simulate `spec` under `config` with spies on `agent.observe` and
    `agent.step`: every view the runtime's cache serves must equal a fresh
    `observe` without one, and every step's `obs_digest` the fresh view's
    digest. Returns the runtime and the views served, in order."""
    real_step = agent.step
    served = []

    def checked_observe(world, agent_id, plan=None, cache=None):
        view = observe(world, agent_id, plan, cache)
        assert cache is not None
        assert view == observe(world, agent_id, plan), (agent_id, world.sim_time)
        served.append(view)
        return view

    def checked_step(state, ep):
        digest, action = real_step(state, ep)
        # a step reads the world but never changes it
        expected = observe(ep.world, state.agent_id, plan=ep.plan_info).digest()
        assert digest == expected, (state.agent_id, ep.world.sim_time)
        return digest, action

    with monkeypatch.context() as patch:
        patch.setattr(agent, "observe", checked_observe)
        patch.setattr(agent, "step", checked_step)
        run = simulate_episode(spec, config)
    assert served
    return run, served



def record_pool_sizes(monkeypatch, tasks: list | None = None) -> list[int]:
    """Stand in for `concurrent.futures.ProcessPoolExecutor` with a pool
    that maps in this process, so no worker is started, and return the list
    each pool appends its `max_workers` to. Like a real pool, `map` takes
    every task up front; it appends each task's arguments to `tasks`, when
    given."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            taken = list(zip(*iterables))
            if tasks is not None:
                tasks.extend(taken)
            return itertools.starmap(fn, taken)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes
