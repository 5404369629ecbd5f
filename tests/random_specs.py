"""Seeded random episode specs outside the generated classes A-D.

Seed 0's dataset never runs a `dependency_block` (its components never span
agents) or a window that outlives its issue. These specs do: each draws
2-5 agents and 3-18 blocks at distinct positions, prerequisite edges u->v
with u < v across any agents, a random assignment and material partition,
inventories, sources, chests, stations and responder scripts, with the
default recipes. `random_config` draws a run config beside each.

Nothing here narrows the draw to shapes the runtime handles well: a spec
is used as drawn.
"""

import random

from gatecraft import RunConfig, default_recipes
from gatecraft.cli import ABLATION_VARIANTS
from gatecraft.scenarios import EpisodeSpec

BLOCK_MATERIALS = ("cobblestone", "oak_planks", "iron_ingot", "glass", "smooth_sandstone", "stick")
RAW_ITEMS = ("oak_log", "iron_ore", "coal", "sand", "sandstone")
ITEMS = BLOCK_MATERIALS + RAW_ITEMS
SPREADS = (8, 20, 45)
BEHAVIOURS = ("silent", "cannot_supply", "honest")
RANDOM_SPEC_COUNT = 60  # the specs r00..r59 that the golden digests cover


def _position(rng: random.Random, spread: int) -> list[int]:
    return [rng.randint(-spread, spread), rng.randint(0, 2), rng.randint(-spread, spread)]


def random_spec(index: int) -> EpisodeSpec:
    """The spec `r<index>`, drawn from `random.Random(index)` alone."""
    rng = random.Random(index)
    aids = [f"a{i}" for i in range(rng.randint(2, 5))]
    spread = rng.choice(SPREADS)
    n_blocks = rng.randint(3, 18)

    taken: set[tuple] = set()  # block and station positions: a blueprint's are distinct

    def free_position() -> list[int]:
        while True:
            pos = _position(rng, spread)
            if tuple(pos) not in taken:
                taken.add(tuple(pos))
                return pos

    blocks = [[n, rng.choice(BLOCK_MATERIALS), free_position()] for n in range(n_blocks)]
    edges = [[u, v] for v in range(n_blocks) for u in range(v) if rng.random() < 0.15]
    assigned = {aid: [] for aid in aids}
    for n in range(n_blocks):
        assigned[rng.choice(aids)].append(n)
    partition = {m: rng.choice(aids) for m in sorted({b[1] for b in blocks}) if rng.random() < 0.5}

    agents = {}
    for aid in aids:
        inventory: dict[str, int] = {}
        for n in assigned[aid]:
            if rng.random() < 0.7:
                material = blocks[n][1]
                inventory[material] = inventory.get(material, 0) + 1
        for _ in range(rng.randint(0, 3)):
            item = rng.choice(ITEMS)
            inventory[item] = inventory.get(item, 0) + rng.randint(1, 2)
        agents[aid] = {"position": _position(rng, spread), "inventory": inventory}

    sources = [[rng.choice(ITEMS), _position(rng, spread), rng.randint(1, 3)]
               for _ in range(rng.randint(0, 4))]
    chests = [[_position(rng, spread), {rng.choice(ITEMS): rng.randint(1, 3)}]
              for _ in range(rng.randint(0, 2))]
    scaffold = [[free_position(), station] for station in ("furnace", "crafting_table")
                if rng.random() < 0.6]
    script = {aid: [rng.choice(BEHAVIOURS) for _ in range(rng.randint(1, 3))]
              for aid in aids if rng.random() < 0.3}

    return EpisodeSpec(
        episode_id=f"r{index:02d}", template_id=index, seed_index=0, class_label="R",
        variant="random", agents=agents, blocks=blocks, edges=edges, assigned=assigned,
        partition=partition,
        work_regions={aid: [body["position"], 12] for aid, body in agents.items()},
        recipes=[r.to_dict() for r in default_recipes().recipes.values()],
        sources=sources, chests=chests, scaffold=scaffold, responder_script=script,
    )


def random_config(index: int) -> RunConfig:
    """A config drawn for the spec `r<index>`: an ablation variant with a
    drawn window timeout, cooldown and step budget."""
    rng = random.Random(-1 - index)
    _, overrides = rng.choice(ABLATION_VARIANTS)
    return RunConfig(
        **overrides, window_timeout=rng.randint(1, 25),
        cooldown_duration=rng.randint(0, 40), step_budget=rng.randint(20, 300))
