"""Benchmark scenario templates and the generated episode dataset.

Episodes come in four blockage classes, each engineered around one injected
bottleneck node (always node 0, assigned to agent a0):

  A — locally recoverable: the missing item is at hand or one craft away.
  B — genuine transfer bottleneck: the item sits in a teammate's partition
      with no local route, so the gate's deterministic rules escalate.
  C — ambiguous middle ground: a local route exists but is expensive, and the
      normalized score lands in the gray band between the two thresholds.
  D — coordination fault: structurally class B, but the designated holder is
      scripted to refuse or ignore requests.

Every generated spec is checked by `validate_class_property`, which runs
a0's first step in the real episode runtime under `RunConfig()` defaults —
the run's own first gate decision — and asserts the class-defining structure
(issue type, feature vector, verdict, local-plan cost band).
"""

from __future__ import annotations

import json
import random
from collections import Counter
from collections.abc import Sequence
from pathlib import Path

from .agent import EpisodeRuntime, RunConfig, read_jsonl_by_line, step
from .world import (
    AgentBody,
    BlockSpec,
    Blueprint,
    Chest,
    Inventory,
    PlanInfo,
    Recipe,
    RecipeBook,
    Source,
    TaskGraph,
    WorldState,
    default_recipes,
)

SEEDS_PER_TEMPLATE = 5
REGION_RADIUS = 12

FAMILIES = ("tower", "wall", "house", "courtyard", "workshop")
A_FLAVORS = ("stay", "eq_driver", "nol_driver")

BULK_MATERIAL = {"a0": "stone_bricks", "a1": "spruce_planks", "a2": "birch_planks"}
REGION_CENTERS = {"a0": (0, 0, 0), "a1": (24, 0, 0), "a2": (0, 0, 24)}

# Family shapes: block offsets from the region center plus intra-component
# prerequisite edges (local indices). Components never span agents.
FAMILY_SHAPES: dict[str, tuple[list[tuple[int, int, int]], list[tuple[int, int]]]] = {
    "tower": (
        [(0, 0, 1), (0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 4, 1)],
        [(0, 1), (1, 2), (2, 3), (3, 4)],
    ),
    "wall": (
        [(0, 0, 1), (1, 0, 1), (2, 0, 1), (0, 1, 1), (1, 1, 1), (2, 1, 1)],
        [(0, 3), (1, 4), (2, 5)],
    ),
    "house": (
        [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1), (0, 2, 1), (1, 2, 1)],
        [(0, 2), (1, 3), (2, 4), (3, 4), (4, 5)],
    ),
    "courtyard": (
        [(0, 0, 1), (2, 0, 1), (0, 0, 3), (2, 0, 3)],
        [(0, 1), (0, 2), (1, 3), (2, 3)],
    ),
    "workshop": (
        [(0, 0, 1), (1, 0, 2), (-1, 0, 2), (0, 1, 2), (0, 2, 2)],
        [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)],
    ),
}

# Offsets whose distance lies in [5, 8]: close enough for L=3, never adjacent.
_NEAR_SOURCE_OFFSETS = [
    (3, 4), (4, 4), (5, 3), (4, 5), (6, 2), (5, 5), (6, 4), (0, 6), (6, 0), (7, 0), (8, 0),
]

# Responder spawn offsets with distance < 10 (strict), for R=3 setups.
_IMMEDIATE_SPAWN_OFFSETS = [
    (8, 0), (0, 8), (6, 4), (4, 6), (6, 3), (3, 6), (7, 0), (0, 7), (5, 5), (9, 0), (6, 6),
]


class Template:
    """One scenario family instance; five seeds expand it into five episodes."""

    __slots__ = ("template_id", "class_label", "variant", "agent_count", "family")

    def __init__(self, template_id: int, class_label: str, variant: str, agent_count: int,
                 family: str):
        self.template_id = template_id
        self.class_label = class_label
        self.variant = variant
        self.agent_count = agent_count
        self.family = family


def dataset_templates() -> list[Template]:
    """The fixed 40-template roster: 10 per class, 6 two-agent + 4 three-agent."""
    out: list[Template] = []
    tid = 0
    for cls in "ABCD":
        for i in range(10):
            agent_count = 2 if i < 6 else 3
            family = FAMILIES[i % 5]
            if cls == "A":
                variant = A_FLAVORS[i % 3]
            elif cls == "B":
                variant = "standard"
            elif cls == "C":
                variant = "v1" if i % 2 == 0 else "v2"
            else:
                variant = "cannot_supply" if i % 2 == 0 else "silent"
            out.append(Template(tid, cls, variant, agent_count, family))
            tid += 1
    return out


class EpisodeSpec:
    """A fully serialized, self-contained episode definition.

    JSON-safe throughout: positions are 3-int lists, recipes plain dicts.
    `build_world` and `plan_info` reconstruct the simulator inputs.
    """

    __slots__ = ("episode_id", "template_id", "seed_index", "class_label", "variant", "agents",
                 "blocks", "edges", "assigned", "partition", "work_regions", "recipes", "sources",
                 "chests", "scaffold", "responder_script", "injected", "meta")

    def __init__(self, episode_id: str, template_id: int, seed_index: int, class_label: str,
                 variant: str, agents: dict[str, dict], blocks: list, edges: list,
                 assigned: dict[str, list[int]], partition: dict[str, str],
                 work_regions: dict[str, list], recipes: list, sources: list | None = None,
                 chests: list | None = None, scaffold: list | None = None,
                 responder_script: dict[str, list[str]] | None = None,
                 injected: list[int] | None = None, meta: dict | None = None):
        self.episode_id = episode_id
        self.template_id = template_id
        self.seed_index = seed_index
        self.class_label = class_label
        self.variant = variant
        self.agents = agents  # aid -> {"position": [x,y,z], "inventory": {item: n}}
        self.blocks = blocks  # [node_id, material, [x,y,z]]
        self.edges = edges  # [u, v] pairs
        self.assigned = assigned
        self.partition = partition
        self.work_regions = work_regions  # aid -> [[x,y,z], radius]
        self.recipes = recipes  # recipe dicts
        self.sources = [] if sources is None else sources  # [item, [x,y,z], remaining]
        self.chests = [] if chests is None else chests  # [[x,y,z], {item: n}]
        self.scaffold = [] if scaffold is None else scaffold  # [[x,y,z], material]
        self.responder_script = {} if responder_script is None else responder_script
        self.injected = [] if injected is None else injected
        self.meta = {} if meta is None else meta

    # -- reconstruction ----------------------------------------------------

    def build_world(self) -> WorldState:
        blueprint = Blueprint(
            name=self.episode_id,
            blocks=tuple(
                BlockSpec(node_id=n, material=m, position=tuple(pos)) for n, m, pos in self.blocks
            ),
        )
        graph = TaskGraph([b[0] for b in self.blocks], [(u, v) for u, v in self.edges])
        recipes = RecipeBook([Recipe.from_dict(r) for r in self.recipes])
        agents = {
            aid: AgentBody(
                agent_id=aid,
                position=tuple(cfg["position"]),
                inventory=Inventory({k: int(v) for k, v in cfg["inventory"].items()}),
            )
            for aid, cfg in sorted(self.agents.items())
        }
        sources = [Source(item=i, position=tuple(p), remaining=int(r)) for i, p, r in self.sources]
        chests = [Chest(position=tuple(p), inventory=Inventory(dict(inv))) for p, inv in self.chests]
        scaffold = {tuple(p): m for p, m in self.scaffold}
        return WorldState(
            blueprint=blueprint,
            graph=graph,
            recipes=recipes,
            agents=agents,
            sources=sources,
            chests=chests,
            scaffold=scaffold,
        )

    def plan_info(self, world: WorldState) -> PlanInfo:
        assignments = {n: aid for aid, nodes in self.assigned.items() for n in nodes}
        return PlanInfo.for_world(world, assignments, partition=self.partition)

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """Every field by name, in `__slots__` order. The values are the
        spec's own, not copies."""
        return {name: getattr(self, name) for name in self.__slots__}

    @classmethod
    def from_dict(cls, d: dict) -> "EpisodeSpec":
        """The spec `d` describes. Raises ValueError, naming the field, when
        its world cannot be built: a position that is not three integers, an
        item count that is not an integer >= 0, `blocks` repeating a node id
        or a position, `assigned` listing a node twice, `assigned` or `edges`
        naming a node that is not one of `blocks`, or `edges` closing a
        cycle. Also when `episode_id`, which names the episode's trace file,
        is not a non-empty single path component (no `/`, `\\` or NUL; not
        `.` or `..`)."""
        episode_id = d["episode_id"]
        if (not isinstance(episode_id, str) or episode_id in ("", ".", "..")
                or any(c in episode_id for c in "/\\\0")):
            raise ValueError(f"episode_id {episode_id!r} is not a single path component")
        agents = d["agents"]
        for aid, body in agents.items():
            check_position(body["position"], "agents.{}.position", aid)
            check_counts(body["inventory"], "agents.{}.inventory", aid)
        blocks = [[int(n), m, p if is_position(p) else check_position(p, "blocks node {} position", n)]
                  for n, m, p in d["blocks"]]
        edges = [[int(u), int(v)] for u, v in d["edges"]]
        assigned = {aid: [int(n) for n in nodes] for aid, nodes in d["assigned"].items()}
        nodes: set[int] = set()
        node_at: dict[tuple, int] = {}
        for n, _, p in blocks:
            if n in nodes:
                raise ValueError(f"blocks repeat node {n}")
            if (at := tuple(p)) in node_at:
                raise ValueError(f"blocks node {n} repeats the position of node {node_at[at]}: {p}")
            nodes.add(n)
            node_at[at] = n
        owner: dict[int, str] = {}
        for aid, ns in assigned.items():
            for n in ns:
                if n in owner:
                    raise ValueError(f"assigned lists node {n} under {owner[n]} and {aid}")
                owner[n] = aid
        if stray := sorted(owner.keys() - nodes):
            raise ValueError(f"assigned names nodes outside blocks: {stray}")
        if stray := [e for e in edges if not nodes.issuperset(e)]:
            raise ValueError(f"edges name nodes outside blocks: {stray}")
        # ids ascending along every edge, as generated, rule a cycle out
        if any(u >= v for u, v in edges):
            try:
                TaskGraph(list(nodes), edges)
            except ValueError:
                raise ValueError(f"edges close a cycle: {edges}") from None
        sources = d.get("sources", [])
        for i, (_, p, remaining) in enumerate(sources):
            check_position(p, "sources[{}] position", i)
            check_count(remaining, "sources[{}] remaining", i)
        chests = d.get("chests", [])
        for i, (p, inventory) in enumerate(chests):
            check_position(p, "chests[{}] position", i)
            check_counts(inventory, "chests[{}].inventory", i)
        scaffold = d.get("scaffold", [])
        for i, (p, _) in enumerate(scaffold):
            check_position(p, "scaffold[{}] position", i)
        return cls(
            episode_id=episode_id,
            template_id=int(d["template_id"]),
            seed_index=int(d["seed_index"]),
            class_label=d["class_label"],
            variant=d["variant"],
            agents=agents,
            blocks=blocks,
            edges=edges,
            assigned=assigned,
            partition=dict(d["partition"]),
            work_regions=d["work_regions"],
            recipes=d["recipes"],
            sources=sources,
            chests=chests,
            scaffold=scaffold,
            responder_script=d.get("responder_script", {}),
            injected=[int(n) for n in d.get("injected", [])],
            meta=d.get("meta", {}),
        )


def is_position(p) -> bool:
    """Whether `p` is a position as JSON holds one: a list of three integers."""
    return type(p) is list and len(p) == 3 and type(p[0]) is type(p[1]) is type(p[2]) is int


# Each check below names the field as `field.format(*at)`, formatted only
# when the check fails: a dataset load runs them on every line.

def check_position(p, field: str, *at) -> list:
    """`p`, or ValueError naming the field when it is not a position."""
    if not is_position(p):
        raise ValueError(f"{field.format(*at)} {p!r} is not three integers")
    return p


def check_count(n, field: str, *at) -> int:
    """`n`, or ValueError naming the field when it is not an integer >= 0."""
    if type(n) is not int or n < 0:
        raise ValueError(f"{field.format(*at)} {n!r} is not an integer >= 0")
    return n


def check_counts(counts: dict, field: str, *at) -> dict:
    """`counts`, or ValueError naming the field and the item of a count
    that is not an integer >= 0."""
    for item, n in counts.items():
        if type(n) is not int or n < 0:
            check_count(n, "{}.{}", field.format(*at), item)
    return counts


def _recipe_dicts(extra: list[Recipe] | None = None) -> list[dict]:
    book = default_recipes()
    recipes = [book.recipes[k] for k in sorted(book.recipes)] + list(extra or [])
    return [r.to_dict() for r in recipes]


def _assemble(template: Template, seed_index: int, rng: random.Random) -> EpisodeSpec:
    """Lay out one candidate episode, its geometry jittered by `rng`."""
    cls, variant = template.class_label, template.variant
    aids = [f"a{i}" for i in range(template.agent_count)]

    spawn: dict[str, tuple[int, int, int]] = {}
    sx, sz = rng.randint(-1, 1), rng.randint(-1, 1)
    spawn["a0"] = (sx, 0, sz)
    for aid in aids[1:]:
        cx, cy, cz = REGION_CENTERS[aid]
        spawn[aid] = (cx + rng.randint(-1, 1), cy, cz + rng.randint(-1, 1))

    # Class-specific responder placement (a1 is always the counterparty).
    if cls in ("B", "D"):
        spawn["a1"] = (sx + rng.randint(11, 14), 0, sz)
    elif cls == "C" and variant == "v1":
        ox, oz = rng.choice(_IMMEDIATE_SPAWN_OFFSETS)
        spawn["a1"] = (sx + ox, 0, sz + oz)

    # Injected bottleneck chain: node 0 plus `dep_count` dependents, all a0's.
    if cls == "A":
        item = "oak_planks" if variant == "eq_driver" else "sandstone"
        dep_count = 4 if variant == "nol_driver" else 1
    elif cls in ("B", "D"):
        item, dep_count = "iron_ingot", 4
    elif variant == "v1":
        item, dep_count = "ornate_sandstone", 0
    else:
        item, dep_count = "stained_glass", 1

    blocks: list = []
    edges: list = []
    injected = list(range(dep_count + 1))
    blocks.append([0, item, [sx + 1, 0, sz - 2]])
    for i in range(1, dep_count + 1):
        blocks.append([i, BULK_MATERIAL["a0"], [sx + 1, 0, sz - 2 - i]])
        edges.append([i - 1, i])

    # Per-agent family components, prerequisite-closed within each agent.
    assigned = {aid: [] for aid in aids}
    assigned["a0"] = list(injected)
    next_id = len(injected)
    shape_offsets, shape_edges = FAMILY_SHAPES[template.family]
    for aid in aids:
        cx, cy, cz = REGION_CENTERS[aid]
        base = next_id
        for dx, dy, dz in shape_offsets:
            blocks.append([next_id, BULK_MATERIAL[aid], [cx + dx, cy + dy, cz + dz]])
            assigned[aid].append(next_id)
            next_id += 1
        edges.extend([base + u, base + v] for u, v in shape_edges)

    # Exact preloads: every assigned node's material except the bottleneck's.
    loads: dict[str, Counter] = {aid: Counter() for aid in aids}
    owner_of = {n: aid for aid, nodes in assigned.items() for n in nodes}
    for node_id, material, _pos in blocks:
        if node_id == 0:
            continue
        loads[owner_of[node_id]][material] += 1

    partition = {BULK_MATERIAL[aid]: aid for aid in aids}
    sources: list = []
    scaffold: list = []
    extra_recipes: list[Recipe] = []
    responder_script: dict[str, list[str]] = {}

    if cls == "A":
        if variant == "eq_driver":
            loads["a0"]["oak_log"] += 1
            partition["oak_log"] = "a1"
            partition["oak_planks"] = "a0"
        else:
            ox, oz = rng.choice(_NEAR_SOURCE_OFFSETS)
            sources.append(["sandstone", [sx + ox, 0, sz + oz], 1 + rng.randint(0, 2)])
            partition["sandstone"] = "a0"
    elif cls in ("B", "D"):
        loads["a1"]["iron_ingot"] += 1
        partition["iron_ingot"] = "a1"
        if cls == "D":
            responder_script["a1"] = [variant] * 3
    else:  # class C: an expensive two-leg collect detour plus one craft/smelt
        j = lambda: rng.randint(-2, 2)
        near = ["sandstone" if variant == "v1" else "sand", [sx + 38 + j(), 0, sz + j()], 4 + rng.randint(0, 2)]
        far = ["coal", [sx + 19 + j(), 0, sz + 33 + j()], 2 + rng.randint(0, 2)]
        sources.extend([near, far])
        if variant == "v1":
            scaffold.append([[sx - 20 + j(), 0, sz + j()], "crafting_table"])
            extra_recipes.append(
                Recipe(
                    "ornate_sandstone_assembly", "craft", ("ornate_sandstone", 1),
                    (("sandstone", 4), ("coal", 2)), station="crafting_table",
                )
            )
            loads["a1"]["ornate_sandstone"] += 1
            partition["ornate_sandstone"] = "a1"
        else:
            scaffold.append([[sx - 20 + j(), 0, sz + j()], "furnace"])
            extra_recipes.append(
                Recipe(
                    "stained_glass_mix", "smelt", ("stained_glass", 1),
                    (("sand", 4), ("coal", 2)), station="furnace",
                )
            )
            partition["sand"] = "a1"

    agents = {
        aid: {"position": list(spawn[aid]), "inventory": {k: int(v) for k, v in sorted(loads[aid].items())}}
        for aid in aids
    }
    regions = {aid: [list(REGION_CENTERS[aid]), REGION_RADIUS] for aid in aids}

    return EpisodeSpec(
        episode_id=f"{cls.lower()}{template.template_id:02d}s{seed_index}",
        template_id=template.template_id,
        seed_index=seed_index,
        class_label=cls,
        variant=variant,
        agents=agents,
        blocks=blocks,
        edges=edges,
        assigned=assigned,
        partition=partition,
        work_regions=regions,
        recipes=_recipe_dicts(extra_recipes),
        sources=sources,
        scaffold=scaffold,
        responder_script=responder_script,
        injected=injected,
        meta={
            "family": template.family,
            "agent_count": template.agent_count,
            "class": cls,
            "variant": variant,
        },
    )


def _rng_for(dataset_seed: int, template_id: int, seed_index: int) -> random.Random:
    return random.Random((dataset_seed * 10007 + template_id) * 101 + seed_index)


def build_episode(template: Template, seed_index: int, dataset_seed: int = 0) -> EpisodeSpec:
    """The first jittered instance of the template whose class property
    holds. A sample misses only on the geometric cost bands, never on
    structure. After 100 misses, ValueError names the template, the seed
    index and the last miss."""
    rng = _rng_for(dataset_seed, template.template_id, seed_index)
    for _ in range(100):
        spec = _assemble(template, seed_index, rng)
        try:
            validate_class_property(spec)
        except ValueError as exc:
            miss = str(exc)  # not the exception, whose traceback would hold this frame
            continue
        return spec
    raise ValueError(f"template {template.template_id} (class {template.class_label}, "
                     f"{template.variant}), seed index {seed_index}, dataset seed {dataset_seed}: "
                     f"no sample of 100 passed the class checks; the last: {miss}")


# -- class-property validation ----------------------------------------------

C_COST_BAND = (31, 38)


def probe_bottleneck(spec: EpisodeSpec) -> dict:
    """Run a0's first step in the real runtime under `RunConfig()` defaults
    and return the facts of its gate pass for assertions. a0 comes first in
    the round-robin, so this is the run's first decision; `{"issue": None}`
    when that step passes no gate."""
    ep = EpisodeRuntime(spec, RunConfig())
    step(ep.states["a0"], ep)
    if not ep.gate_passes:
        return {"issue": None}
    gp = ep.gate_passes[0]
    decision = ep.trace.events[gp.event_index]["payload"]
    return {
        "issue": gp.blockage.issue,
        "item": gp.blockage.item,
        "node_id": gp.blockage.node_id,
        "fv": gp.fv.as_tuple(),
        "plan_cost": gp.plan.total_cost if gp.plan is not None else None,
        "verdict": decision["verdict"],
        "tier": decision["tier"],
        "score_norm": decision["score_norm"],
    }


def _require(cond: bool, spec: EpisodeSpec, msg: str) -> None:
    if not cond:
        raise ValueError(f"{spec.episode_id}: {msg}")


def validate_class_property(spec: EpisodeSpec) -> dict:
    """Assert the class-defining structure of a spec; returns the probe facts.

    Raises ValueError with a precise reason when any check fails, so the
    generator's sampling loop can reject a bad jitter and try again.
    """
    _require(spec.injected and spec.injected[0] == 0, spec, "bottleneck must be node 0")
    _require(0 in spec.assigned.get("a0", []), spec, "node 0 must belong to a0")
    world = spec.build_world()  # also runs blueprint/graph well-formedness checks
    _require(
        len(spec.agents) == spec.meta.get("agent_count"), spec, "agent count mismatch"
    )

    # Preloads cover every assigned node except the bottleneck.
    owner_of = {n: aid for aid, nodes in spec.assigned.items() for n in nodes}
    need: dict[str, Counter] = {aid: Counter() for aid in spec.agents}
    for node_id, material, _pos in spec.blocks:
        if node_id != 0:
            need[owner_of[node_id]][material] += 1
    for aid, counts in need.items():
        inv = spec.agents[aid]["inventory"]
        for material, n in counts.items():
            _require(inv.get(material, 0) >= n, spec, f"{aid} preload misses {material}")

    probe = probe_bottleneck(spec)
    _require(probe["issue"] is not None, spec, "no issue detected at t=0")
    _require(probe["node_id"] == 0, spec, "issue must bind to the bottleneck node")
    fv = probe["fv"]
    cls, variant = spec.class_label, spec.variant

    if cls == "A":
        _require(probe["issue"] == "missing_material", spec, f"A must miss material, got {probe['issue']}")
        _require(probe["verdict"] == "stay_local", spec, "A must stay local under defaults")
        if variant == "stay":
            _require(fv[3] == 3 and fv[0] <= 1, spec, f"stay flavor needs L=3, C<=1, got {fv}")
            _require(probe["tier"] == "rule", spec, "stay flavor must short-circuit on rules")
        elif variant == "eq_driver":
            _require(fv == (1, 1, 1, 2, 0), spec, f"eq_driver fv drifted: {fv}")
            _require(probe["tier"] == "score", spec, "eq_driver must be decided by score")
        else:
            _require(fv == (2, 0, 1, 3, 0), spec, f"nol_driver fv drifted: {fv}")
            _require(probe["tier"] == "score", spec, "nol_driver must be decided by score")
        _require(probe["plan_cost"] is not None and probe["plan_cost"] <= 4, spec, "A local fix must be cheap")
    elif cls in ("B", "D"):
        _require(probe["issue"] == "transfer_needed", spec, f"{cls} must need a transfer, got {probe['issue']}")
        _require(probe["verdict"] == "escalate" and probe["tier"] == "rule", spec, "transfer rule must fire")
        _require(fv[1] >= 2, spec, f"responder must read as resource-viable, got {fv}")
        _require(probe["plan_cost"] is None, spec, "no local route may exist")
        holder_inv = spec.agents["a1"]["inventory"]
        _require(holder_inv.get(probe["item"], 0) >= 1, spec, "designated holder must own the item")
        if cls == "D":
            script = spec.responder_script.get("a1", [])
            _require(len(script) >= 2 and all(s == variant for s in script), spec, "bad responder script")
    else:
        _require(probe["issue"] == "missing_material", spec, f"C must miss material, got {probe['issue']}")
        _require(probe["tier"] == "adjudicator", spec, f"C must reach the adjudicator, got {probe['tier']}")
        _require(probe["verdict"] == "escalate", spec, "mock adjudicator should lean escalate here")
        th = RunConfig().thresholds
        _require(th.t_low < probe["score_norm"] < th.t_high, spec,
                 f"score {probe['score_norm']} left the gray band")
        lo, hi = C_COST_BAND
        _require(
            probe["plan_cost"] is not None and lo <= probe["plan_cost"] <= hi,
            spec, f"local detour cost {probe['plan_cost']} outside [{lo}, {hi}]",
        )
        expected = (0, 3, 1, 1, 0) if variant == "v1" else (1, 1, 1, 1, 0)
        _require(fv == expected, spec, f"{variant} fv drifted: {fv}")

    # Stations must sit outside every work region (they are shared detour
    # infrastructure, not anyone's claim).
    for pos, _mat in spec.scaffold:
        for aid, (center, radius) in spec.work_regions.items():
            dx = pos[0] - center[0]
            dy = pos[1] - center[1]
            dz = pos[2] - center[2]
            _require(dx * dx + dy * dy + dz * dz > radius * radius, spec,
                     f"station at {pos} inside {aid}'s region")
    return probe


# -- dataset assembly ---------------------------------------------------------


def generate_dataset(dataset_seed: int = 0) -> tuple[dict, list[EpisodeSpec]]:
    """All templates x seeds, plus a manifest summarizing the composition."""
    templates = dataset_templates()
    episodes = [
        build_episode(t, s, dataset_seed) for t in templates for s in range(SEEDS_PER_TEMPLATE)
    ]
    manifest = {
        "dataset_seed": dataset_seed,
        "templates": len(templates),
        "seeds_per_template": SEEDS_PER_TEMPLATE,
        "total_episodes": len(episodes),
        "per_class": {c: sum(1 for e in episodes if e.class_label == c) for c in "ABCD"},
        "two_agent_episodes": sum(1 for e in episodes if e.meta["agent_count"] == 2),
        "three_agent_episodes": sum(1 for e in episodes if e.meta["agent_count"] == 3),
        "episode_ids": [e.episode_id for e in episodes],
    }
    return manifest, episodes


def save_dataset(manifest: dict, episodes: list[EpisodeSpec], out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    with (out / "episodes.jsonl").open("w") as fh:
        for spec in episodes:
            fh.write(json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":")) + "\n")
    return out


class Dataset(Sequence):
    """A loaded dataset, held as the validated JSON line of each episode.
    Every access (indexing, iteration) decodes a fresh `EpisodeSpec` from
    its line, so a run holds only the spec it is running, and mutating one
    leaves the dataset as it was. A slice, and a `select`ion, is a `Dataset`
    of its lines."""

    __slots__ = ("_lines",)

    def __init__(self, lines: tuple[str, ...]):
        self._lines = lines

    def __len__(self) -> int:
        return len(self._lines)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Dataset(self._lines[index])
        return _decode(self._lines[index])

    def __iter__(self):
        return map(_decode, self._lines)

    def select(self, indices) -> "Dataset":
        """The `Dataset` of the lines at `indices`, in that order."""
        return Dataset(tuple(self._lines[i] for i in indices))


def _decode(line: str) -> EpisodeSpec:
    return EpisodeSpec.from_dict(json.loads(line))


def _check(value: dict) -> str:
    """Decode a spec from a checked line's value; keep only its id."""
    return EpisodeSpec.from_dict(value).episode_id


def load_dataset(path: str | Path) -> Dataset:
    """Read a saved dataset's episodes; `manifest.json` is not read. Every
    line is checked before this returns: a line that is not valid JSON,
    lacks a field, or repeats an earlier line's episode id (which names a
    trace file) raises ValueError naming the file and the line."""
    root = Path(path)
    episodes_file = root if root.is_file() else root / "episodes.jsonl"
    try:
        text = episodes_file.read_text()
        ids = read_jsonl_by_line(text, _check)
    except ValueError as exc:
        raise ValueError(f"{episodes_file} {exc}") from exc
    numbered = [(n, line) for n, line in enumerate(text.splitlines(), 1) if line.strip()]
    first_line: dict[str, int] = {}
    for (n, _), episode_id in zip(numbered, ids):
        if (m := first_line.setdefault(episode_id, n)) != n:
            raise ValueError(f"{episodes_file} line {n}: episode_id {episode_id!r} repeats line {m}")
    return Dataset(tuple(line for _, line in numbered))
