"""Deterministic block-construction world: blueprints, task DAGs, inventories, actions.

Everything here is pure bookkeeping on plain Python data. The same
(world, agent, action) triple always yields the same successor state and
outcome; failures are returned as statuses, never raised.

A world changes only through `apply_action`, and every change it makes is
named in the returned outcome's deltas (`sim_time` aside, which every call
advances). That is the invariant `ViewCache` rests on: the outcome deltas
are the only invalidation an agent's cached view needs.
"""

from __future__ import annotations

import math
import zlib

Position = tuple[int, int, int]

# World physics, fixed for every episode: the reach of place/collect/transfer/
# craft-at-station, blocks moved per move action, the farthest supply or
# station the local planner and issue detection consider, and how far an
# agent sees sources, chests and teammates.
INTERACTION_RADIUS = 3
SPEED = 5
FAR_THRESHOLD = 40
OBSERVE_RADIUS = 50


def dist_sq(a: Position, b: Position) -> int:
    """Exact squared Euclidean distance between two lattice positions."""
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2 + (a[2] - b[2]) ** 2


def within(a: Position, b: Position, radius: float) -> bool:
    return dist_sq(a, b) <= radius * radius


def travel_steps(distance: float, radius: float, speed: int) -> int:
    """Estimated move actions to bring `distance` down to `radius` at `speed` blocks/step."""
    if distance <= radius:
        return 0
    return math.ceil((distance - radius) / speed)


class Inventory:
    """Non-negative item counts. Zero-count keys are dropped eagerly."""

    __slots__ = ("counts",)

    def __init__(self, counts: dict[str, int] | None = None):
        self.counts: dict[str, int] = {}
        if counts:
            for item, n in counts.items():
                if n < 0:
                    raise ValueError(f"negative count for {item!r}")
                if n > 0:
                    self.counts[item] = n

    def count(self, item: str) -> int:
        return self.counts.get(item, 0)

    def add(self, item: str, n: int) -> None:
        if n < 0:
            raise ValueError("add() takes a non-negative count")
        if n:
            self.counts[item] = self.counts.get(item, 0) + n

    def remove(self, item: str, n: int) -> None:
        have = self.counts.get(item, 0)
        if n < 0 or n > have:
            raise ValueError(f"cannot remove {n} x {item!r} (have {have})")
        left = have - n
        if left:
            self.counts[item] = left
        else:
            self.counts.pop(item, None)

    def copy(self) -> "Inventory":
        inv = Inventory()
        inv.counts = dict(self.counts)  # already validated
        return inv

    def to_dict(self) -> dict[str, int]:
        return {k: self.counts[k] for k in sorted(self.counts)}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Inventory) and self.counts == other.counts

    def __repr__(self) -> str:
        return f"Inventory({self.to_dict()})"


class BlockSpec:
    """One blueprint block: a node in the task graph with a material and a position."""

    __slots__ = ("node_id", "material", "position")

    def __init__(self, node_id: int, material: str, position: Position):
        self.node_id = node_id
        self.material = material
        self.position = position


class Blueprint:
    __slots__ = ("name", "blocks", "by_id")

    def __init__(self, name: str, blocks: tuple[BlockSpec, ...]):
        by_id = {b.node_id: b for b in blocks}
        if len(by_id) != len(blocks):
            raise ValueError("duplicate node ids in blueprint")
        positions = [b.position for b in blocks]
        if len(set(positions)) != len(positions):
            raise ValueError("duplicate positions in blueprint")
        self.name = name
        self.blocks = blocks
        self.by_id = by_id

    def node(self, node_id: int) -> BlockSpec:
        return self.by_id[node_id]


class TaskGraph:
    """Prerequisite DAG over blueprint nodes: edge (u, v) means u must be placed before v."""

    def __init__(self, nodes: list[int], edges: list[tuple[int, int]]):
        node_set = set(nodes)
        for u, v in edges:
            if u not in node_set or v not in node_set:
                raise ValueError(f"edge ({u}, {v}) references unknown node")
        self.nodes = sorted(nodes)
        self.edges = sorted(set((u, v) for u, v in edges))
        self.preds: dict[int, tuple[int, ...]] = {n: () for n in self.nodes}
        self.succs: dict[int, tuple[int, ...]] = {n: () for n in self.nodes}
        pred_acc: dict[int, list[int]] = {n: [] for n in self.nodes}
        succ_acc: dict[int, list[int]] = {n: [] for n in self.nodes}
        for u, v in self.edges:
            pred_acc[v].append(u)
            succ_acc[u].append(v)
        for n in self.nodes:
            self.preds[n] = tuple(sorted(pred_acc[n]))
            self.succs[n] = tuple(sorted(succ_acc[n]))
        self._topo = self._toposort()

    def _toposort(self) -> list[int]:
        indeg = {n: len(self.preds[n]) for n in self.nodes}
        ready = sorted(n for n in self.nodes if indeg[n] == 0)
        order: list[int] = []
        while ready:
            n = ready.pop(0)
            order.append(n)
            inserted = False
            for s in self.succs[n]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
                    inserted = True
            if inserted:
                ready.sort()
        if len(order) != len(self.nodes):
            raise ValueError("task graph contains a cycle")
        return order

    @property
    def topo_order(self) -> list[int]:
        return list(self._topo)

    def descendants(self, node: int) -> set[int]:
        out: set[int] = set()
        stack = list(self.succs[node])
        while stack:
            n = stack.pop()
            if n not in out:
                out.add(n)
                stack.extend(self.succs[n])
        return out


class Recipe:
    """A crafting or smelting rule. `station` names a scaffold block that must be in range."""

    __slots__ = ("recipe_id", "kind", "output", "inputs", "station")

    def __init__(self, recipe_id: str, kind: str, output: tuple[str, int],
                 inputs: tuple[tuple[str, int], ...], station: str | None = None):
        if kind not in ("craft", "smelt"):
            raise ValueError(f"bad recipe kind {kind!r}")
        if output[1] <= 0:
            raise ValueError("recipe output count must be positive")
        self.recipe_id = recipe_id
        self.kind = kind  # "craft" | "smelt"
        self.output = output
        self.inputs = inputs
        self.station = station

    def to_dict(self) -> dict:
        """The JSON form shared by episode specs and solver contexts."""
        return {
            "recipe_id": self.recipe_id,
            "kind": self.kind,
            "output": [self.output[0], self.output[1]],
            "inputs": [[i, n] for i, n in self.inputs],
            "station": self.station,
        }

    @staticmethod
    def from_dict(d: dict) -> "Recipe":
        return Recipe(
            recipe_id=d["recipe_id"],
            kind=d["kind"],
            output=(d["output"][0], int(d["output"][1])),
            inputs=tuple((i, int(n)) for i, n in d["inputs"]),
            station=d.get("station"),
        )


class RecipeBook:
    def __init__(self, recipes: list[Recipe]):
        self.recipes = {r.recipe_id: r for r in recipes}
        if len(self.recipes) != len(recipes):
            raise ValueError("duplicate recipe ids")

    def get(self, recipe_id: str) -> Recipe | None:
        return self.recipes.get(recipe_id)

    def producing(self, item: str) -> list[Recipe]:
        """Recipes that output `item`, in deterministic id order."""
        return [self.recipes[k] for k in sorted(self.recipes) if self.recipes[k].output[0] == item]


class Source:
    __slots__ = ("item", "position", "remaining")

    def __init__(self, item: str, position: Position, remaining: int):
        self.item = item
        self.position = position
        self.remaining = remaining


class Chest:
    __slots__ = ("position", "inventory")

    def __init__(self, position: Position, inventory: Inventory):
        self.position = position
        self.inventory = inventory


class AgentBody:
    __slots__ = ("agent_id", "position", "inventory")

    def __init__(self, agent_id: str, position: Position, inventory: Inventory):
        self.agent_id = agent_id
        self.position = position
        self.inventory = inventory


class CoordinationMessage:
    """Typed board message. Exactly these seven fields, nothing optional
    added. Equal messages are the same message, so they hash alike."""

    __slots__ = ("protocol", "sender", "target", "item", "count", "reason", "time")

    def __init__(self, protocol: str, sender: str, target: str, item: str, count: int,
                 reason: str, time: int):
        self.protocol = protocol  # REQUEST_MATERIAL | OFFER_TRANSFER | CONFIRM_TRANSFER | CANNOT_SUPPLY
        self.sender = sender
        self.target = target
        self.item = item
        self.count = count
        self.reason = reason  # need_for_node | handover_complete | no_surplus
        self.time = time  # sim_time when posted

    def _key(self) -> tuple:
        return (self.protocol, self.sender, self.target, self.item, self.count, self.reason, self.time)

    def __eq__(self, other):
        if other.__class__ is not CoordinationMessage:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def to_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "from": self.sender,
            "target": self.target,
            "item": self.item,
            "count": self.count,
            "reason": self.reason,
            "time": self.time,
        }


# Source references for collect: ("source", index) or ("chest", index, item).
SourceRef = tuple


class Action:
    """Kind-discriminated agent action. Never changed once built."""

    __slots__ = ("kind", "target", "node_id", "source", "recipe_id", "item", "count", "to_agent",
                 "message")

    def __init__(self, kind: str, target: Position | None = None, node_id: int | None = None,
                 source: SourceRef | None = None, recipe_id: str | None = None,
                 item: str | None = None, count: int | None = None, to_agent: str | None = None,
                 message: CoordinationMessage | None = None):
        self.kind = kind
        self.target = target  # move
        self.node_id = node_id  # place / skip
        self.source = source  # collect
        self.recipe_id = recipe_id  # craft / smelt
        self.item = item  # transfer
        self.count = count  # transfer
        self.to_agent = to_agent  # transfer
        self.message = message  # send_message

    @staticmethod
    def move(target: Position) -> "Action":
        return Action(kind="move", target=target)

    @staticmethod
    def place(node_id: int) -> "Action":
        return Action(kind="place", node_id=node_id)

    @staticmethod
    def collect(source: SourceRef) -> "Action":
        return Action(kind="collect", source=source)

    @staticmethod
    def craft(recipe_id: str) -> "Action":
        return Action(kind="craft", recipe_id=recipe_id)

    @staticmethod
    def smelt(recipe_id: str) -> "Action":
        return Action(kind="smelt", recipe_id=recipe_id)

    @staticmethod
    def transfer(item: str, count: int, to_agent: str) -> "Action":
        return Action(kind="transfer", item=item, count=count, to_agent=to_agent)

    @staticmethod
    def send_message(message: CoordinationMessage) -> "Action":
        return Action(kind="send_message", message=message)

    @staticmethod
    def skip(node_id: int) -> "Action":
        return Action(kind="skip", node_id=node_id)

    @staticmethod
    def idle() -> "Action":
        return _IDLE

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind}
        if self.target is not None:
            d["target"] = list(self.target)
        if self.node_id is not None:
            d["node_id"] = self.node_id
        if self.source is not None:
            d["source"] = list(self.source)
        if self.recipe_id is not None:
            d["recipe_id"] = self.recipe_id
        if self.item is not None:
            d["item"] = self.item
        if self.count is not None:
            d["count"] = self.count
        if self.to_agent is not None:
            d["to_agent"] = self.to_agent
        if self.message is not None:
            d["message"] = self.message.to_dict()
        return d


_IDLE = Action(kind="idle")  # no action is changed once built, so one serves every idle step


class VerifiedOutcome:
    """System-verified result of applying one action. The only channel agents trust."""

    __slots__ = ("agent", "kind", "status", "reason", "deltas", "sim_time", "node_id")

    def __init__(self, agent: str, kind: str, status: str, reason: str | None = None,
                 deltas: dict | None = None, sim_time: int = 0, node_id: int | None = None):
        self.agent = agent
        self.kind = kind
        self.status = status  # "success" | "failure"
        self.reason = reason
        self.deltas = {} if deltas is None else deltas
        self.sim_time = sim_time
        self.node_id = node_id

    def __eq__(self, other):
        if other.__class__ is not VerifiedOutcome:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    @property
    def ok(self) -> bool:
        return self.status == "success"

    def to_dict(self) -> dict:
        """The `outcome` of the `action` event that traces this outcome:
        `status`, plus `reason` and `deltas` when set. The event holds the
        other fields once: `agent` and `sim_time` are its envelope's `agent`
        and `step`, and `kind` and `node_id` its action's."""
        d = {"status": self.status}
        if self.reason is not None:
            d["reason"] = self.reason
        if self.deltas:
            d["deltas"] = self.deltas
        return d


class WorldState:
    """Full simulator state. `scaffold` maps the positions of pre-existing
    blocks (stations among them) to their materials.

    A world starts with no blueprint node placed. The set of placed node ids
    is grown only by a successful `place` in `apply_action`, and every
    placement query reads it."""

    __slots__ = ("blueprint", "graph", "recipes", "agents", "sources", "chests", "scaffold",
                 "sim_time", "_placed_ids")

    def __init__(self, blueprint: Blueprint, graph: TaskGraph, recipes: RecipeBook,
                 agents: dict[str, AgentBody], sources: list[Source], chests: list[Chest],
                 scaffold: dict[Position, str] | None = None, sim_time: int = 0):
        self.blueprint = blueprint
        self.graph = graph
        self.recipes = recipes
        self.agents = agents
        self.sources = sources
        self.chests = chests
        self.scaffold = {} if scaffold is None else scaffold
        self.sim_time = sim_time
        self._placed_ids = frozenset()

    # -- queries ---------------------------------------------------------

    def node_placed(self, node_id: int) -> bool:
        return node_id in self._placed_ids

    def placed_nodes(self) -> frozenset[int]:
        return self._placed_ids

    def prereqs_placed(self, node_id: int) -> bool:
        return self._placed_ids.issuperset(self.graph.preds[node_id])

    def stations_of(self, station: str) -> list[Position]:
        return sorted(pos for pos, mat in self.scaffold.items() if mat == station)

    def station_in_range(self, agent: AgentBody, station: str | None) -> bool:
        if station is None:
            return True
        return any(within(agent.position, pos, INTERACTION_RADIUS) for pos in self.stations_of(station))


def _fail(agent: AgentBody, action: Action, reason: str, sim_time: int) -> VerifiedOutcome:
    return VerifiedOutcome(
        agent=agent.agent_id, kind=action.kind, status="failure", reason=reason,
        sim_time=sim_time, node_id=action.node_id,
    )


def _move_towards(pos: Position, target: Position) -> Position:
    # Per-axis greedy unit steps, largest remaining |delta| first (tie order x, y, z).
    x, y, z = pos
    tx, ty, tz = target
    for _ in range(SPEED):
        dx, dy, dz = tx - x, ty - y, tz - z
        ax, ay, az = abs(dx), abs(dy), abs(dz)
        if ax >= ay and ax >= az:
            if dx == 0:
                break
            x += 1 if dx > 0 else -1
        elif ay >= az:
            y += 1 if dy > 0 else -1
        else:
            z += 1 if dz > 0 else -1
    return (x, y, z)


def apply_action(world: WorldState, agent_id: str, action: Action) -> tuple[WorldState, VerifiedOutcome]:
    """Advance the world by one action. Mutates and returns `world`.

    sim_time increments exactly once per call, success or failure. All failure
    modes come back as VerifiedOutcome statuses.
    """
    agent = world.agents[agent_id]
    t = world.sim_time
    world.sim_time = t + 1
    kind = action.kind

    if kind == "idle" or kind == "send_message":
        return world, VerifiedOutcome(agent=agent_id, kind=kind, status="success", sim_time=t)

    if kind == "skip":
        return world, VerifiedOutcome(agent=agent_id, kind=kind, status="success", sim_time=t, node_id=action.node_id)

    if kind == "move":
        if action.target is None:
            return world, _fail(agent, action, "invalid_action", t)
        old = agent.position
        agent.position = _move_towards(old, tuple(action.target))
        deltas = {"position": {agent_id: [list(old), list(agent.position)]}}
        return world, VerifiedOutcome(agent=agent_id, kind=kind, status="success", deltas=deltas, sim_time=t)

    if kind == "place":
        block = world.blueprint.by_id.get(action.node_id)
        if block is None or world.node_placed(action.node_id):
            return world, _fail(agent, action, "invalid_action", t)
        if not world.prereqs_placed(action.node_id):
            return world, _fail(agent, action, "prerequisite_unplaced", t)
        if not within(agent.position, block.position, INTERACTION_RADIUS):
            return world, _fail(agent, action, "out_of_range", t)
        if agent.inventory.count(block.material) < 1:
            return world, _fail(agent, action, "missing_material", t)
        agent.inventory.remove(block.material, 1)
        world._placed_ids = world._placed_ids | {block.node_id}
        deltas = {
            "inventory": {agent_id: {block.material: -1}},
            "placed": [[list(block.position), block.material]],
        }
        return world, VerifiedOutcome(
            agent=agent_id, kind=kind, status="success", deltas=deltas, sim_time=t, node_id=action.node_id
        )

    if kind == "collect":
        ref = action.source
        if not ref or ref[0] not in ("source", "chest"):
            return world, _fail(agent, action, "invalid_action", t)
        if ref[0] == "source":
            idx = ref[1]
            if not (0 <= idx < len(world.sources)):
                return world, _fail(agent, action, "invalid_action", t)
            src = world.sources[idx]
            if not within(agent.position, src.position, INTERACTION_RADIUS):
                return world, _fail(agent, action, "out_of_range", t)
            if src.remaining < 1:
                return world, _fail(agent, action, "source_empty", t)
            src.remaining -= 1
            agent.inventory.add(src.item, 1)
            deltas = {"inventory": {agent_id: {src.item: 1}}, "source": {str(idx): -1}}
            return world, VerifiedOutcome(agent=agent_id, kind=kind, status="success", deltas=deltas, sim_time=t)
        idx, item = ref[1], ref[2]
        if not (0 <= idx < len(world.chests)) or not isinstance(item, str):
            return world, _fail(agent, action, "invalid_action", t)
        chest = world.chests[idx]
        if not within(agent.position, chest.position, INTERACTION_RADIUS):
            return world, _fail(agent, action, "out_of_range", t)
        if chest.inventory.count(item) < 1:
            return world, _fail(agent, action, "source_empty", t)
        chest.inventory.remove(item, 1)
        agent.inventory.add(item, 1)
        deltas = {"inventory": {agent_id: {item: 1}}, "chest": {str(idx): {item: -1}}}
        return world, VerifiedOutcome(agent=agent_id, kind=kind, status="success", deltas=deltas, sim_time=t)

    if kind in ("craft", "smelt"):
        recipe = world.recipes.get(action.recipe_id or "")
        if recipe is None or recipe.kind != kind:
            return world, _fail(agent, action, "invalid_action", t)
        if not world.station_in_range(agent, recipe.station):
            return world, _fail(agent, action, "out_of_range", t)
        for item, n in recipe.inputs:
            if agent.inventory.count(item) < n:
                return world, _fail(agent, action, "recipe_inputs_missing", t)
        inv_delta: dict[str, int] = {}
        for item, n in recipe.inputs:
            agent.inventory.remove(item, n)
            inv_delta[item] = inv_delta.get(item, 0) - n
        out_item, out_n = recipe.output
        agent.inventory.add(out_item, out_n)
        inv_delta[out_item] = inv_delta.get(out_item, 0) + out_n
        deltas = {"inventory": {agent_id: inv_delta}}
        return world, VerifiedOutcome(agent=agent_id, kind=kind, status="success", deltas=deltas, sim_time=t)

    if kind == "transfer":
        if action.item is None or action.count is None or action.count < 1 or action.to_agent not in world.agents:
            return world, _fail(agent, action, "invalid_action", t)
        other = world.agents[action.to_agent]
        if other.agent_id == agent_id:
            return world, _fail(agent, action, "invalid_action", t)
        if not within(agent.position, other.position, INTERACTION_RADIUS):
            return world, _fail(agent, action, "out_of_range", t)
        if agent.inventory.count(action.item) < action.count:
            return world, _fail(agent, action, "missing_material", t)
        agent.inventory.remove(action.item, action.count)
        other.inventory.add(action.item, action.count)
        deltas = {
            "inventory": {
                agent_id: {action.item: -action.count},
                action.to_agent: {action.item: action.count},
            }
        }
        return world, VerifiedOutcome(agent=agent_id, kind=kind, status="success", deltas=deltas, sim_time=t)

    return world, _fail(agent, action, "invalid_action", t)


class PlanInfo:
    """Static, scripted plan knowledge shared by every agent at episode start:
    the blueprint layout, node assignments, the declared item partition and
    the station positions. Never carries live inventories. `nodes_of` is
    built from `assignments` once, at construction, in their order."""

    __slots__ = ("assignments", "partition", "materials", "station_positions", "nodes_of")

    def __init__(self, assignments: dict[int, str] | None = None,
                 partition: dict[str, str] | None = None,
                 materials: dict[int, str] | None = None,
                 station_positions: dict[Position, str] | None = None):
        self.assignments = {} if assignments is None else assignments  # node_id -> agent_id
        self.partition = {} if partition is None else partition  # item -> owner agent_id
        self.materials = {} if materials is None else materials  # node_id -> material
        self.station_positions = {} if station_positions is None else station_positions
        nodes_of: dict[str, list[int]] = {}
        for n, aid in self.assignments.items():
            nodes_of.setdefault(aid, []).append(n)
        # agent_id -> its assigned node ids, in the order of `assignments`
        self.nodes_of = {aid: tuple(nodes) for aid, nodes in nodes_of.items()}

    @staticmethod
    def for_world(world: "WorldState", assignments: dict[int, str],
                  partition: dict[str, str] | None = None) -> "PlanInfo":
        """The plan for `world`, with `nodes_of` in the task graph's
        topological order: the order an agent builds its nodes in."""
        order = world.graph.topo_order
        if unknown := sorted(assignments.keys() - set(order)):
            raise ValueError(f"assignments name nodes outside the task graph: {unknown}")
        return PlanInfo(
            assignments={n: assignments[n] for n in order if n in assignments},
            partition=dict(partition or {}),
            materials={b.node_id: b.material for b in world.blueprint.blocks},
            station_positions=dict(world.scaffold),
        )


class WorldView:
    """What one agent can see. Never includes live teammate inventories.

    Sources and chests are the world's live objects. `memo` holds what
    `observe` and `digest` derived for this agent; it is shared with the
    agent's later views until an outcome invalidates it (see ViewCache).
    Views are equal when everything but their memos is."""

    __slots__ = ("agent_id", "position", "inventory", "placed_nodes", "sources", "chests",
                 "teammates", "plan", "sim_time", "memo")

    def __init__(self, agent_id: str, position: Position, inventory: Inventory,
                 placed_nodes: frozenset[int], sources: list[tuple[int, Source]],
                 chests: list[tuple[int, Chest]], teammates: dict[str, Position], plan: PlanInfo,
                 sim_time: int, memo: dict | None = None):
        self.agent_id = agent_id
        self.position = position
        self.inventory = inventory
        self.placed_nodes = placed_nodes
        self.sources = sources  # (index, source) within observe radius
        self.chests = chests
        self.teammates = teammates  # only those within observe radius
        self.plan = plan
        self.sim_time = sim_time
        self.memo = {} if memo is None else memo

    def __eq__(self, other):
        if other.__class__ is not WorldView:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__[:-1])

    def digest(self) -> str:
        """Cheap deterministic observation digest for traces: the CRC-32 of
        `agent|position|inventory|placed count|sources|teammates|sim_time`.
        The texts of the position, inventory, sources and teammates (`str`
        of the sorted map) stay in `memo` until an outcome makes them stale
        (see ViewCache)."""
        memo = self.memo
        where = memo.get("where_s")
        if where is None:
            where = memo["where_s"] = f"{self.agent_id}|{self.position}"
        held = memo.get("inventory_s")
        if held is None:
            held = memo["inventory_s"] = str(sorted(self.inventory.counts.items()))
        sources = memo.get("sources_s")
        if sources is None:
            sources = memo["sources_s"] = str([(i, s.remaining) for i, s in self.sources])
        mates = memo.get("teammates_s")
        if mates is None:
            mates = memo["teammates_s"] = str(sorted(self.teammates.items()))
        text = f"{where}|{held}|{len(self.placed_nodes)}|{sources}|{mates}|{self.sim_time}"
        return "%08x" % zlib.crc32(text.encode())

    def ref_position(self, ref: SourceRef) -> Position | None:
        """Position of a visible ("source", idx) or ("chest", idx, ...) reference."""
        entries = self.sources if ref[0] == "source" else self.chests
        for idx, entry in entries:
            if idx == ref[1]:
                return entry.position
        return None


def nearest_supply(view: WorldView, origin: Position, item: str,
                   max_dist: float) -> tuple[SourceRef | None, float, int]:
    """Closest visible source or chest to `origin` that holds `item`, within
    max_dist: (ref, distance, available), or (None, inf, 0)."""
    best_ref: SourceRef | None = None
    best_d2 = None
    avail = 0
    for idx, src in view.sources:
        if src.item == item and src.remaining > 0:
            d2 = dist_sq(origin, src.position)
            if d2 <= max_dist * max_dist and (best_d2 is None or d2 < best_d2):
                best_ref, best_d2, avail = ("source", idx), d2, src.remaining
    for idx, chest in view.chests:
        n = chest.inventory.count(item)
        if n > 0:
            d2 = dist_sq(origin, chest.position)
            if d2 <= max_dist * max_dist and (best_d2 is None or d2 < best_d2):
                best_ref, best_d2, avail = ("chest", idx, item), d2, n
    if best_ref is None:
        return None, math.inf, 0
    return best_ref, math.sqrt(best_d2), avail


# The memo keys that each outcome delta makes stale (see ViewCache).
_TEAMMATE_KEYS = ("teammates", "teammates_s")
_MOVER_KEYS = ("position", "where_s")
_HOLDER_KEYS = ("inventory", "inventory_s")


class ViewCache:
    """Per-episode memo of what `observe` and `WorldView.digest` derive from
    the world: one dict per agent, holding its view's parts and their texts
    in the digest.

    The world changes only through `apply_action`, and the outcome it returns
    names every change, so `invalidate(outcome)` after each applied action is
    the only upkeep:

    - a `position` delta makes the mover's position stale. Its next
      `observe` works out again what it sees, and keeps each part that did
      not change, with its text. Another agent's teammates change only if it
      sees the mover before or after the move, and then its next view
      rebuilds them;
    - an `inventory` delta makes that agent's inventory stale;
    - a `source` delta makes every sources text stale (views hold the live
      `Source` objects).

    The placed set and `sim_time` are read fresh, and chests are live
    objects that no digest part reads, so `placed` and `chest` deltas make
    nothing stale. An outcome replaces the memos it makes stale instead of
    editing them, so a view built before the change cannot write stale text
    into its successor's memo."""

    def __init__(self):
        self.memos: dict[str, dict] = {}

    def memo(self, agent_id: str) -> dict:
        """The agent's current memo, empty before its first view."""
        memo = self.memos.get(agent_id)
        if memo is None:
            memo = self.memos[agent_id] = {}
        return memo

    def _renew(self, agent_id: str, stale: tuple[str, ...]) -> None:
        """Replace the agent's memo, if it has one, with a copy without `stale`."""
        memo = self.memos.get(agent_id)
        if memo is not None:
            memo = self.memos[agent_id] = memo.copy()
            for key in stale:
                memo.pop(key, None)

    def invalidate(self, outcome: VerifiedOutcome) -> None:
        deltas = outcome.deltas
        if not deltas:
            return
        for mover, (_, new) in deltas.get("position", {}).items():
            self._renew(mover, _MOVER_KEYS)
            for aid, memo in self.memos.items():
                teammates = memo.get("teammates")
                if aid == mover or teammates is None or "position" not in memo:
                    continue  # the next view rebuilds this agent's teammates
                if mover in teammates or within(new, memo["position"], OBSERVE_RADIUS):
                    self._renew(aid, _TEAMMATE_KEYS)
        for holder in deltas.get("inventory", ()):
            self._renew(holder, _HOLDER_KEYS)
        if "source" in deltas:
            for aid in self.memos:
                self._renew(aid, ("sources_s",))


def observe(world: WorldState, agent_id: str, plan: PlanInfo | None = None,
            cache: ViewCache | None = None) -> WorldView:
    """Build the agent's filtered view of the world.

    Entities (sources, chests, teammate positions) are included only within
    OBSERVE_RADIUS. With a `cache` whose invalidations have kept pace with
    the world, the view reuses what the agent's earlier views derived and
    equals the view built without one.
    """
    me = world.agents[agent_id]
    memo = {} if cache is None else cache.memo(agent_id)
    pos = me.position
    if "position" not in memo:  # the agent's first view, or it moved
        memo["position"] = pos
        # what it sees from here; a part that did not change keeps its digest text
        visible = (
            [(i, s) for i, s in enumerate(world.sources) if within(pos, s.position, OBSERVE_RADIUS)],
            [(i, c) for i, c in enumerate(world.chests) if within(pos, c.position, OBSERVE_RADIUS)],
        )
        if visible != memo.get("visible"):
            memo["visible"] = visible
            memo.pop("sources_s", None)
        teammates = _teammates_in_sight(world, agent_id, pos)
        if teammates != memo.get("teammates"):
            memo["teammates"] = teammates
            memo.pop("teammates_s", None)
    elif "teammates" not in memo:
        memo["teammates"] = _teammates_in_sight(world, agent_id, pos)
    visible, teammates = memo["visible"], memo["teammates"]
    inventory = memo.get("inventory")
    if inventory is None:
        inventory = memo["inventory"] = me.inventory.copy()
    # positional: with ten keyword arguments the call takes about three times as long
    return WorldView(agent_id, pos, inventory, world._placed_ids, visible[0], visible[1],
                     teammates, plan or PlanInfo(), world.sim_time, memo)


def _teammates_in_sight(world: WorldState, agent_id: str, pos: Position) -> dict[str, Position]:
    """The other agents within OBSERVE_RADIUS of `pos`, in id order."""
    teammates = {}
    for aid in sorted(world.agents):
        if aid != agent_id:
            body = world.agents[aid]
            if within(pos, body.position, OBSERVE_RADIUS):
                teammates[aid] = body.position
    return teammates


def _chain_depths(graph: TaskGraph, placed: set[int]) -> dict[int, int]:
    """depth[n] = number of nodes on the longest unplaced path starting at n,
    for every unplaced node n."""
    depth: dict[int, int] = {}
    for n in reversed(graph.topo_order):
        if n in placed:
            continue
        best = 0
        for s in graph.succs[n]:
            if s in depth:  # successors come later in topo order, so unplaced ones are in
                best = max(best, depth[s])
        depth[n] = best + 1
    return depth


def _longest_chain(graph: TaskGraph, depth: dict[int, int]) -> list[int]:
    """The longest prerequisite chain through unplaced nodes. Ties resolve to
    the lexicographically smallest node-id sequence among the longest paths
    (equivalently: smallest id at every choice point)."""
    if not depth:
        return []
    max_depth = max(depth.values())
    cur = min(n for n, d in depth.items() if d == max_depth)
    path = [cur]
    while True:
        nxt = [s for s in graph.succs[cur] if depth.get(s) == depth[cur] - 1]
        if not nxt:
            break
        cur = min(nxt)
        path.append(cur)
    return path


class Criticality:
    __slots__ = ("descendant_count", "on_critical_path", "dependent_depth")

    def __init__(self, descendant_count: int, on_critical_path: bool, dependent_depth: int):
        self.descendant_count = descendant_count
        self.on_critical_path = on_critical_path
        self.dependent_depth = dependent_depth


def criticality_of(graph: TaskGraph, node: int, placed: set[int]) -> Criticality:
    """Structural importance of `node` given current placement progress.

    A descendant's successors are descendants too, so its depth over all
    unplaced nodes is the longest unplaced chain below `node` through it."""
    depth = _chain_depths(graph, placed)
    unplaced_desc = [d for d in graph.descendants(node) if d in depth]
    return Criticality(
        descendant_count=len(unplaced_desc),
        on_critical_path=node in _longest_chain(graph, depth),
        dependent_depth=max((depth[d] for d in unplaced_desc), default=0),
    )


def blueprint_completion(world: WorldState) -> float:
    """Fraction of blueprint blocks whose position holds the correct material."""
    total = len(world.blueprint.blocks)
    if total == 0:
        return 1.0
    return len(world.placed_nodes()) / total


def default_recipes() -> RecipeBook:
    """The scripted recipe book shared by generated scenarios."""
    return RecipeBook(
        [
            Recipe("planks_from_log", "craft", ("oak_planks", 4), (("oak_log", 1),)),
            Recipe("stick_from_planks", "craft", ("stick", 4), (("oak_planks", 2),)),
            Recipe("smelt_iron", "smelt", ("iron_ingot", 1), (("iron_ore", 1), ("coal", 1)), station="furnace"),
            Recipe("smelt_glass", "smelt", ("glass", 1), (("sand", 1), ("coal", 1)), station="furnace"),
            Recipe("smooth_sandstone", "craft", ("smooth_sandstone", 1), (("sandstone", 2),), station="crafting_table"),
        ]
    )
