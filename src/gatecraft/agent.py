"""Agent step loop and episode runtime.

Each agent's turn: observe and refresh private state, detect an issue,
featurize and gate it, then route — open a coordination window, run the local
solver, or do opportunistic skip work. The episode runtime owns the world,
the coordination windows (the public board, one per requester at most),
responder-script progress and the ordered trace; each agent's private facts
are its `PrivateState`, and each issue's record holds its cooldown and
route. `regate` derives a finished run's trace under other gate settings.

Views come from `observe` through the runtime's `ViewCache`. The world
changes only through `apply_action`, and each outcome's deltas name every
change, so the step loop feeds each outcome to the cache right after it is
applied, before `_post_action` (whose window close may observe); no other
invalidation exists or is needed.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii

from .gate import (
    TIERS,
    FeatureVector,
    GateThresholds,
    GateWeights,
    MockAdjudicator,
    extract_features,
    gate_decide,
    teammate_resources,
    validate_weights,
)
from .memory import (
    MATERIAL_SHAPED_ISSUES,
    BlockageRecord,
    IssueType,
    PrivateState,
    detect_issue,
    next_node,
    update_private_state,
    waits_on,
)
from .protocol import (
    CoordinationWindow,
    MessageType,
    ReasonTag,
    TeamPublicView,
    WindowState,
    confirm_message,
    open_window,
    respond_policy,
    settle_window,
    surplus_of,
)
from .solver import (
    NOT_PROBED,
    PLANNER_PARAMS,
    RecoveryPlan,
    RecoveryStep,
    plan_local_recovery,
)
from .world import (
    INTERACTION_RADIUS,
    Action,
    CoordinationMessage,
    PlanInfo,
    VerifiedOutcome,
    ViewCache,
    WorldState,
    apply_action,
    blueprint_completion,
    dist_sq,
    observe,
    within,
)


# The gate settings. They reach a run only through `_gate_decision`,
# `_mock_backend` and `RunConfig.describe`, which is what lets `regate`
# reuse one simulation across them.
GATE_FIELDS = ("weights", "thresholds", "tiers")

# The version of the trace format, written into every `episode_end`. Bump it
# when a trace would read differently: a changed event payload, or changed
# physics constants (radii, speeds), which no trace echoes. Schema 2 records
# each verified outcome inside its `action` event; schema 3 echoes the gate's
# cascade depth as one `tiers` setting, and a resolved issue's `via` names
# what cleared it.
TRACE_SCHEMA = 3


def _schema_problem(events: list) -> str | None:
    """Name the first event, up to the first `episode_end`, that is not an
    object with `step` (an integer), `agent` and `kind` (strings) and
    `payload` (an object). Else name the event after that `episode_end`, if
    any: a trace holds one episode, which that event ends. Else name the
    `episode_end` if its payload's schema is missing or is not TRACE_SCHEMA.
    A trace with no `episode_end` is left to its reader
    (`harness.compute_metrics` names it)."""
    for i, e in enumerate(events, 1):
        try:
            step, agent, kind, payload = e["step"], e["agent"], e["kind"], e["payload"]
        except (KeyError, TypeError):  # not an object, or one that lacks a field
            step = agent = kind = payload = None
        if type(step) is not int or type(agent) is not str or type(kind) is not str:
            return f"event {i} is not an object with step, agent, kind and payload"
        if type(payload) is not dict:
            return f"event {i} has a payload that is not an object"
        if kind == "episode_end":
            break
    else:
        return None
    if i < len(events):
        return f"event {i + 1} follows the episode_end at event {i}; a trace holds one episode"
    if "schema" not in payload:
        return f"event {i} (episode_end) has no payload field 'schema'"
    found = payload["schema"]
    if type(found) is not int or found != TRACE_SCHEMA:
        return f"event {i} (episode_end) has schema {found!r}; this reader takes schema {TRACE_SCHEMA}"
    return None


class RunConfig:
    """The run settings, checked when built. `__slots__` names them in the
    constructor's order; `replace` builds a changed copy, checked anew."""

    __slots__ = ("weights", "thresholds", "tiers", "partition_on", "window_timeout",
                 "cooldown_duration", "step_budget", "allow_unvalidated")

    def __init__(self, weights: GateWeights = GateWeights(),
                 thresholds: GateThresholds = GateThresholds(),
                 tiers: int = len(TIERS),  # how many of the gate's TIERS run; 0 escalates every issue
                 partition_on: bool = True, window_timeout: int = 20, cooldown_duration: int = 30,
                 step_budget: int = 300,  # round-robin rounds, not individual actions
                 allow_unvalidated: bool = False):
        self.weights = weights
        self.thresholds = thresholds
        self.tiers = tiers
        self.partition_on = partition_on
        self.window_timeout = window_timeout
        self.cooldown_duration = cooldown_duration
        self.step_budget = step_budget
        self.allow_unvalidated = allow_unvalidated
        if not 0 <= self.tiers <= len(TIERS):
            raise ValueError(f"tiers must be 0 to {len(TIERS)}")
        if self.step_budget < 1:
            raise ValueError("step_budget must be >= 1")
        if self.window_timeout < 1:
            raise ValueError("window_timeout must be >= 1")
        if self.cooldown_duration < 0:
            raise ValueError("cooldown_duration must be >= 0")
        ok, problems = validate_weights(self.weights)
        if not ok and not self.allow_unvalidated:
            raise ValueError("weight vector rejected: " + "; ".join(problems))

    def __eq__(self, other):
        if other.__class__ is not RunConfig:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def replace(self, **changes) -> RunConfig:
        """This config with `changes` (settings by name), built and checked
        as a new one."""
        return RunConfig(**{**{name: getattr(self, name) for name in self.__slots__}, **changes})

    def describe(self) -> dict:
        """The run settings echoed into `episode_end`: every field but
        `allow_unvalidated`, which only admits weights."""
        return {
            "weights": list(self.weights.as_tuple()),
            "thresholds": [self.thresholds.t_low, self.thresholds.t_high],
            "tiers": self.tiers,
            "partition_on": self.partition_on,
            "window_timeout": self.window_timeout,
            "cooldown_duration": self.cooldown_duration,
            "step_budget": self.step_budget,
        }


# The settings besides GATE_FIELDS that `regate` may change: a run reads
# `partition_on` only through `EpisodeRuntime.read_team`, which flags the
# run when a read would have answered otherwise under the other setting.
REGATED_FIELDS = GATE_FIELDS + ("partition_on",)
# The settings that `regate_key` compares, in `__slots__` order.
_KEY_FIELDS = tuple(name for name in RunConfig.__slots__ if name not in REGATED_FIELDS)


def regate_key(config: RunConfig) -> tuple:
    """The config's values outside REGATED_FIELDS: `regate` derives a run
    only from a reference with the same key, so configs that share a key
    can share one simulation."""
    return tuple(getattr(config, name) for name in _KEY_FIELDS)


def _mock_backend(config: RunConfig) -> MockAdjudicator:
    """The adjudicator a run gets when no backend is given."""
    return MockAdjudicator(config.thresholds)


# The trace line format, `json.dumps(e, sort_keys=True, separators=(",", ":"))`.
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_JSONL_DECODER = json.JSONDecoder()


def _encode_whole(value, _indent_level):
    """`_JSONL_ENCODER.encode(value)`, as `_JSONL_CHUNKS` would return it."""
    return (_JSONL_ENCODER.encode(value),)


# `_JSONL_ENCODER.encode` builds a new C encoder on every call. This is the one
# `iterencode` builds, with the same settings, built once: `"".join` of its
# chunks is `encode(value)`. It has no markers dict, so it keeps no state
# between calls, and a cyclic value raises RecursionError where `encode`
# raises ValueError. Without the C accelerator it is `encode` itself.
_JSONL_CHUNKS = _encode_whole if c_make_encoder is None else c_make_encoder(
    None, _JSONL_ENCODER.default, encode_basestring_ascii, _JSONL_ENCODER.indent,
    _JSONL_ENCODER.key_separator, _JSONL_ENCODER.item_separator,
    _JSONL_ENCODER.sort_keys, _JSONL_ENCODER.skipkeys, _JSONL_ENCODER.allow_nan)


def read_jsonl_by_line(text: str, convert=None) -> list:
    """The values of a JSONL text: `json.loads` of each non-blank line of
    `str.splitlines`, passed through `convert` when one is given. A line
    that is not JSON, or whose value `convert` rejects with KeyError,
    ValueError or TypeError, raises ValueError `line N: <message>`; for a
    KeyError the message is `missing field 'name'`."""
    values = []
    for n, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            value = json.loads(line)
            values.append(value if convert is None else convert(value))
        except KeyError as exc:
            raise ValueError(f"line {n}: missing field {exc}") from exc
        except (ValueError, TypeError) as exc:
            raise ValueError(f"line {n}: {exc}") from exc
    return values


def _read_jsonl_whole(text: str) -> list | None:
    """`read_jsonl_by_line(text)` from one decode pass, or None when the text
    is not in the shape that provably gives the same values, or when a value
    fails to decode.

    The shape: ASCII with no `\\r`, every value starting at a line start and
    ending right before a `\\n` or at the end of the text, and as many values
    as lines. ASCII rules out the non-ASCII breaks `splitlines` honours
    (U+0085, U+2028, U+2029). The other ASCII breaks (`\\v`, `\\f`,
    `\\x1c`-`\\x1e`) are neither JSON whitespace nor allowed raw in a string,
    so the decoder rejects them; `\\r` is JSON whitespace, so it is checked.
    With one value per line and no line break inside a value, each line is
    the exact text of one value, with no blank or padded line in between, so
    `json.loads(line)` returns what the one pass decoded.

    Values are decoded by the decoder's `scan_once`, the scanner that
    `JSONDecoder.raw_decode(text, idx)` wraps; calling it directly saves a
    Python frame per value. Where `raw_decode` raises "Expecting value" it
    raises StopIteration."""
    if not text.isascii() or "\r" in text:
        return None
    scan, size = _JSONL_DECODER.scan_once, len(text)
    values, idx = [], 0
    try:
        while idx < size:
            value, end = scan(text, idx)
            if end < size and text[end] != "\n":
                return None
            values.append(value)
            idx = end + 1
    except (StopIteration, ValueError):
        return None  # `read_jsonl_by_line` names the line
    lines = text.count("\n") + (size > 0 and not text.endswith("\n"))
    return values if len(values) == lines else None


def read_jsonl(text: str) -> list:
    """`read_jsonl_by_line(text)`. Text in the trace format (see
    `_read_jsonl_whole`) is decoded in one pass; any other text, and every
    error, goes through `read_jsonl_by_line`."""
    values = _read_jsonl_whole(text)
    return read_jsonl_by_line(text) if values is None else values


class Trace:
    """Ordered event log of one episode. Serializes to canonical JSONL."""

    __slots__ = ("events",)

    def __init__(self, events: list[dict] | None = None):
        self.events = [] if events is None else events

    def emit(self, step: int, agent: str, kind: str, payload: dict) -> None:
        self.events.append({"step": step, "agent": agent, "kind": kind, "payload": payload})

    def to_jsonl(self) -> str:
        """One line per event, each `json.dumps(event, sort_keys=True,
        separators=(",", ":"))` plus `\\n`.

        An event of the shape `emit` builds (exactly `agent`, `kind`,
        `payload` and `step`, typed str, str, dict and int) has its envelope
        written here, in sorted key order, around its payload encoded by
        `_JSONL_CHUNKS`, with strings escaped by the function the encoder
        itself uses. Any other event goes through the general encoder whole."""
        chunks, general = _JSONL_CHUNKS, _JSONL_ENCODER.encode
        join, esc = "".join, encode_basestring_ascii
        lines = []
        append = lines.append
        for e in self.events:
            if type(e) is dict and len(e) == 4:
                agent, kind = e.get("agent"), e.get("kind")
                payload, step = e.get("payload"), e.get("step")
                if (type(agent) is str and type(kind) is str
                        and type(payload) is dict and type(step) is int):
                    try:
                        body = join(chunks(payload, 0))
                    except RecursionError:  # a cycle raises what `encode` raises
                        body = general(payload)
                    append(f'{{"agent":{esc(agent)},"kind":{esc(kind)},'
                           f'"payload":{body},"step":{step}}}\n')
                    continue
            append(general(e) + "\n")
        return join(lines)

    @staticmethod
    def from_jsonl(text: str) -> "Trace":
        """The trace `to_jsonl` wrote. Text that is not JSONL raises
        ValueError naming the line, and a line that is not an event, a trace
        of another schema, or one of more than one episode raises ValueError
        naming the event (see `_schema_problem`)."""
        events = read_jsonl(text)
        if (problem := _schema_problem(events)) is not None:
            raise ValueError(problem)
        return Trace(events=events)


class GatePass:
    """What one traced gate decision was computed from. Kept in memory for
    `regate`; none of it is written to the trace."""

    __slots__ = ("event_index", "blockage", "fv", "plan")

    def __init__(self, event_index: int, blockage: BlockageRecord, fv: FeatureVector,
                 plan: RecoveryPlan | None):
        self.event_index = event_index  # of the `gate_decision` event
        self.blockage = blockage
        self.fv = fv
        self.plan = plan  # the plan `extract_features` returned


class EpisodeRuntime:
    """Owns all cross-agent state for one episode run."""

    def __init__(self, spec, config: RunConfig, backend=None):
        self.spec = spec
        self.config = config
        self.backend = backend if backend is not None else _mock_backend(config)
        self.world: WorldState = spec.build_world()
        self.graph = self.world.graph
        self.recipes = self.world.recipes
        self.plan_info: PlanInfo = spec.plan_info(self.world)
        # open windows only, by requester, in opening order
        self.windows: dict[str, CoordinationWindow] = {}
        self._window_seq = 0
        self.trace = Trace()
        self.gate_passes: list[GatePass] = []
        # each memory starts as its body's inventory; verified outcomes keep them equal
        self.states = {aid: PrivateState(aid, self.world.agents[aid].inventory.copy())
                       for aid in sorted(self.world.agents)}
        # the nodes no one will place: each node its assignee gave up, and
        # every node below one (see `_give_up`); it only grows
        self.dead: set[int] = set()
        self.advertised: dict[str, dict[str, int]] = {}
        # responder scripts' progress: entries used per responder, entry taken per window id
        self.script_cursor: dict[str, int] = {}
        self.script_choice: dict[int, str] = {}
        # set once a team-view read answers otherwise under the other
        # partition setting; while clear, `regate` may flip `partition_on`
        self.partition_dependent = False
        # fed every outcome right after `apply_action` (see `simulate_episode`)
        self.views = ViewCache()

    def mode(self, state: PrivateState) -> str:
        """The mode an action event traces, derived from the board and the
        agent's state: `coordinating` while the agent has a window open as
        requester, `standard` with no open issue, `recovering` while the
        issue's recovery legs are left, else `skipping` or `stalled` as the
        issue's route says."""
        if state.agent_id in self.windows:
            return "coordinating"
        blockage = state.blockage
        if blockage is None:
            return "standard"
        if blockage.legs:
            return "recovering"
        return "skipping" if blockage.skipping else "stalled"

    # -- views -------------------------------------------------------------

    def view_for(self, agent_id: str):
        return observe(self.world, agent_id, plan=self.plan_info, cache=self.views)

    def read_team(self, agent_id: str, answer):
        """`answer(view)` on the agent's public team view under the run's
        partition setting. While `partition_dependent` is clear, it also
        answers on the other setting's view and sets the flag when the two
        differ. The only reader of the team view, so `regate` may flip
        `partition_on` while the flag stays clear."""
        result = answer(self._team_view(agent_id, self.config.partition_on))
        if not self.partition_dependent:
            other = answer(self._team_view(agent_id, not self.config.partition_on))
            self.partition_dependent = other != result
        return result

    def _team_view(self, agent_id: str, partitioned: bool) -> TeamPublicView:
        if partitioned:
            surplus = {a: items for a, items in self.advertised.items() if a != agent_id}
        else:
            # merged-context ablation: teammates' inventories stand in for adverts
            surplus = {a: state.inventory.counts for a, state in self.states.items() if a != agent_id}
        return TeamPublicView(advertised_surplus=surplus)

    # -- window plumbing ----------------------------------------------------

    def new_window(self, issue: str, requester: str, responder: str, item: str,
                   count: int) -> CoordinationMessage:
        """Open the requester's one window on the board; return its request."""
        if (held := self.windows.get(requester)) is not None:
            raise ValueError(f"{requester} already has window {held.window_id} open")
        wid = self._window_seq
        self._window_seq += 1
        window, request = open_window(
            wid, issue, requester, responder, item, count,
            now=self.world.sim_time, timeout=self.config.window_timeout,
        )
        self.windows[requester] = window
        self.trace.emit(self.world.sim_time, requester, "window_state",
                        {**window.to_dict(), "event": "opened"})
        return request

    def requirements_of(self, agent_id: str) -> dict[str, int]:
        """Materials the agent still needs for its own unplaced live nodes."""
        placed, dead = self.world.placed_nodes(), self.dead
        need: dict[str, int] = {}
        for n in self.plan_info.nodes_of.get(agent_id, ()):
            if n in placed or n in dead:
                continue
            mat = self.plan_info.materials[n]
            need[mat] = need.get(mat, 0) + 1
        return need

    def complete(self) -> bool:
        return len(self.world.placed_nodes()) >= len(self.world.blueprint.blocks)


# ---------------------------------------------------------------------------
# step-loop helpers
# ---------------------------------------------------------------------------


def _choose_escalation_target(ep: EpisodeRuntime, state: PrivateState, blockage: BlockageRecord) -> str:
    """Best responder: the blocked dependency's assignee, else the designated or
    advertised holder of the item, else the nearest teammate. Only a gate
    pass with a teammate to ask can escalate, so there is one. A dependency
    block's blocker is never dead here: its death ends the block
    (`_end_settled_blocks`), so no window goes to a node that is given up."""
    if blockage.issue == IssueType.DEPENDENCY_BLOCK:
        assignee = ep.plan_info.assignments.get(blockage.node_id)
        if assignee and assignee != state.agent_id:
            return assignee
    return ep.read_team(state.agent_id, lambda team: _nearest_holder(ep, state, blockage, team))


def _nearest_holder(ep: EpisodeRuntime, state: PrivateState, blockage: BlockageRecord,
                    team: TeamPublicView) -> str:
    """The nearest teammate believed to hold the item in `team`
    (`TeamPublicView.believed_holder`), else the nearest teammate."""
    me = ep.world.agents[state.agent_id]
    others = [a for a in sorted(ep.world.agents) if a != state.agent_id]
    holders = [aid for aid in others
               if team.believed_holder(aid, blockage.item, blockage.count, ep.plan_info.partition)]
    # min keeps the first of equals, so a tie goes to the smallest id
    return min(holders or others, key=lambda aid: dist_sq(me.position, ep.world.agents[aid].position))


def _build_toward(ep: EpisodeRuntime, state: PrivateState, node_id: int) -> Action:
    block = ep.world.blueprint.node(node_id)
    me = ep.world.agents[state.agent_id]
    if within(me.position, block.position, INTERACTION_RADIUS):
        return Action.place(node_id)
    return Action.move(block.position)


def _next_skip_target(ep: EpisodeRuntime, state: PrivateState) -> int | None:
    """The live node the agent builds next among those whose material it holds."""
    return next_node(ep.plan_info, state.agent_id, ep.world.placed_nodes(), ep.graph,
                     ep.dead, state.inventory)


def _plan_step_action(ep: EpisodeRuntime, state: PrivateState, step_: RecoveryStep) -> Action:
    """Translate the recovery leg `step_` into a concrete action. The planner
    took the source or chest index, the recipe and the station from this
    world, so each lookup succeeds."""
    me = ep.world.agents[state.agent_id]
    if step_.op == "collect":
        ref = step_.source_ref
        pos = (ep.world.sources if ref[0] == "source" else ep.world.chests)[ref[1]].position
        if within(me.position, pos, INTERACTION_RADIUS):
            return Action.collect(tuple(ref))
        return Action.move(pos)
    recipe = ep.recipes.recipes[step_.recipe_id]
    if recipe.station is not None:
        pos = min(ep.world.stations_of(recipe.station), key=lambda p: (dist_sq(me.position, p), p))
        if not within(me.position, pos, INTERACTION_RADIUS):
            return Action.move(pos)
    return Action.craft(step_.recipe_id) if recipe.kind == "craft" else Action.smelt(step_.recipe_id)


def _responder_duty(ep: EpisodeRuntime, state: PrivateState) -> Action | None:
    """Answer requests and carry out confirmed transfers before own work.

    Never advances window lifecycle itself — settlement after each applied
    action owns every terminal transition.
    """
    now, me = ep.world.sim_time, state.agent_id
    for window in ep.windows.values():  # nothing here closes a window
        if window.responder != me or now >= window.deadline:
            continue
        if not window.has(MessageType.OFFER_TRANSFER) and not window.has(MessageType.CANNOT_SUPPLY):
            script = ep.spec.responder_script.get(me)
            if script:
                if window.window_id not in ep.script_choice:
                    cursor = ep.script_cursor.get(me, 0)
                    ep.script_choice[window.window_id] = script[min(cursor, len(script) - 1)]
                    ep.script_cursor[me] = cursor + 1
                behavior = ep.script_choice[window.window_id]
                if behavior == "silent":
                    continue
                if behavior == "cannot_supply":
                    msg = CoordinationMessage(
                        protocol=MessageType.CANNOT_SUPPLY, sender=me,
                        target=window.requester, item=window.item, count=window.count,
                        reason=ReasonTag.NO_SURPLUS, time=now,
                    )
                    return Action.send_message(msg)
                # any other entry means honest policy behaviour
            return Action.send_message(respond_policy(
                state.inventory, ep.requirements_of(me),
                window.messages[0], now))  # the request `open_window` posted
        if window.has(MessageType.OFFER_TRANSFER) and window.has(MessageType.CONFIRM_TRANSFER) \
                and not window.transfer_done:
            requester_pos = ep.world.agents[window.requester].position
            if within(ep.world.agents[me].position, requester_pos, INTERACTION_RADIUS):
                return Action.transfer(window.item, window.count, window.requester)
            return Action.move(requester_pos)
    return None


def _solver_context(ep: EpisodeRuntime, state: PrivateState, view, blockage: BlockageRecord) -> dict:
    """Everything needed to replay the local plan probe at this decision
    point; the probe reads the agent's remembered inventory."""
    return {
        "position": list(view.position),
        "inventory": state.inventory.to_dict(),
        "sources": [[i, s.item, list(s.position), s.remaining] for i, s in view.sources],
        "chests": [[i, list(c.position), c.inventory.to_dict()] for i, c in view.chests],
        "stations": [[list(p), m] for p, m in sorted(view.plan.station_positions.items())],
        "recipes": [ep.recipes.recipes[k].to_dict() for k in sorted(ep.recipes.recipes)],
        "item": blockage.item,
        "count": blockage.count,
        "issue": blockage.issue,
        "node_id": blockage.node_id,
        "params": dict(PLANNER_PARAMS),
    }


def _end_issue(ep: EpisodeRuntime, state: PrivateState, blockage: BlockageRecord, cause: str) -> None:
    """Trace the end of the agent's open issue `blockage` and drop its
    record, with its legs, skip state and gate time, unless an outcome has
    dropped it. `cause` is `abandoned` or what resolved it, traced as `via`:
    `transfer` (a teammate's transfer arrived), `local` (the agent's own
    verified outcome) or `blocker_placed` (the node a dependency block waits
    on landed). The skip target, which a window outliving the issue may use,
    goes too."""
    now = ep.world.sim_time
    event = "abandoned" if cause == "abandoned" else "resolved"
    payload = {"event": event, "issue": blockage.issue, "node_id": blockage.node_id,
               "windows": blockage.windows_opened, "recovery_activated": blockage.recovery_activated}
    if event == "resolved":
        payload["via"] = cause
        payload["duration"] = now - blockage.detected_at
    ep.trace.emit(now, state.agent_id, "issue", payload)
    state.blockage = None
    state.skip_target = None


def _give_up(ep: EpisodeRuntime, node: int) -> None:
    """Add `node` and every node below it to `ep.dead`, and end the
    dependency blocks that settles."""
    ep.dead.add(node)
    ep.dead |= ep.graph.descendants(node)
    _end_settled_blocks(ep)


def _end_settled_blocks(ep: EpisodeRuntime) -> None:
    """End each open dependency block whose waiter no longer waits on its
    blocker (`waits_on`): `blocker_placed` when the blocker has landed, else
    `abandoned`, when none of the waiter's live, unplaced nodes has the
    blocker as a prerequisite any more. The blocker is not given up. Only a
    successful `place` and a give-up change what an agent waits on, and each
    is followed by this check, so no gate pass or window serves a block
    that has settled."""
    placed = ep.world.placed_nodes()
    for waiter in ep.states.values():
        block = waiter.blockage
        if (block is not None and block.issue == IssueType.DEPENDENCY_BLOCK
                and block.node_id not in waits_on(ep.plan_info, waiter.agent_id, placed,
                                                  ep.graph, ep.dead)):
            _end_issue(ep, waiter, block, "blocker_placed" if block.node_id in placed else "abandoned")


def _route_local(ep: EpisodeRuntime, state: PrivateState, blockage: BlockageRecord,
                 plan: RecoveryPlan | None) -> None:
    """The one route for a blocked agent with no window open: recover with
    `plan`, else do skip work (the next step announces its target), else
    wait for an unexpired cooldown to retry, unless two windows in a row
    have failed.

    Otherwise a material issue's node is given up: its item reaches the
    agent only through the agent's own actions or a window it opens, and
    neither can come. A `dependency_block` waits until its waiter no longer
    waits on the blocker (`_end_settled_blocks`). Failed windows do not end
    it: a window cannot place a node, and the blocker's assignee may still."""
    if plan is not None:
        # a collect leg is done once its units are gathered, any other once the plan's goods are
        blockage.legs = [(s, s.item, state.inventory.count(s.item) + s.units) if s.op == "collect"
                         else (s, plan.item, plan.count) for s in plan.steps]
        blockage.recovery_activated = True
        return
    state.skip_target = None
    blockage.skipping = _next_skip_target(ep, state) is not None
    if blockage.skipping:
        return
    if blockage.consecutive_failures < 2 and blockage.expires_at > ep.world.sim_time:
        blockage.gate_at = blockage.expires_at
    elif blockage.issue in MATERIAL_SHAPED_ISSUES and (
            blockage.consecutive_failures >= 2 or blockage.gate_at is None):
        _end_issue(ep, state, blockage, "abandoned")
        _give_up(ep, blockage.node_id)


def _gate_decision(config: RunConfig, backend, gp: GatePass, solver_ctx) -> dict:
    """Decide one gate pass under `config` and render its `gate_decision`
    payload. `solver_ctx()` supplies the context an escalation records. The
    step loop and `regate` both decide here, so their payloads cannot drift
    apart. With no tier (the communication-first baseline) every issue
    escalates, and the payload records only that."""
    blockage = gp.blockage
    if config.tiers:
        decision = gate_decide(blockage, gp.fv, config.weights, config.thresholds,
                               adjudicator=backend, tiers=config.tiers, plan=gp.plan).to_dict()
    else:
        decision = {"verdict": "escalate", "tier": "disabled"}
    payload = {"issue": blockage.issue, "node_id": blockage.node_id, **decision}
    if decision["verdict"] == "escalate":
        payload["solver_ctx"] = solver_ctx()
        payload["local_plan_cost"] = gp.plan.total_cost if gp.plan else None
    return payload


def _gate_and_route(ep: EpisodeRuntime, state: PrivateState, view) -> Action:
    """Featurize the blockage, run the gate, and route the verdict. A
    material issue's probe is detection's, if made this step, else a call
    here; only a material issue's route reads a plan."""
    blockage = state.blockage
    blockage.gate_at = None
    now = ep.world.sim_time

    plan, blockage.plan = blockage.plan, NOT_PROBED
    if plan is NOT_PROBED and blockage.issue in MATERIAL_SHAPED_ISSUES:
        plan = plan_local_recovery(state, view, ep.recipes, blockage)

    if len(ep.world.agents) == 1 or blockage.hard_blocked(now):
        verdict = "stay_local"  # gate skipped; cooldown discipline owns the issue
    else:
        R = ep.read_team(state.agent_id, lambda team: teammate_resources(view, team, ep.recipes, blockage))
        fv, features_plan = extract_features(
            view, ep.graph, state, R, ep.recipes, blockage=blockage, plan=plan)
        gp = GatePass(len(ep.trace.events), blockage, fv, features_plan)
        ep.gate_passes.append(gp)
        payload = _gate_decision(ep.config, ep.backend, gp,
                                 lambda: _solver_context(ep, state, view, blockage))
        verdict = payload["verdict"]
        ep.trace.emit(now, state.agent_id, "gate_decision", payload)

    if verdict == "escalate":
        target = _choose_escalation_target(ep, state, blockage)
        request = ep.new_window(
            blockage.issue, state.agent_id, target, blockage.item, blockage.count)
        blockage.windows_opened += 1
        blockage.recovery_activated = True
        return Action.send_message(request)

    _route_local(ep, state, blockage, None if plan is NOT_PROBED else plan)
    if blockage.legs:
        return _plan_step_action(ep, state, blockage.legs[0][0])
    return _skip_work_or_idle(ep, state) if blockage.skipping else Action.idle()


def _advance_plan(ep: EpisodeRuntime, state: PrivateState, legs: list) -> Action:
    """Drop the legs whose goods are in hand and act on the next one. The
    last leg's goal is the blockage's `count`, so finishing it clears the
    blockage through the outcome trigger, and the same `_post_action` ends
    the record that holds the legs: they never run dry here."""
    while state.inventory.count(legs[0][1]) >= legs[0][2]:
        del legs[0]
    return _plan_step_action(ep, state, legs[0][0])


def _skip_work_or_idle(ep: EpisodeRuntime, state: PrivateState) -> Action:
    """Build toward the skip target, announcing a new one first. When the
    skip work runs out with no window open, the blockage is routed again."""
    node = state.skip_target
    if node is not None and (
            ep.world.node_placed(node)
            or state.inventory.count(ep.plan_info.materials[node]) < 1):
        state.skip_target = None
    if state.skip_target is None:
        nxt = _next_skip_target(ep, state)
        if nxt is None:
            if state.agent_id not in ep.windows:
                _route_local(ep, state, state.blockage, None)
            return Action.idle()
        state.skip_target = nxt
        return Action.skip(nxt)
    return _build_toward(ep, state, state.skip_target)


def step(state: PrivateState, ep: EpisodeRuntime) -> tuple[str, Action]:
    """Choose this agent's next action (decision phases in fixed order).
    Returns the digest of the view it was chosen on, and the action."""
    now = ep.world.sim_time
    view = ep.view_for(state.agent_id)
    digest = view.digest()

    # protocol liveness before own work
    duty = _responder_duty(ep, state)
    if duty is not None:
        return digest, duty

    # requester-side window upkeep
    window = ep.windows.get(state.agent_id)
    if window is not None:
        if window.has(MessageType.OFFER_TRANSFER) and not window.has(MessageType.CONFIRM_TRANSFER):
            return digest, Action.send_message(confirm_message(window, now))
        return digest, _skip_work_or_idle(ep, state)

    blockage = state.blockage
    if blockage is None:  # detection sets the active subtask too
        blockage = state.blockage = detect_issue(state, view, ep.graph, ep.recipes, ignore=ep.dead)
        if blockage is not None:  # its first gate pass is due now, at detection
            ep.trace.emit(now, state.agent_id, "issue", {
                "event": "detected", "issue": blockage.issue, "node_id": blockage.node_id,
                "item": blockage.item, "count": blockage.count,
            })

    if blockage is not None:
        if blockage.legs:
            return digest, _advance_plan(ep, state, blockage.legs)
        if blockage.gate_at is not None and now >= blockage.gate_at:
            return digest, _gate_and_route(ep, state, view)
        return digest, _skip_work_or_idle(ep, state) if blockage.skipping else Action.idle()

    target = state.active_subtask
    return digest, Action.idle() if target is None else _build_toward(ep, state, target)


def _handle_window_close(ep: EpisodeRuntime, window: CoordinationWindow) -> None:
    """Terminal bookkeeping: the issue's cooldown, requester routing, trace
    events. No issue is detected while its agent has a window open, so the
    requester's blockage is the window's issue, or None once it has ended."""
    now = ep.world.sim_time
    ep.trace.emit(now, window.requester, "window_state",
                  {**window.to_dict(), "event": "closed"})
    del ep.windows[window.requester]
    state = ep.states[window.requester]
    blockage = state.blockage
    if blockage is None:
        return
    if window.state == WindowState.FULFILLED:
        if (blockage.level, blockage.consecutive_failures) != (0, 0):
            blockage.register_success()
            ep.trace.emit(now, window.requester, "cooldown_update", {
                "issue": window.issue, "level": 0, "consecutive_failures": 0,
                "expires_at": 0, "cause": "fulfilled",
            })
        blockage.gate_at = now  # delivery did not fully cover the need
        return
    blockage.register_failure(window.state == WindowState.CANNOT_SUPPLY, now, ep.config.cooldown_duration)
    ep.trace.emit(now, window.requester, "cooldown_update", {
        "issue": window.issue, "level": blockage.level,
        "consecutive_failures": blockage.consecutive_failures,
        "expires_at": blockage.expires_at, "cause": window.state,
    })
    # mandatory local fallback, no fresh gate pass; before the second
    # failure the gate is passed again once the cooldown expires
    blockage.gate_at = blockage.expires_at if blockage.consecutive_failures < 2 else None
    plan = None
    if blockage.issue in MATERIAL_SHAPED_ISSUES:
        plan = plan_local_recovery(state, ep.view_for(state.agent_id), ep.recipes, blockage)
    _route_local(ep, state, blockage, plan)


def _post_action(ep: EpisodeRuntime, state: PrivateState, action: Action, outcome: VerifiedOutcome) -> None:
    """Board/window/private-state effects after the world applied an action."""
    if action.kind == "send_message" and action.message is not None:
        msg = action.message
        # every message belongs to its requester's one open window
        from_requester = msg.protocol in (MessageType.REQUEST_MATERIAL, MessageType.CONFIRM_TRANSFER)
        window = ep.windows[msg.sender if from_requester else msg.target]
        if msg not in window.messages:
            window.append(msg)
        ep.trace.emit(outcome.sim_time, msg.sender, "coordination_message",
                      {**msg.to_dict(), "window_id": window.window_id})
        if msg.protocol == MessageType.OFFER_TRANSFER:
            spare = surplus_of(state.inventory, ep.requirements_of(msg.sender), msg.item)
            ep.advertised.setdefault(msg.sender, {})[msg.item] = max(msg.count, spare)

    # private-state trigger: own verified outcome; it may clear the blockage
    held = state.blockage
    update_private_state(state, outcome)

    if not outcome.ok and held is not None and held.legs:
        # a recovery leg failed against the live world; replan from scratch
        held.legs = []
        held.gate_at = ep.world.sim_time

    # transfers also update the recipient's private state
    if outcome.ok and outcome.kind == "transfer" and action.to_agent:
        recipient = ep.states[action.to_agent]
        awaited = recipient.blockage
        update_private_state(recipient, outcome)
        if awaited is not None and recipient.blockage is None:
            _end_issue(ep, recipient, awaited, "transfer")
        ep.advertised.get(state.agent_id, {}).pop(action.item, None)
        window = ep.windows.get(action.to_agent)
        if (window is not None and window.responder == state.agent_id
                and window.item == action.item and (action.count or 0) >= window.count
                and window.has(MessageType.CONFIRM_TRANSFER)):
            window.transfer_done = True

    # blockage satisfied by this outcome (plan leg, passive gain, ...)
    if held is not None and state.blockage is None:
        _end_issue(ep, state, held, "local")
    if outcome.ok and outcome.kind == "place":
        _end_settled_blocks(ep)

    # settle every open window after each applied action
    for window in list(ep.windows.values()):
        if settle_window(window, ep.world.sim_time) != WindowState.OPEN:
            _handle_window_close(ep, window)


def _quiescent(ep: EpisodeRuntime, round_start: int) -> bool:
    """True when the round whose first trace event is `round_start` leaves
    a state that no later round can change, so the rest of the budget would
    add only idle `action` events.

    The round qualifies when it traced nothing but idle `action` events
    (each holds its step's verified outcome) and leaves no window open and
    no open issue with a `gate_at` (even one already due: the gate pass it
    triggers has not run yet). The state after it is a fixed point:

    - The world changes only through non-idle actions, so every view stays
      the same. `sim_time` still advances, but only the idle events' `step`
      and `obs_digest` show it.
    - The only reads that depend on time are window deadlines (none is
      open, and opening one is traced), `gate_at` (none is set; a new
      issue's is, and its detection is traced) and the open issue's
      cooldown expiry and level. An issue's cooldown is read only in a
      gate pass and at a window close; with no `gate_at` set and no window
      open, neither comes again, so a cooldown that has not expired yet
      changes nothing.
    - `detect_issue` reads only the unchanged view and private state.
    - The adjudicator is reached only through a gate pass, which needs a
      `gate_at`, and none is set.
    - Whatever the next round would act on is traced: detections, gate
      decisions, abandonments, resolutions, window closes and cooldown
      updates (an abandoned node frees the next target; a window that times
      out mid-round hands its requester a local plan). What an idle round
      changes without a trace settles within it: an agent whose blockage
      is gone takes the standard branch in the same step, which sets the
      active subtask from `next_node` on the unchanged view, and a blocked
      agent whose skip work runs out, or whose gate pass the cooldown
      skips, goes through `_route_local`. That abandons the node (traced),
      schedules a retry (a `gate_at`, so the round does not qualify), or
      leaves the agent stalled on a `dependency_block` until it no longer
      waits on the blocker, which only a traced `place` or a traced
      `abandoned` changes. Each idles again.
    """
    return (
        all(e["kind"] == "action" and e["payload"]["action"]["kind"] == "idle"
            for e in ep.trace.events[round_start:])
        and not ep.windows
        and all(state.blockage is None or state.blockage.gate_at is None
                for state in ep.states.values())
    )


def simulate_episode(spec, config: RunConfig, backend=None) -> EpisodeRuntime:
    """Round-robin the agents until the blueprint completes, the budget runs
    out, or a round leaves nothing able to change (`_quiescent`). Returns the
    finished runtime: its trace, and its gate passes for `regate`."""
    ep = EpisodeRuntime(spec, config, backend)
    agent_ids = sorted(ep.world.agents)
    rounds = 0
    quiescent = False
    while rounds < config.step_budget and not ep.complete() and not quiescent:
        round_start = len(ep.trace.events)
        all_idle = True
        for aid in agent_ids:
            state = ep.states[aid]
            digest, action = step(state, ep)
            _, outcome = apply_action(ep.world, aid, action)
            ep.views.invalidate(outcome)  # before `_post_action`, which may observe
            # one event per step; the outcome's agent, time, kind and node are the event's
            ep.trace.emit(outcome.sim_time, aid, "action",
                          {"action": action.to_dict(), "mode": ep.mode(state),
                           "obs_digest": digest, "outcome": outcome.to_dict()})
            _post_action(ep, state, action, outcome)
            all_idle = all_idle and action.kind == "idle"
            if outcome.kind == "place" and ep.complete():  # only a place can complete
                break
        rounds += 1
        # `all_idle` only spares busy rounds the predicate's trace scan
        quiescent = all_idle and _quiescent(ep, round_start)
    if ep.complete():
        reason = "completed"
    else:
        reason = "quiescent" if quiescent else "budget"
    ep.trace.emit(ep.world.sim_time, "", "episode_end", {
        "reason": reason,
        "completion": blueprint_completion(ep.world),
        "rounds": rounds,
        "schema": TRACE_SCHEMA,
        "config": config.describe(),
        "episode_id": getattr(spec, "episode_id", None),
        "class_label": getattr(spec, "class_label", None),
    })
    return ep


def run_episode(spec, config: RunConfig, backend=None) -> Trace:
    """The trace of one episode (see `simulate_episode`)."""
    return simulate_episode(spec, config, backend).trace


def regate(reference: EpisodeRuntime, config: RunConfig) -> Trace | None:
    """The trace `run_episode(reference.spec, config)` writes, derived from
    the finished `reference` run without simulating, or None when that needs
    a simulation. `config` must equal `reference.config` outside
    REGATED_FIELDS (the gate settings and `partition_on`); the reference's
    own backend does not matter.

    A changed `partition_on` needs a simulation when the reference is
    `partition_dependent`. Otherwise each of the reference's gate passes is
    decided again under `config`, through `_gate_decision` and `config`'s
    mock backend. If every verdict is the reference's, the result is the
    reference trace with those `gate_decision` payloads and
    `episode_end.config` re-rendered. Any flipped verdict returns None.

    By induction over the reads of a changed setting, the two runs are in
    the same state at each one, so the other run gets the answer the
    reference recorded or computed:

    - Before the first read, both runs have the same spec and the same
      settings outside REGATED_FIELDS. The gate settings are read nowhere
      else than in `_gate_decision`, `_mock_backend`, `describe` and the
      checks in `RunConfig.__init__` (the dataset validator reads only a
      fresh `RunConfig()`'s), and `partition_on` nowhere else than in
      `read_team`, `describe` and here (`tests/test_regate.py` pins both
      lists). So they trace the same bytes.
    - The team view is read only through `read_team`, by two callers: R in
      the features and the escalation target. At each read the reference
      also computed the answer under the other setting, and
      `partition_dependent` is clear, so no answer differed: the other run
      reads what the reference read. No gate payload renders the
      partition.
    - At a gate pass reached in the same state, the blockage, the plan
      probe and `extract_features`' vector and plan are the other run's
      too: they read only that state, and every pass computes them
      whatever the tiers. The mock replies from the card and
      `config.thresholds` alone, so the call's position in the run cannot
      matter (a scripted or remote backend's reply can depend on it, hence
      the mock).
    - The route after a pass reads the verdict and the probe. Equal
      verdicts therefore leave equal states, the same trace events up to
      the next pass, and the same solver context on an escalation.
      Cooldowns, `H` and window outcomes follow from these.
    - Skipped gate passes (a lone agent, a hard cooldown block) read no gate
      setting and no team view, and trace no decision, so they match by
      the same argument.
    """
    if regate_key(config) != regate_key(reference.config):
        raise ValueError("regate: the config differs from the reference outside the gate settings "
                         "and partition_on")
    if config.partition_on != reference.config.partition_on and reference.partition_dependent:
        return None
    backend = _mock_backend(config)
    events = list(reference.trace.events)
    for gp in reference.gate_passes:
        event = events[gp.event_index]
        recorded = event["payload"]
        # a stay_local record has no context, but an escalation there is a flip anyway
        payload = _gate_decision(config, backend, gp, lambda: recorded.get("solver_ctx"))
        if payload["verdict"] != recorded["verdict"]:
            return None
        events[gp.event_index] = {**event, "payload": payload}
    end = events[-1]
    events[-1] = {**end, "payload": {**end["payload"], "config": config.describe()}}
    return Trace(events=events)
