"""Typed coordination protocol: four message kinds, bounded windows, public team view.

A window is the unit of coordination accounting: opened by an escalation,
closed by exactly one terminal outcome (fulfilled, cannot_supply, timed_out)
no later than its deadline.
"""

from __future__ import annotations

from .world import CoordinationMessage, Inventory


class MessageType:
    REQUEST_MATERIAL = "REQUEST_MATERIAL"
    OFFER_TRANSFER = "OFFER_TRANSFER"
    CONFIRM_TRANSFER = "CONFIRM_TRANSFER"
    CANNOT_SUPPLY = "CANNOT_SUPPLY"
    ALL = (REQUEST_MATERIAL, OFFER_TRANSFER, CONFIRM_TRANSFER, CANNOT_SUPPLY)


class ReasonTag:
    NEED_FOR_NODE = "need_for_node"
    HANDOVER_COMPLETE = "handover_complete"
    NO_SURPLUS = "no_surplus"
    ALL = (NEED_FOR_NODE, HANDOVER_COMPLETE, NO_SURPLUS)


class WindowState:
    OPEN = "open"
    FULFILLED = "fulfilled"
    CANNOT_SUPPLY = "cannot_supply"
    TIMED_OUT = "timed_out"


MESSAGE_FIELDS = ("protocol", "from", "target", "item", "count", "reason", "time")
MAX_WINDOW_MESSAGES = 4


def validate_message(msg: dict) -> bool:
    """Schema check for one board message (dict form).

    Exactly the seven protocol fields, tags from `MessageType.ALL` and
    `ReasonTag.ALL`, a positive integer count, distinct endpoints, non-negative time.
    """
    if not isinstance(msg, dict):
        return False
    if set(msg.keys()) != set(MESSAGE_FIELDS):
        return False
    if msg["protocol"] not in MessageType.ALL:
        return False
    if msg["reason"] not in ReasonTag.ALL:
        return False
    if not isinstance(msg["from"], str) or not isinstance(msg["target"], str):
        return False
    if not msg["from"] or not msg["target"] or msg["from"] == msg["target"]:
        return False
    if not isinstance(msg["item"], str) or not msg["item"]:
        return False
    if not isinstance(msg["count"], int) or isinstance(msg["count"], bool) or msg["count"] < 1:
        return False
    if not isinstance(msg["time"], int) or isinstance(msg["time"], bool) or msg["time"] < 0:
        return False
    return True


class CoordinationWindow:
    __slots__ = ("window_id", "issue", "requester", "responder", "item", "count", "opened_at",
                 "deadline", "state", "messages", "transfer_done")

    def __init__(self, window_id: int, issue: str, requester: str, responder: str, item: str,
                 count: int, opened_at: int, deadline: int):
        self.window_id = window_id
        self.issue = issue
        self.requester = requester
        self.responder = responder
        self.item = item
        self.count = count
        self.opened_at = opened_at
        self.deadline = deadline
        self.state = WindowState.OPEN
        self.messages: list[CoordinationMessage] = []
        self.transfer_done = False

    def append(self, msg: CoordinationMessage) -> None:
        if self.state != WindowState.OPEN:
            raise ValueError(f"window {self.window_id} is closed")
        if len(self.messages) >= MAX_WINDOW_MESSAGES:
            raise ValueError(f"window {self.window_id} already holds {MAX_WINDOW_MESSAGES} messages")
        if not validate_message(msg.to_dict()):
            raise ValueError("message failed schema validation")
        self.messages.append(msg)

    def has(self, mtype: str) -> bool:
        return any(m.protocol == mtype for m in self.messages)

    def to_dict(self) -> dict:
        return {
            "window_id": self.window_id,
            "issue": self.issue,
            "requester": self.requester,
            "responder": self.responder,
            "item": self.item,
            "count": self.count,
            "opened_at": self.opened_at,
            "deadline": self.deadline,
            "state": self.state,
        }


def open_window(
    window_id: int,
    issue: str,
    requester: str,
    responder: str,
    item: str,
    count: int,
    now: int,
    timeout: int,
) -> tuple[CoordinationWindow, CoordinationMessage]:
    """Open a request window and produce the REQUEST_MATERIAL message to post."""
    if count < 1:
        raise ValueError("request count must be >= 1")
    if requester == responder:
        raise ValueError("cannot open a window to oneself")
    window = CoordinationWindow(
        window_id=window_id, issue=issue, requester=requester, responder=responder,
        item=item, count=count, opened_at=now, deadline=now + timeout,
    )
    request = CoordinationMessage(
        protocol=MessageType.REQUEST_MATERIAL, sender=requester, target=responder,
        item=item, count=count, reason=ReasonTag.NEED_FOR_NODE, time=now,
    )
    window.append(request)
    return window, request


def surplus_of(inventory: Inventory, own_requirements: dict[str, int], item: str) -> int:
    """Units of `item` the holder can spare after its own unfinished requirements."""
    return inventory.count(item) - own_requirements.get(item, 0)


def respond_policy(
    inventory: Inventory,
    own_requirements: dict[str, int],
    request: CoordinationMessage,
    now: int,
) -> CoordinationMessage:
    """Deterministic responder rule: OFFER iff surplus covers the request,
    else CANNOT_SUPPLY."""
    spare = surplus_of(inventory, own_requirements, request.item)
    if spare >= request.count:
        return CoordinationMessage(
            protocol=MessageType.OFFER_TRANSFER, sender=request.target, target=request.sender,
            item=request.item, count=request.count, reason=ReasonTag.NEED_FOR_NODE, time=now,
        )
    return CoordinationMessage(
        protocol=MessageType.CANNOT_SUPPLY, sender=request.target, target=request.sender,
        item=request.item, count=request.count, reason=ReasonTag.NO_SURPLUS, time=now,
    )


def confirm_message(window: CoordinationWindow, now: int) -> CoordinationMessage:
    return CoordinationMessage(
        protocol=MessageType.CONFIRM_TRANSFER, sender=window.requester, target=window.responder,
        item=window.item, count=window.count, reason=ReasonTag.HANDOVER_COMPLETE, time=now,
    )


def settle_window(window: CoordinationWindow, now: int) -> str:
    """Advance a window's lifecycle and return its state.

    Terminal checks run in order: explicit refusal, verified transfer,
    deadline. What the responder still owes an open window is decided by the
    agent runtime's responder duty, not here.
    """
    if window.state != WindowState.OPEN:
        return window.state
    if window.has(MessageType.CANNOT_SUPPLY):
        window.state = WindowState.CANNOT_SUPPLY
    elif window.transfer_done:
        window.state = WindowState.FULFILLED
    elif now >= window.deadline:
        window.state = WindowState.TIMED_OUT
    return window.state


class TeamPublicView:
    """Shared, non-private team knowledge: surpluses advertised through
    OFFER_TRANSFER messages. Under the partition-off ablation the runtime
    substitutes live inventories here. Teammate positions and the designated
    item owners are read from the agent's `WorldView` and its plan."""

    __slots__ = ("advertised_surplus",)

    def __init__(self, advertised_surplus: dict[str, dict[str, int]] | None = None):
        # agent -> item -> count
        self.advertised_surplus = {} if advertised_surplus is None else advertised_surplus

    def believed_holder(self, agent: str, item: str, need: int, partition: dict[str, str]) -> bool:
        """Whether `agent` is believed to hold `need` of `item`: it advertised
        that much, or `partition` (the plan's) designates it the item's holder."""
        return self.advertised_surplus.get(agent, {}).get(item, 0) >= need or partition.get(item) == agent
