import pytest

from gatecraft import (
    Action,
    CoordinationMessage,
    Inventory,
    apply_action,
    open_window,
    respond_policy,
    settle_window,
    validate_message,
)
from gatecraft.protocol import (
    MAX_WINDOW_MESSAGES,
    MessageType,
    ReasonTag,
    WindowState,
    confirm_message,
    surplus_of,
)

from conftest import make_world


def _msg(**overrides):
    base = {
        "protocol": "REQUEST_MATERIAL",
        "from": "a0",
        "target": "a1",
        "item": "iron_ingot",
        "count": 1,
        "reason": "need_for_node",
        "time": 0,
    }
    base.update(overrides)
    return base


# -- message schema -----------------------------------------------------------


def test_valid_message_passes():
    assert validate_message(_msg())


def test_missing_field_rejected():
    m = _msg()
    del m["item"]
    assert not validate_message(m)


def test_extra_field_rejected():
    assert not validate_message(_msg(priority="high"))


def test_unknown_protocol_and_reason_rejected():
    assert not validate_message(_msg(protocol="SHOUT"))
    assert not validate_message(_msg(reason="because"))


def test_degenerate_values_rejected():
    assert not validate_message(_msg(count=0))
    assert not validate_message(_msg(count=True))
    assert not validate_message(_msg(time=-1))
    assert not validate_message(_msg(target="a0"))  # self-addressed
    assert not validate_message(_msg(item=""))
    assert not validate_message("not a dict")


def test_reason_tags_are_the_three_the_runtime_writes():
    for reason in ("need_for_node", "handover_complete", "no_surplus"):
        assert validate_message(_msg(reason=reason))
    assert not validate_message(_msg(reason="timeout"))  # no code writes it


# -- window lifecycle ------------------------------------------------------------


def test_open_window_posts_request():
    window, request = open_window(0, "transfer_needed", "a0", "a1", "iron_ingot", 1,
                                  now=5, timeout=20)
    assert window.state == WindowState.OPEN and window.deadline == 25
    assert request.protocol == MessageType.REQUEST_MATERIAL
    assert window.messages == [request]


def test_open_window_rejects_self_and_zero_count():
    with pytest.raises(ValueError):
        open_window(0, "transfer_needed", "a0", "a0", "x", 1, now=0, timeout=20)
    with pytest.raises(ValueError):
        open_window(0, "transfer_needed", "a0", "a1", "x", 0, now=0, timeout=20)


def test_window_caps_messages():
    window, request = open_window(0, "transfer_needed", "a0", "a1", "x", 1, now=0, timeout=20)
    for i in range(MAX_WINDOW_MESSAGES - 1):
        window.append(CoordinationMessage(
            protocol=MessageType.OFFER_TRANSFER, sender="a1", target="a0",
            item="x", count=1, reason=ReasonTag.NEED_FOR_NODE, time=i + 1))
    with pytest.raises(ValueError):
        window.append(request)


def test_respond_policy_offers_only_from_surplus():
    _, request = open_window(0, "transfer_needed", "a0", "a1", "iron_ingot", 2, now=0, timeout=20)
    offer = respond_policy(Inventory({"iron_ingot": 3}), {}, request, now=1)
    assert offer.protocol == MessageType.OFFER_TRANSFER and offer.count == 2
    # holder needs 2 of the 3 for its own nodes -> cannot cover the request
    refusal = respond_policy(Inventory({"iron_ingot": 3}), {"iron_ingot": 2}, request, now=1)
    assert refusal.protocol == MessageType.CANNOT_SUPPLY
    assert refusal.reason == ReasonTag.NO_SURPLUS


def test_surplus_of_subtracts_own_requirements():
    assert surplus_of(Inventory({"x": 5}), {"x": 2}, "x") == 3
    assert surplus_of(Inventory(), {"x": 1}, "x") == -1


def test_settle_cannot_supply_closes_window():
    window, request = open_window(0, "transfer_needed", "a0", "a1", "x", 1, now=0, timeout=20)
    window.append(CoordinationMessage(
        protocol=MessageType.CANNOT_SUPPLY, sender="a1", target="a0",
        item="x", count=1, reason=ReasonTag.NO_SURPLUS, time=1))
    assert settle_window(window, now=1) == WindowState.CANNOT_SUPPLY


def test_settle_times_out_at_deadline():
    window, _ = open_window(0, "transfer_needed", "a0", "a1", "x", 1, now=0, timeout=10)
    assert settle_window(window, now=9) == WindowState.OPEN
    assert settle_window(window, now=10) == WindowState.TIMED_OUT


def test_settle_directs_responder_through_handshake():
    world = make_world([(0, (0, 0, 1), "stone")],
                       agents={"a0": ((0, 0, 0), {}), "a1": ((40, 0, 0), {"x": 1})})
    window, request = open_window(0, "transfer_needed", "a0", "a1", "x", 1, now=0, timeout=20)
    window.append(respond_policy(world.agents["a1"].inventory, {}, request, now=1))
    window.append(confirm_message(window, now=2))
    # offer + confirm alone keep the window open until the transfer is verified
    assert settle_window(window, now=3) == WindowState.OPEN
    world.agents["a1"].position = (2, 0, 0)
    assert settle_window(window, now=4) == WindowState.OPEN
    # the verified transfer closes the exchange as fulfilled
    world, out = apply_action(world, "a1", Action.transfer("x", 1, "a0"))
    assert out.ok
    window.transfer_done = True
    assert settle_window(window, now=5) == WindowState.FULFILLED


def test_settled_window_state_is_sticky():
    window, _ = open_window(0, "transfer_needed", "a0", "a1", "x", 1, now=0, timeout=5)
    settle_window(window, now=5)
    assert window.state == WindowState.TIMED_OUT
    assert settle_window(window, now=50) == WindowState.TIMED_OUT
    with pytest.raises(ValueError):
        window.append(CoordinationMessage(
            protocol=MessageType.OFFER_TRANSFER, sender="a1", target="a0",
            item="x", count=1, reason=ReasonTag.NEED_FOR_NODE, time=6))
