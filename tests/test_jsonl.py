"""The JSONL readers behind `Trace.from_jsonl` and `load_dataset`, and the
writer behind `Trace.to_jsonl`.

`read_jsonl` decodes text in the trace format in one pass and sends any
other text to `read_jsonl_by_line`, the per-line parser. The fuzz below
mutates the seed-0 traces into shapes on both sides of that line and checks
that the two readers always agree: the same values, or the same ValueError.
It mutates saved seed-0 datasets the same way and checks that the specs
`load_dataset` decodes from the lines it kept are the per-line parser's.

`Trace.to_jsonl` writes the envelope of an event in `emit`'s shape itself
and sends any other event to the general encoder. Its fuzz builds events on
both sides of that line and checks each text against `json.dumps`.
"""

import json
import math
import random

import pytest

from gatecraft import agent
from gatecraft.agent import Trace, _read_jsonl_whole, read_jsonl, read_jsonl_by_line
from gatecraft.scenarios import EpisodeSpec, load_dataset, save_dataset

# the line breaks `str.splitlines` honours besides "\n"
OTHER_BREAKS = ("\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.fixture(scope="module")
def trace_texts(default_runs):
    return [ep.trace.to_jsonl() for ep in default_runs]


def _insert_in_string(line, char):
    """`line` with `char` just inside the opening quote of its `"kind"` value."""
    at = line.index('"kind":"') + len('"kind":"')
    return line[:at] + char + line[at:]


def _mutate(rng, text: str) -> str:
    lines = text.split("\n")  # ends with "" when the text ends in "\n"
    body = lines[:-1] or [""]
    i = rng.randrange(len(body))
    choice = rng.randrange(13)
    if choice == 0:  # truncated at a random byte
        return text[:rng.randrange(len(text) + 1)]
    if choice == 1:  # blank line
        body.insert(i, "")
    elif choice == 2:  # whitespace-only line
        body.insert(i, rng.choice([" ", "\t", "  \t "]))
    elif choice == 3:  # leading space
        body[i] = " " + body[i]
    elif choice == 4:  # trailing space
        body[i] = body[i] + rng.choice([" ", "\t"])
    elif choice == 5:  # \r\n line ends
        return text.replace("\n", "\r\n")
    elif choice == 6:  # one event split over two lines, between two tokens
        head, tail = body[i][:1], body[i][1:]
        body[i] = head + rng.choice(("\n",) + OTHER_BREAKS) + tail
    elif choice == 7 and len(body) > 1:  # two events joined on one line
        j = min(i, len(body) - 2)
        body[j:j + 2] = [body[j] + rng.choice(["", " "]) + body[j + 1]]
    elif choice == 8:  # a raw line break or other non-ASCII character inside a string
        if body[i]:
            body[i] = _insert_in_string(body[i], rng.choice(OTHER_BREAKS + ("\u00e9", "\u00a0")))
    elif choice == 9:  # no final newline
        return text.rstrip("\n")
    elif choice == 10:  # empty text
        return ""
    elif choice == 11:  # garbage line
        body[i] = rng.choice(["garbage", "{", "[1]", "{}", "null", "1 2"])
    else:  # a line break character at a random position
        at = rng.randrange(len(text) + 1)
        return text[:at] + rng.choice(("\n",) + OTHER_BREAKS) + text[at:]
    return "\n".join(body) + "\n"


def _read_or_error(read, text, *convert):
    try:
        return read(text, *convert)
    except ValueError as exc:
        return "error", str(exc)


def _kind(event):
    return event["kind"]


def test_seed0_traces_take_the_one_pass_path_and_round_trip(trace_texts):
    for text in trace_texts:
        assert _read_jsonl_whole(text) is not None
        assert Trace.from_jsonl(text).to_jsonl() == text


def test_reader_matches_the_per_line_parser_on_mutated_traces(trace_texts):
    rng = random.Random(7)
    fallbacks = 0
    for case in range(600):
        text = rng.choice(trace_texts)
        for _ in range(rng.choice([1, 1, 2])):
            text = _mutate(rng, text)
        if rng.random() < 0.5:  # short texts too, so truncation and joins hit every line
            text = "".join(text.splitlines(keepends=True)[:rng.randint(0, 4)])
        expected = _read_or_error(read_jsonl_by_line, text)
        assert _read_or_error(read_jsonl, text) == expected, (case, text[:200])
        if isinstance(expected, tuple):  # ("error", message)
            with pytest.raises(ValueError):
                Trace.from_jsonl(text)
        else:
            assert Trace.from_jsonl(text).events == expected
        fallbacks += _read_jsonl_whole(text) is None
    assert 100 < fallbacks < 500  # both paths were exercised


@pytest.fixture(scope="module")
def dataset_texts(dataset, tmp_path_factory):
    """Saved datasets of four seed-0 episodes each."""
    manifest, episodes = dataset
    root = tmp_path_factory.mktemp("datasets")
    return [(save_dataset(manifest, episodes[i:i + 4], root / str(i)) / "episodes.jsonl").read_text()
            for i in range(0, len(episodes), 25)]


def test_load_dataset_matches_the_per_line_parser_on_mutated_datasets(dataset_texts, tmp_path):
    """`\\r\\n` line ends are read as `\\n` (universal newlines). Each
    spec `load_dataset` decodes equals `EpisodeSpec.from_dict` of the
    per-line parser's value, in order, each access decodes a fresh one, and
    a rejected text raises the parser's error."""
    rng = random.Random(13)
    path = tmp_path / "episodes.jsonl"
    loaded = 0
    for case in range(300):
        text = _mutate(rng, rng.choice(dataset_texts))
        path.write_text(text)
        expected = _read_or_error(read_jsonl_by_line, text, EpisodeSpec.from_dict)
        try:
            specs = load_dataset(path)
        except ValueError as exc:
            assert expected == ("error", str(exc).removeprefix(f"{path} ")), case
            continue
        want = [s.to_dict() for s in expected]
        assert [s.to_dict() for s in specs] == want, (case, text[:200])
        assert [specs[i].to_dict() for i in range(len(specs))] == want
        assert [s.to_dict() for s in specs[1:3]] == want[1:3]
        if specs:  # each access decodes a fresh spec
            specs[0].agents.clear()
            assert specs[0].to_dict() == want[0]
        loaded += 1
    assert 40 < loaded < 300  # both loaded and rejected texts were compared


@pytest.mark.parametrize("text, values", [
    ("", []),
    ("{}", [{}]),
    ('{"a":1}\n[2]\n3\n', [{"a": 1}, [2], 3]),
    ('{"a":1}\n\n  \n3\n', [{"a": 1}, 3]),
    ('{"a":1}\r\n3', [{"a": 1}, 3]),
    (' {"a":"\u00e9"} \n', [{"a": "\u00e9"}]),
])
def test_reader_values(text, values):
    assert read_jsonl(text) == values


@pytest.mark.parametrize("text, message", [
    ('{"a":1}\n{"a":\n2}\n', "line 2: Expecting value"),
    ('{"a":1}{"b":2}\n', "line 1: Extra data"),
    ('{"a":1}\n{"b":"x\u2028y"}\n', "line 2: Unterminated string"),
    ('{"a":1}\n{"b":2', "line 2: Expecting ',' delimiter"),
])
def test_reader_errors_name_the_line(text, message):
    with pytest.raises(ValueError, match=message):
        read_jsonl(text)


def test_reader_names_the_line_a_conversion_rejects():
    text = '{"kind":"a"}\n{"kind":"b"}\n{}\n[1]\n'
    with pytest.raises(ValueError, match="^line 3: missing field 'kind'$"):
        read_jsonl_by_line(text, _kind)
    with pytest.raises(ValueError, match="^line 3: list indices"):
        read_jsonl_by_line(text.replace("{}\n", ""), _kind)


# -- writer ----------------------------------------------------------------------

# pieces of agent, kind, mode and key strings: quotes, backslashes, control
# characters, non-ASCII and the line breaks JSON leaves raw in other encoders
PIECES = ('"', "\\", "\n", "\r", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\u2029",
          "\U0001f600", "a0", "kind", "")
STEPS = (0, 1, -1, -40, 2**63, 2**64 + 1, -(2**63) - 1, True, False)
FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-7, 0.1, 1e300, 2.5)


def _dumps_lines(events) -> str:
    return "".join(json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n" for e in events)


def _text(rng) -> str:
    return "".join(rng.choice(PIECES) for _ in range(rng.randrange(4)))


def _value(rng, depth=0):
    if rng.random() < 0.01:  # values neither encoder takes: mixed-type keys under sort_keys, a set
        return rng.choice(({1: 0, "a": 1}, {1, 2}, {"k": {2.5: 1, "x": 2}}))
    choice = rng.randrange(9 if depth < 3 else 5)
    if choice == 0:
        return rng.choice(STEPS + (rng.randrange(-1000, 1000),))
    if choice == 1:
        return rng.choice(FLOATS)
    if choice == 2:
        return _text(rng)
    if choice == 3:
        return rng.choice((True, False, None))
    if choice == 4:
        return rng.choice(("move", "place", [], {}, ()))
    if choice in (5, 6):
        return {_text(rng): _value(rng, depth + 1) for _ in range(rng.randrange(4))}
    if choice == 7:
        return [_value(rng, depth + 1) for _ in range(rng.randrange(4))]
    return tuple(_value(rng, depth + 1) for _ in range(rng.randrange(4)))


def _action_payload(rng) -> dict:
    payload = {"action": {"kind": rng.choice(("move", "idle")), "target": [rng.randrange(9), 0, 1]},
               "mode": rng.choice(("standard", "recovering", _text(rng))),
               "obs_digest": rng.choice(("a6a948fa", _text(rng)))}
    choice = rng.randrange(8)
    if choice == 0:
        payload[rng.choice(("extra", _text(rng)))] = _value(rng)
    elif choice == 1:
        del payload[rng.choice(sorted(payload))]
    elif choice == 2:
        payload[rng.choice(("mode", "obs_digest"))] = rng.choice((None, 3, ["standard"], True))
    elif choice == 3:
        payload["action"] = _value(rng)
    return payload


def _event(rng) -> dict:
    kind = rng.choice(("action", "action", "outcome", "issue", _text(rng)))
    payload = _action_payload(rng) if kind == "action" else {
        _text(rng): _value(rng) for _ in range(rng.randrange(4))}
    event = {"step": rng.choice(STEPS + (rng.randrange(10**6),)), "agent": _text(rng),
             "kind": kind, "payload": payload}
    choice = rng.randrange(24)
    if choice < 2:  # an extra top-level key
        event[rng.choice(("extra", "", 7, "kind ", _text(rng)))] = _value(rng)
    elif choice < 4:  # a missing one
        del event[rng.choice(sorted(event))]
    elif choice < 6:  # a top-level value of another type
        key = rng.choice(("step", "agent", "kind", "payload"))
        event[key] = rng.choice((None, 2.5, 3, "3", [1], (), {"a": 1}, True))
    elif choice == 6:  # a cycle through the payload
        payload["self"] = rng.choice((payload, event, [payload]))
    elif choice == 7:  # one renamed, so four keys but not emit's four
        event[rng.choice(("extra", "Payload", _text(rng)))] = event.pop(rng.choice(sorted(event)))
    return event


def _written(events):
    try:
        return Trace(events).to_jsonl()
    except Exception as exc:  # the encoders' errors are compared by type
        return type(exc)


def _dumped(events):
    try:
        return _dumps_lines(events)
    except Exception as exc:
        return type(exc)


@pytest.mark.parametrize("accelerated", [True, False])
def test_writer_matches_json_dumps_on_random_events(monkeypatch, accelerated):
    general_calls = []
    general = agent._JSONL_ENCODER.encode

    def counted(value):
        general_calls.append(value)
        return general(value)

    monkeypatch.setattr(agent._JSONL_ENCODER, "encode", counted)
    if not accelerated:  # as on an interpreter without the C encoder
        monkeypatch.setattr(agent, "_JSONL_CHUNKS", agent._encode_whole)
    rng = random.Random(11)
    outcomes = []
    events_written = 0
    for case in range(1500):
        events = [_event(rng) for _ in range(rng.randrange(1, 6))]
        expected = _dumped(events)
        assert _written(events) == expected, (case, events)
        outcomes.append(expected)
        events_written += len(events)
    errors = sum(isinstance(o, type) for o in outcomes)
    assert {o for o in outcomes if isinstance(o, type)} == {TypeError, ValueError}
    assert 100 < errors < 750  # both written texts and raised errors were compared
    if accelerated:  # without it every payload goes through the general encoder
        assert 500 < len(general_calls) < events_written // 2  # both paths ran


@pytest.mark.skipif(agent._JSONL_CHUNKS is agent._encode_whole,
                    reason="without the C encoder every event "
                    "goes through the general encoder")
def test_every_seed0_event_takes_the_envelope_path(default_runs, monkeypatch):
    def refuse(value):
        raise AssertionError(f"general encoder called on {value!r}")

    monkeypatch.setattr(agent._JSONL_ENCODER, "encode", refuse)
    texts = [ep.trace.to_jsonl() for ep in default_runs]
    monkeypatch.undo()
    for ep, text in zip(default_runs, texts):
        assert text == _dumps_lines(ep.trace.events)
