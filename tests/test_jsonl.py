"""The JSONL reader behind `Trace.from_jsonl` and `load_dataset`.

`read_jsonl` decodes text in the trace format in one pass and sends any
other text to `read_jsonl_by_line`, the per-line parser. The fuzz below
mutates the seed-0 traces into shapes on both sides of that line and checks
that the two readers always agree: the same values, or the same ValueError.
"""

import random

import pytest

from gatecraft.agent import Trace, _read_jsonl_whole, read_jsonl, read_jsonl_by_line

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


def _read_or_error(read, text, convert=None):
    try:
        return read(text, convert)
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
        assert (_read_or_error(read_jsonl, text, _kind)
                == _read_or_error(read_jsonl_by_line, text, _kind)), (case, text[:200])
        if isinstance(expected, tuple):  # ("error", message)
            with pytest.raises(ValueError):
                Trace.from_jsonl(text)
        else:
            assert Trace.from_jsonl(text).events == expected
        fallbacks += _read_jsonl_whole(text) is None
    assert 100 < fallbacks < 500  # both paths were exercised


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
        read_jsonl(text, _kind)
    with pytest.raises(ValueError, match="^line 3: list indices"):
        read_jsonl(text.replace("{}\n", ""), _kind)
