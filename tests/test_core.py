from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flowseq.core import (
    IdOutOfRange,
    Problem,
    TaskKind,
    Trajectory,
    UnknownToken,
    Vocab,
    decode,
    encode,
    make_vocab,
    read_jsonl,
    write_jsonl,
)


def small_vocab() -> Vocab:
    return make_vocab(["SUM", ":", "1", "2", "3"])


def test_make_vocab_appends_stop_last():
    v = small_vocab()
    assert v.tokens[-1] == "<eos>"
    assert v.stop_id == v.size - 1
    assert v.size == 6


def test_make_vocab_rejects_duplicates():
    with pytest.raises(ValueError):
        make_vocab(["a", "a"])
    # an explicit stop symbol is allowed and not appended twice
    v = make_vocab(["a", "<eos>", "b"])
    assert v.stop_id == 1 and v.size == 3


def test_encode_decode_round_trip():
    v = small_vocab()
    text = "SUM 3 : 1 2"
    assert decode(encode(text, v), v) == text


@given(st.lists(st.sampled_from(["SUM", ":", "1", "2", "3"]), min_size=1, max_size=12))
def test_encode_decode_round_trip_random(units):
    v = small_vocab()
    text = " ".join(units)
    assert decode(encode(text, v), v) == text


def test_encode_unknown_token():
    with pytest.raises(UnknownToken):
        encode("SUM 9", small_vocab())


def test_decode_id_out_of_range():
    v = small_vocab()
    with pytest.raises(IdOutOfRange):
        decode([0, v.size], v)
    with pytest.raises(IdOutOfRange):
        decode([-1], v)


def test_vocab_content_hash_tracks_tokens():
    a = make_vocab(["x", "y"])
    b = make_vocab(["x", "y"])
    c = make_vocab(["x", "z"])
    assert a.content_hash() == b.content_hash()
    assert a.content_hash() != c.content_hash()


def test_problem_validation():
    with pytest.raises(ValueError):
        Problem(task_kind=TaskKind.SUMPATH, prompt_tokens=(), target=3,
                operands=(1, 2), max_solution_len=3)
    with pytest.raises(ValueError):
        Problem(task_kind=TaskKind.SUMPATH, prompt_tokens=(0,), target=3,
                operands=(0,), max_solution_len=3)
    # a target is a whole number; a rational one fails by name instead of being truncated
    for target in (Fraction(3, 2), 1.5, "3"):
        with pytest.raises(ValueError, match="target must be an int"):
            Problem(task_kind=TaskKind.SUMPATH, prompt_tokens=(0,), target=target,
                    operands=(1, 2), max_solution_len=3)


def test_trajectory_invariants():
    # the prompt is a non-empty part of the token sequence
    t = Trajectory(prompt_len=2, tokens=(0, 1, 2, 5), terminated=True)
    assert t.generated == (2, 5)
    assert Trajectory(prompt_len=3, tokens=[0, 1, 2], terminated=False).generated == ()
    for prompt_len in (0, 4):
        with pytest.raises(ValueError, match="prompt_len"):
            Trajectory(prompt_len=prompt_len, tokens=(0, 1, 2), terminated=False)


def test_jsonl_round_trip_and_key_order(tmp_path):
    rows = [{"b": 2, "a": 1}, {"z": "s", "a": [1, 2]}]
    p = tmp_path / "rows.jsonl"
    write_jsonl(p, rows)
    assert list(read_jsonl(p)) == rows
    # serialized keys are sorted so identical content is identical bytes
    first = p.read_text().splitlines()[0]
    assert first.index('"a"') < first.index('"b"')
