"""Repeat pairing and item votes on integer-coded columns against the
cell-by-cell walks of ``tests/oracles.py``."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relistab import (
    AnnotationRecord,
    LabelSchema,
    RepeatPair,
    RepeatPairs,
    build_repeat_pairs,
    interval_profile,
    validate_dataset,
)
from relistab.core import PAIRING_POLICIES
from relistab.errors import NoRepeatsError, RelistabError, ValidationError
from relistab.stability import item_votes, repeat_table

from conftest import make_rounds
from oracles import brute_item_votes, brute_repeat_pairs

SCHEMA = LabelSchema("t", ("x", "y", "z"))


@st.composite
def repeat_records(draw):
    """Records over some of the cells of 1-5 rounds, in random order, with an
    item ``a~1`` beside ``a``, and timestamps that mix None and numbers and
    now and then run backwards within a cell."""
    n_rounds = draw(st.integers(1, 5))
    cells = [(item, ann, rnd) for item in ("a", "a~1", "b", "c") for ann in ("p", "q", "r")
             for rnd in range(1, n_rounds + 1)]
    kept = draw(st.lists(st.sampled_from(cells), min_size=len(cells) // 3, max_size=len(cells),
                         unique=True))
    stamps = st.none() | st.integers(-150, 50) | st.floats(-150, 50)
    records = []
    for item, ann, rnd in draw(st.permutations(kept)):
        jitter = draw(stamps)
        records.append(AnnotationRecord("t", item, ann, rnd, draw(st.sampled_from("xyz")),
                                        None if jitter is None else rnd * 100 + jitter))
    return records


def outcome(fn):
    """fn()'s value, or the type and message of the RelistabError it raised."""
    try:
        return fn()
    except RelistabError as exc:
        return type(exc), str(exc)


@given(repeat_records(), st.sampled_from(PAIRING_POLICIES))
def test_pairs_match_the_cell_walk(records, pairing):
    aset = validate_dataset(records, SCHEMA)
    try:
        expected = [RepeatPair(*pair) for pair in brute_repeat_pairs(records, pairing)]
    except ValueError as exc:
        with pytest.raises(ValidationError) as raised:
            build_repeat_pairs(aset, pairing)
        assert str(raised.value) == str(exc)
        return
    if not expected:
        with pytest.raises(NoRepeatsError):
            build_repeat_pairs(aset, pairing)
        return
    pairs = build_repeat_pairs(aset, pairing)
    assert isinstance(pairs, RepeatPairs)
    assert pairs == expected and expected == pairs
    assert len(pairs) == len(expected) and list(pairs) == expected
    assert pairs[-1] == expected[-1] and pairs[1:] == expected[1:]
    assert RepeatPairs.of(expected) == pairs
    assert repeat_table(aset, pairs).count.tolist() == repeat_table(aset, expected).count.tolist()
    profile = outcome(lambda: interval_profile(pairs, bucket_edges=(30.0, 110.0), seed=3,
                                               permutation_replicates=20))
    assert profile == outcome(lambda: interval_profile(
        list(pairs), bucket_edges=(30.0, 110.0), seed=3, permutation_replicates=20))


@given(repeat_records())
def test_item_votes_match_the_cell_walk(records):
    aset = validate_dataset(records, SCHEMA)
    votes = item_votes(aset)
    expected = brute_item_votes(records)
    assert list(votes) == sorted(expected)
    assert {item: sorted(v) for item, v in votes.items()} == {
        item: sorted(v) for item, v in expected.items()}


def test_interval_profile_reads_pairs_and_lists_alike():
    aset = make_rounds(
        {"a": {1: ["x", "x", "y", "x"], 2: ["x", "y", "y", "x"], 3: ["y", "y", "y", "x"]},
         "b": {1: ["x", "y", "x", "x"], 2: ["x", "y", "y", "y"], 3: ["x", "x", "y", "y"]}},
        timestamps={1: 0.0, 2: 1800.0, 3: 1800.0 + 7200.0},
    )
    pairs = build_repeat_pairs(aset, "all_pairs")
    assert interval_profile(pairs, seed=11, permutation_replicates=50) == interval_profile(
        list(pairs), seed=11, permutation_replicates=50)


def test_repeat_pairs_index_like_a_list():
    expected = [RepeatPair("i0", "a", "x", "y", 1, 2, 5.0), RepeatPair("i1", "b", "y", "y", 1, 3)]
    pairs = RepeatPairs.of(expected)
    assert pairs == expected and pairs == tuple(expected) and pairs != expected[:1]
    assert pairs[0] == expected[0] and pairs[-2] == expected[0] and pairs[1] == expected[1]
    assert pairs[::-1] == expected[::-1] and pairs[2:] == []
    assert pairs.consistent.tolist() == [False, True]
    assert math.isnan(pairs.interval[1])
    with pytest.raises(IndexError):
        pairs[2]
    with pytest.raises(IndexError):
        pairs[-3]
    with pytest.raises(ValidationError):
        RepeatPairs.of([RepeatPair("i0", "a", "x", "y", 1, 2, float("nan"))])
    with pytest.raises(TypeError):
        hash(pairs)


def test_a_round_beyond_int64_still_pairs():
    huge = 2**70
    records = [AnnotationRecord("t", "i0", "a", rnd, "x") for rnd in (1, huge)]
    (pair,) = build_repeat_pairs(validate_dataset(records, SCHEMA))
    assert (pair.first_round, pair.second_round) == (1, huge)


def test_pairing_fills_no_cell_index():
    aset = make_rounds({"a": {1: ["x", "y"], 2: ["x", "x"]}})
    build_repeat_pairs(aset, "all_pairs")
    item_votes(aset)
    # a set holds its codes; columns and records are decoded only on demand
    assert set(vars(aset)) == {"schema", "codes"}
    assert np.array_equal(aset.codes.round, [0, 0, 1, 1])
