"""Repeat pairing and item votes on integer-coded columns against the
cell-by-cell walks of ``tests/oracles.py``."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relistab import (
    AnnotationRecord,
    LabelSchema,
    RepeatPairs,
    build_repeat_pairs,
    interval_profile,
    validate_dataset,
)
from relistab.core import PAIRING_POLICIES
from relistab.errors import NoRepeatsError, RelistabError, ValidationError
from relistab.stability import item_votes, repeat_table

from conftest import make_rounds, pair_tuples, timed_pairs
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
        expected = brute_repeat_pairs(records, pairing)
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
    assert len(pairs) == len(expected) and pair_tuples(pairs) == expected
    consistent = [l1 == l2 for _, _, l1, l2, *_ in expected]
    assert pairs.consistent.tolist() == consistent
    table, k = repeat_table(aset, pairs), len(SCHEMA.categories)
    assert Counter(tuple(pair[:4]) for pair in expected) == {
        (table.items[i], table.annotators[j // k**2], SCHEMA.categories[j // k % k],
         SCHEMA.categories[j % k]): n
        for i, j, n in zip(table.item.tolist(), table.joint.tolist(), table.count.tolist())}

    def profile(pairs):
        return outcome(lambda: interval_profile(pairs, bucket_edges=(30.0, 110.0), seed=3,
                                                permutation_replicates=20))

    hand_built = timed_pairs([np.nan if t is None else t for *_, t in expected], consistent)
    assert profile(pairs) == profile(hand_built)


@given(repeat_records())
def test_item_votes_match_the_cell_walk(records):
    aset = validate_dataset(records, SCHEMA)
    votes = item_votes(aset)
    expected = brute_item_votes(records)
    assert list(votes) == sorted(expected)
    assert {item: sorted(v) for item, v in votes.items()} == {
        item: sorted(v) for item, v in expected.items()}


def test_a_round_beyond_int64_still_pairs():
    huge = 2**70
    records = [AnnotationRecord("t", "i0", "a", rnd, "x") for rnd in (1, huge)]
    pairs = build_repeat_pairs(validate_dataset(records, SCHEMA))
    assert pair_tuples(pairs) == [("i0", "a", "x", "x", 1, huge, None)]


def test_a_label_outside_the_schema_keeps_its_own_code_in_the_repeat_table():
    # a set recoded under a schema without one of its labels codes that
    # label after the categories; its pairs count as that label's
    records = [AnnotationRecord("t", "i0", "a", rnd, label)
               for rnd, label in ((1, "x"), (2, "z"), (3, "z"))]
    aset = replace(validate_dataset(records, LabelSchema("t", ("x", "y", "z"))),
                   schema=LabelSchema("t", ("x", "y")))
    table = repeat_table(aset, build_repeat_pairs(aset))
    k = table.n_labels
    assert aset.codes.labels == ("x", "y", "z") and k == 3
    assert {(aset.codes.labels[j // k % k], aset.codes.labels[j % k]): n
            for j, n in zip(table.joint.tolist(), table.count.tolist())} == {
        ("x", "z"): 1, ("z", "z"): 1}
    assert table.item.tolist() == [0, 0]


def test_pairing_fills_no_cell_index():
    aset = make_rounds({"a": {1: ["x", "y"], 2: ["x", "x"]}})
    build_repeat_pairs(aset, "all_pairs")
    item_votes(aset)
    # a set holds its codes; columns and records are decoded only on demand
    assert set(vars(aset)) == {"schema", "codes"}
    assert np.array_equal(aset.codes.round, [0, 0, 1, 1])
