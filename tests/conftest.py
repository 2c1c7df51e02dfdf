"""Shared builders for the test suite."""

import os

import numpy as np
from hypothesis import settings

from relistab import AnnotationRecord, LabelSchema, RepeatPairs, validate_dataset

settings.register_profile("suite", deadline=None)
# HYPOTHESIS_PROFILE=ci runs the properties at depth and prints a blob that
# reproduces any failure with @reproduce_failure
settings.register_profile("ci", deadline=None, max_examples=1000, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "suite"))


def make_set(labels_by_ann, cats=("x", "y"), scale="nominal", numeric_values=None,
             task="t", round=1):
    """Single-round dataset from ``{annotator: [label-or-None per item]}``.

    Items are named i0..iN in list order; ``None`` entries are missing cells.
    """
    records = []
    for ann, labels in labels_by_ann.items():
        for i, lbl in enumerate(labels):
            if lbl is None:
                continue
            records.append(AnnotationRecord(task, f"i{i}", ann, round, lbl))
    schema = LabelSchema(task, tuple(cats), scale, numeric_values)
    return validate_dataset(records, schema)


def make_rounds(rounds_by_ann, cats=("x", "y"), scale="nominal", numeric_values=None,
                task="t", timestamps=None):
    """Multi-round dataset from ``{annotator: {round: [label-or-None per item]}}``.

    ``timestamps`` optionally maps round -> epoch seconds (same stamp for
    every record of that round).
    """
    records = []
    for ann, by_round in rounds_by_ann.items():
        for rnd, labels in by_round.items():
            ts = None if timestamps is None else timestamps.get(rnd)
            for i, lbl in enumerate(labels):
                if lbl is None:
                    continue
                records.append(AnnotationRecord(task, f"i{i}", ann, rnd, lbl, ts))
    schema = LabelSchema(task, tuple(cats), scale, numeric_values)
    return validate_dataset(records, schema)


def pair_tuples(pairs):
    """``RepeatPairs`` decoded into the tuples ``oracles.brute_repeat_pairs``
    returns, an interval of NaN as None."""
    return [(pairs.items[i], pairs.annotators[a], pairs.labels[l1], pairs.labels[l2],
             pairs.rounds[r1], pairs.rounds[r2], None if np.isnan(t) else t)
            for i, a, l1, l2, r1, r2, t in zip(*(getattr(pairs, name).tolist() for name in (
                "item", "annotator", "first_label", "second_label", "first_round",
                "second_round", "interval")))]


def timed_pairs(intervals, consistent):
    """``RepeatPairs`` of one cell with these intervals, labelled ``x, x``
    where ``consistent`` is true and ``x, y`` where not."""
    zeros = np.zeros(len(intervals), dtype=np.intp)
    return RepeatPairs(("i0",), ("a",), ("x", "y"), (1, 2), zeros, zeros, zeros,
                       np.logical_not(consistent) + zeros, zeros, zeros + 1, np.array(intervals))
