"""Shared builders for the test suite."""

import os

from hypothesis import settings

from relistab import AnnotationRecord, LabelSchema, validate_dataset

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


def brute_force_indexes(records):
    """(item, round) -> sorted [(annotator, label)] and (item, annotator) ->
    sorted [(round, label, timestamp)], built record by record with keys in
    the records' order."""
    by_item_round, by_cell = {}, {}
    for rec in records:
        by_item_round.setdefault((rec.item_id, rec.round), []).append(
            (rec.annotator_id, rec.label))
        by_cell.setdefault((rec.item_id, rec.annotator_id), []).append(
            (rec.round, rec.label, rec.timestamp))
    for entries in (*by_item_round.values(), *by_cell.values()):
        entries.sort()
    return by_item_round, by_cell


def assert_lookups_match(aset, records):
    """The set's public lookups, key order included, equal the ones
    :func:`brute_force_indexes` builds from ``records``, the set's records."""
    by_item_round, by_cell = brute_force_indexes(records)
    assert list(aset.cells().items()) == list(by_cell.items())
    for rounds in ([1], [2, 1], [1, 3], [3, 2, 1], [4], [1, 2, 3]):
        units = {key: entries for key, entries in by_item_round.items() if key[1] in rounds}
        assert list(aset.round_units(rounds).items()) == list(units.items())
        pooled = {}
        for rnd in rounds:
            for (item, r), entries in by_item_round.items():
                if r == rnd:
                    pooled.setdefault(item, []).extend(label for _, label in entries)
        assert list(aset.unit_labels(rounds).items()) == list(pooled.items())
    items = {item for item, _ in by_cell} | {"absent"}
    annotators = {annotator for _, annotator in by_cell} | {"absent"}
    for item in items:
        for annotator in annotators:
            history = by_cell.get((item, annotator), [])
            assert aset.cell_history(item, annotator) == history
            for rnd in range(5):
                found = [label for r, label, _ in history if r == rnd]
                assert aset.label(item, annotator, rnd) == (found[0] if found else None)
