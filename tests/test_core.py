import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relistab import (
    AnnotationRecord,
    AnnotationSet,
    LabelSchema,
    RecordColumns,
    build_repeat_pairs,
    coincidence_counts,
    krippendorff_alpha,
    normalize_label,
    resolve_rounds,
    validate_dataset,
)
from relistab.errors import (
    DegenerateError,
    DuplicateCellError,
    InvalidConfigError,
    NonFiniteError,
    NoRepeatsError,
    RelistabError,
    SchemaMismatchError,
    UnknownLabelError,
    ValidationError,
)

from relistab.core import RECORD_FIELDS, ColumnCodes, as_integer

from conftest import make_rounds, make_set, pair_tuples


def test_normalize_label_trims_and_composes():
    assert normalize_label("  yes ") == "yes"
    # e + combining acute composes to the single-codepoint form
    assert normalize_label("café") == "café"


class TestLabelSchema:
    def test_basic(self):
        schema = LabelSchema("t", ("x", "y"))
        assert schema.categories == ("x", "y")

    def test_categories_normalized(self):
        schema = LabelSchema("t", (" x ", "y"))
        assert schema.categories == ("x", "y")

    @pytest.mark.parametrize("cats", [("x",), ("x", "x"), ("x", " x "), ("x", "")])
    def test_bad_categories(self, cats):
        with pytest.raises(InvalidConfigError):
            LabelSchema("t", cats)

    def test_bad_scale_kind(self):
        with pytest.raises(InvalidConfigError):
            LabelSchema("t", ("x", "y"), "ratio")

    def test_interval_requires_numeric_values(self):
        with pytest.raises(InvalidConfigError):
            LabelSchema("t", ("x", "y"), "interval")
        with pytest.raises(InvalidConfigError):
            LabelSchema("t", ("x", "y"), "interval", {"x": 1.0})

    def test_interval_schema_and_its_sets_hash(self):
        schema = LabelSchema("t", ("x", "y"), "interval", {"x": 0, "y": 1})
        same = LabelSchema("t", ("x", "y"), "interval", {" y": 1.0, "x": 0.0})
        assert schema == same and hash(schema) == hash(same)
        recs = [AnnotationRecord("t", "i0", "a", 1, "x"), AnnotationRecord("t", "i0", "b", 1, "y")]
        aset = validate_dataset(recs, schema)
        assert hash(aset) == hash(validate_dataset(recs, same))
        assert len({aset, validate_dataset(recs, same)}) == 1

    def test_interval_numeric_lookup(self):
        schema = LabelSchema("t", ("x", "y"), "interval", {"x": 1, "y": 2.5})
        assert schema.numeric_value("y") == 2.5
        with pytest.raises(InvalidConfigError):
            schema.numeric_value("z")


class TestValidateDataset:
    def test_accepts_records_and_dicts(self):
        schema = LabelSchema("t", ("x", "y"))
        recs = [
            AnnotationRecord("t", "i0", "a", 1, "x"),
            {"task_id": "t", "item_id": "i0", "annotator_id": "b", "round": 1,
             "label": "y", "timestamp": 12.5},
        ]
        aset = validate_dataset(recs, schema)
        assert len(aset) == 2
        assert aset.records[1] == AnnotationRecord("t", "i0", "b", 1, "y", 12.5)

    def test_normalizes_labels(self):
        schema = LabelSchema("t", ("x", "y"))
        aset = validate_dataset([AnnotationRecord("t", "i0", "a", 1, " x ")], schema)
        assert aset.records[0].label == "x"

    def test_duplicate_cell(self):
        schema = LabelSchema("t", ("x", "y"))
        recs = [AnnotationRecord("t", "i0", "a", 1, "x"),
                AnnotationRecord("t", "i0", "a", 1, "y")]
        with pytest.raises(DuplicateCellError):
            validate_dataset(recs, schema)

    def test_unknown_label(self):
        schema = LabelSchema("t", ("x", "y"))
        with pytest.raises(UnknownLabelError):
            validate_dataset([AnnotationRecord("t", "i0", "a", 1, "z")], schema)

    def test_task_mismatch(self):
        schema = LabelSchema("t", ("x", "y"))
        with pytest.raises(SchemaMismatchError):
            validate_dataset([AnnotationRecord("u", "i0", "a", 1, "x")], schema)

    def test_round_must_be_positive(self):
        schema = LabelSchema("t", ("x", "y"))
        with pytest.raises(ValidationError):
            validate_dataset([AnnotationRecord("t", "i0", "a", 0, "x")], schema)

    @pytest.mark.parametrize("rnd", ["1", 1.0, True])
    def test_given_record_round_must_be_int(self, rnd):
        schema = LabelSchema("t", ("x", "y"))
        recs = [AnnotationRecord("t", "i0", "a", 1, "x"),
                AnnotationRecord("t", "i0", "b", rnd, "x")]
        with pytest.raises(ValidationError, match="record 1: round"):
            validate_dataset(recs, schema)

    def test_missing_field_in_dict(self):
        schema = LabelSchema("t", ("x", "y"))
        with pytest.raises(ValidationError):
            validate_dataset([{"task_id": "t", "item_id": "i0"}], schema)


class TestAnnotationSetAccessors:
    def test_sorted_views(self):
        aset = make_rounds({"b": {2: ["x"], 1: ["y"]}, "a": {1: ["x"]}})
        assert aset.items() == ("i0",)
        assert aset.annotators() == ("a", "b")
        assert aset.rounds() == (1, 2)


def test_resolve_rounds():
    aset = make_rounds({"a": {1: ["x"], 3: ["y"]}})
    assert resolve_rounds(aset, None) == (1, 3)
    assert resolve_rounds(aset, 3) == (3,)
    assert resolve_rounds(aset, [3, 1, 1]) == (1, 3)
    with pytest.raises(DegenerateError):
        resolve_rounds(aset, [])


@pytest.mark.parametrize("selector, resolved", [
    (np.int64(3), (3,)), ([np.int64(3), 1.0], (1, 3)), ("3", (3,)), (range(1, 3), (1, 2)),
])
def test_resolve_rounds_reads_each_round_as_an_integer(selector, resolved):
    assert resolve_rounds(make_rounds({"a": {1: ["x"], 3: ["y"]}}), selector) == resolved


@pytest.mark.parametrize("selector", [
    [1.5], 1.9, [1, 1.9], True, [True], "x", ["1", "y"], 2.5, [None], object(), "1_0", ["٣"],
])
def test_resolve_rounds_refuses_what_is_not_an_integer(selector):
    aset = make_rounds({"a": {1: ["x", "y"], 2: ["x", "y"]}, "b": {1: ["x", "y"]}})
    with pytest.raises(InvalidConfigError):
        resolve_rounds(aset, selector)
    with pytest.raises(InvalidConfigError):
        krippendorff_alpha(aset, rounds=selector)


@pytest.mark.parametrize("text, value", [
    ("01", 1), (" 2 ", 2), ("+3", 3), ("-4", -4), ("1_0", None), ("٣", None), ("１", None),
    ("1e3", None), ("1.5", None), ("", None),
])
def test_integer_text_is_ascii(text, value):
    """``int()`` alone reads ``1_0`` as 10 and other scripts' digits."""
    if value is None:
        with pytest.raises(ValueError):
            as_integer(text)
    else:
        assert as_integer(text) == value


class TestBuildRepeatPairs:
    def test_two_rounds_all_policies_agree(self):
        aset = make_rounds({"a": {1: ["x", "y"], 2: ["x", "x"]}})
        for pairing in ("consecutive", "first_last", "all_pairs"):
            pairs = build_repeat_pairs(aset, pairing)
            assert [(item, l1, l2) for item, _, l1, l2, *_ in pair_tuples(pairs)] == [
                ("i0", "x", "x"), ("i1", "y", "x")]
        assert pairs.consistent.tolist() == [True, False]

    def test_policies_differ_on_three_rounds(self):
        aset = make_rounds({"a": {1: ["x"], 2: ["y"], 3: ["x"]}})
        assert len(build_repeat_pairs(aset, "consecutive")) == 2
        assert len(build_repeat_pairs(aset, "first_last")) == 1
        assert len(build_repeat_pairs(aset, "all_pairs")) == 3
        first_last = build_repeat_pairs(aset, "first_last")
        assert pair_tuples(first_last) == [("i0", "a", "x", "x", 1, 3, None)]
        assert first_last.consistent.tolist() == [True]

    def test_interval_from_timestamps(self):
        aset = make_rounds({"a": {1: ["x"], 2: ["x"]}}, timestamps={1: 100.0, 2: 250.0})
        assert build_repeat_pairs(aset).interval.tolist() == [150.0]

    def test_interval_none_when_timestamp_missing(self):
        aset = make_rounds({"a": {1: ["x"], 2: ["x"]}}, timestamps={2: 250.0})
        (pair,) = pair_tuples(build_repeat_pairs(aset))
        assert pair[-1] is None

    def test_negative_interval_rejected(self):
        aset = make_rounds({"a": {1: ["x"], 2: ["x"]}}, timestamps={1: 300.0, 2: 250.0})
        with pytest.raises(ValidationError):
            build_repeat_pairs(aset)

    def test_no_repeats(self):
        aset = make_set({"a": ["x"], "b": ["y"]})
        with pytest.raises(NoRepeatsError):
            build_repeat_pairs(aset)

    def test_unknown_policy(self):
        aset = make_rounds({"a": {1: ["x"], 2: ["x"]}})
        with pytest.raises(InvalidConfigError):
            build_repeat_pairs(aset, "latest")


grids = st.integers(2, 4).flatmap(
    lambda n_ann: st.lists(
        st.lists(st.sampled_from(["x", "y", None]), min_size=n_ann, max_size=n_ann),
        min_size=1, max_size=5,
    )
)


@given(grids, st.integers(2, 4))
def test_repeat_pair_count_matches_multiround_cells(grid, n_rounds):
    """first_last yields exactly one pair per cell seen in >= 2 rounds."""
    records = []
    for i, row in enumerate(grid):
        for j, lbl in enumerate(row):
            if lbl is None:
                continue
            for rnd in range(1, n_rounds + 1):
                records.append(AnnotationRecord("t", f"i{i}", f"a{j}", rnd, lbl))
    aset = validate_dataset(records, LabelSchema("t", ("x", "y")))
    expected = sum(n >= 2 for n in Counter((r.item_id, r.annotator_id) for r in records).values())
    if expected == 0:
        with pytest.raises(NoRepeatsError):
            build_repeat_pairs(aset, "first_last")
    else:
        assert len(build_repeat_pairs(aset, "first_last")) == expected


@given(grids)
def test_coincidence_mass_equals_contributing_labels(grid):
    records = [
        AnnotationRecord("t", f"i{i}", f"a{j}", 1, lbl)
        for i, row in enumerate(grid)
        for j, lbl in enumerate(row)
        if lbl is not None
    ]
    aset = validate_dataset(records, LabelSchema("t", ("x", "y")))
    per_item = Counter(rec.item_id for rec in aset.records)
    expected = sum(n for n in per_item.values() if n >= 2)
    if expected == 0:
        with pytest.raises(DegenerateError):
            coincidence_counts(aset)
    else:
        matrix = coincidence_counts(aset)
        assert matrix.sum() == pytest.approx(expected, abs=1e-9)
        assert (matrix == matrix.T).all()


def test_annotation_set_equality_ignores_caches():
    schema = LabelSchema("t", ("x", "y"))
    recs = (AnnotationRecord("t", "i0", "a", 1, "x", 5.0),
            AnnotationRecord("t", "i1", "a", 1, "y"))
    aset = validate_dataset(recs, schema)
    assert aset.records == recs and len(aset.codes.cell_runs[0]) == 2
    assert aset == validate_dataset(recs, schema)
    assert aset == AnnotationSet(schema, aset.codes)
    assert aset != validate_dataset(recs[:1], schema)


#: labels as files carry them: composed or not, padded or not
LABEL_FORMS = {"x": ("x", " x", "x\t"), "\u00e9": ("\u00e9", "e\u0301", " e\u0301 ")}


@st.composite
def shuffled_sparse_records(draw):
    """Records over some of the (item, annotator, round) cells, in random
    order, with timestamps mixing None and numbers, label variants that
    normalise alike, and an item id ``a~1`` that a resampled ``a`` takes."""
    cells = [(item, ann, rnd) for item in ("a", "a~1", "b", "c")
             for ann in ("p", "q", "r") for rnd in (1, 2, 3)]
    kept = draw(st.lists(st.sampled_from(cells), max_size=len(cells), unique=True))
    labels = st.sampled_from(sorted(LABEL_FORMS)).flatmap(
        lambda label: st.sampled_from(LABEL_FORMS[label]))
    return [
        AnnotationRecord("t", item, ann, rnd, draw(labels),
                         draw(st.none() | st.integers(0, 10**9) | st.floats(0, 1e9)))
        for item, ann, rnd in draw(st.permutations(kept))
    ]


@given(shuffled_sparse_records())
def test_column_set_matches_record_by_record_build(records):
    aset = validate_dataset(records, LabelSchema("t", tuple(LABEL_FORMS)))
    expected = [AnnotationRecord(r.task_id, r.item_id, r.annotator_id, r.round,
                                 normalize_label(r.label), r.timestamp) for r in records]
    assert aset.records == tuple(expected)
    assert aset.items() == tuple(sorted({r.item_id for r in expected}))
    assert aset.annotators() == tuple(sorted({r.annotator_id for r in expected}))
    assert aset.rounds() == tuple(sorted({r.round for r in expected}))
    assert len(aset) == len(expected)
    assert aset == validate_dataset(expected, aset.schema)


def test_record_columns_read_as_records():
    records = [AnnotationRecord("t", "i0", "a", 1, "x", 5.0),
               AnnotationRecord("t", "i1", "b", 2, "y")]
    columns = RecordColumns.of(records)
    assert columns == records and records == columns
    assert columns == tuple(records)
    assert columns != records[:1]
    assert len(columns) == 2 and list(columns) == records
    assert columns[1] == records[1] and columns[-1] == records[-1]
    assert columns[:1] == records[:1]
    assert columns.item_id == ("i0", "i1") and columns.timestamp == (5.0, None)
    with pytest.raises(AttributeError):
        columns.item_id = ()
    with pytest.raises(ValueError):
        RecordColumns(("t",), (), (), (), (), ())


def test_annotation_set_keeps_working_with_replace():
    aset = make_rounds({"a": {1: ["x", "y"], 2: ["x", "x"]}}, timestamps={1: 1.0, 2: 2.0})
    schema = LabelSchema("t", ("x", "y", "z"))
    moved = replace(aset, schema=schema)
    assert moved.schema == schema and moved.codes.labels == schema.categories
    assert moved.records == aset.records
    swapped = replace(aset, schema=LabelSchema("t", ("y", "x")))
    assert swapped.codes.labels == ("y", "x") and swapped.records == aset.records
    assert moved != aset and replace(moved, schema=aset.schema) == aset


class TestHandBuiltColumns:
    """Hand-built RecordColumns give what the same records give as mappings:
    columns whose values are not of the types the readers return are
    converted, and the first faulty record is named."""

    SCHEMA = LabelSchema("t", ("x", "y"))

    def outcome(self, records):
        try:
            return validate_dataset(records, self.SCHEMA)
        except RelistabError as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize("rows, expected", [
        ([("t", "i0", "a", 1, "x", "garbage")],
         (ValidationError, "record 0: bad timestamp 'garbage'")),
        ([("t", 1, "a", 1, "x", None), ("t", "1", "b", 1, "y", None)], ("1",)),
        ([("t", None, "a", 1, "x", None)],
         (ValidationError, "record 0: missing field(s) ['item_id']")),
        ([("t", "i0", "a", 1, "x", None), ("t", "i1", "", 1, "x", None)],
         (ValidationError, "record 1: missing field(s) ['annotator_id']")),
        ([("t", "i0", "a", 1, "x", math.inf)],
         (NonFiniteError, "record 0: timestamp inf is not finite")),
        ([("t", "i0", "a", "1", "x", None)], ("i0",)),
    ], ids=["garbage stamp", "int and text ids", "None id", "empty id", "infinite stamp",
            "text round"])
    def test_columns_read_as_mappings_do(self, rows, expected):
        columns = RecordColumns(*zip(*rows))
        mine, theirs = self.outcome(columns), self.outcome(
            [dict(zip(RECORD_FIELDS, row)) for row in rows])
        assert mine == theirs
        assert (mine.items() if isinstance(mine, AnnotationSet) else mine) == expected

    def test_a_float_stamp_that_is_not_finite_names_its_record(self):
        """None is coded as NaN too; only a float that is not finite is refused,
        unless an earlier record has a fault of its own."""
        stamps = [1.0, None, None, -math.inf, math.nan]
        rows = [("t", f"i{k}", "a", 1, "x", stamp) for k, stamp in enumerate(stamps)]
        assert np.isnan(self.outcome(RecordColumns(*zip(*rows[:3]))).codes.timestamp[1:]).all()
        for drop, message in ((None, "record 3: timestamp -inf"), (3, "record 3: timestamp nan")):
            kept = [row for k, row in enumerate(rows) if k != drop]
            error, text = self.outcome(RecordColumns(*zip(*kept)))
            assert error is NonFiniteError and text.startswith(message)
        repeated = rows[:3] + [("t", "i0", "a", 1, "y", None)] + rows[3:]
        assert self.outcome(RecordColumns(*zip(*repeated)))[0] is DuplicateCellError


class TestFirstFaultInRecordOrder:
    """Every check runs a column at a time; the first faulty record still
    decides the error, and within a record the checks keep their order."""

    SCHEMA = LabelSchema("t", ("x", "y"))

    def rec(self, item="i0", ann="a", rnd=1, label="x", task="t"):
        return {"task_id": task, "item_id": item, "annotator_id": ann, "round": rnd,
                "label": label}

    @pytest.mark.parametrize("records, error, message", [
        # a later fault of an earlier kind does not win over an earlier record
        ([{"item_id": "i0"}, {"task_id": "u"}], ValidationError, "record 0: missing"),
        (["rec", "bad label", "missing"], UnknownLabelError, "'z'"),
        (["rec", "dup", "task"], DuplicateCellError, "'i0', 'a', 1"),
        (["round 0", "dup"], ValidationError, "round must be >= 1, got 0"),
        (["task", "bad label"], SchemaMismatchError, "'u'"),
        (["rec", "bad round text"], ValidationError, "record 1: round '1.5'"),
        (["rec", "not a mapping", "bad label"], ValidationError, "record 1: expected a mapping"),
        # within one record: task before label before round before duplicate
        (["rec", "all wrong"], SchemaMismatchError, "'u'"),
        (["rec", "label and round"], UnknownLabelError, "'z'"),
        # a repeat found on codes still names the first repeated cell
        (["rec", "other", "other dup", "dup"], DuplicateCellError, "'i8', 'b', 2"),
    ])
    def test_first_fault_wins(self, records, error, message):
        forms = {
            "rec": self.rec(),
            "bad label": self.rec(item="i1", label="z"),
            "missing": {"item_id": "i2"},
            "dup": self.rec(label="y"),
            "task": self.rec(item="i3", task="u"),
            "round 0": self.rec(item="i4", rnd=0),
            "bad round text": self.rec(item="i5", rnd="1.5"),
            "not a mapping": ["t", "i6", "a", 1, "x"],
            "all wrong": self.rec(task="u", label="z", rnd=0),
            "label and round": self.rec(item="i7", label="z", rnd=0),
            "other": self.rec(item="i8", ann="b", rnd=2),
            "other dup": self.rec(item="i8", ann="b", rnd=2, label="y"),
        }
        records = [forms.get(r, r) if isinstance(r, str) else r for r in records]
        with pytest.raises(error, match=message):
            validate_dataset(records, self.SCHEMA)

    def test_duplicate_cell_keys_that_would_pass_int64(self):
        """With 2**22 items, annotators and rounds a combined key passes
        2**64 and wraps; the (item, annotator) cells are renumbered first,
        so that (2**20, 0, 0) is not taken for a repeat of (0, 0, 0)."""
        many, zeros = range(2**22), np.zeros(3, dtype=np.int64)
        codes = ColumnCodes(many, many, many, ("x",), np.array([0, 2**20, 0]), zeros, zeros,
                            zeros, np.full(3, np.nan))
        assert codes.first_repeat() == 2
