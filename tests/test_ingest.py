import calendar
import codecs
import csv
import hashlib
import io
import json
import math
import re
import sys
from decimal import Decimal
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import coerce_record, rfc3339_seconds, timestamp_field
from relistab import (
    AnnotationRecord,
    LabelSchema,
    RationalisationRecord,
    RecordColumns,
    format_rfc3339,
    load_schema,
    parse_rfc3339,
    read_annotation_records,
    read_annotation_records_csv,
    read_annotation_records_jsonl,
    read_rationalisations_csv,
    save_schema,
    validate_dataset,
    write_annotations_csv,
    write_annotations_jsonl,
    write_rationalisations_csv,
)
from relistab import core, ingest
from relistab.core import RECORD_FIELDS as CSV_FIELDS
from relistab.core import coerce_record_columns
from relistab.errors import InvalidConfigError, NonFiniteError, ValidationError
from relistab.reporting import file_sha256


class TestRfc3339:
    def test_z_suffix(self):
        assert parse_rfc3339("1970-01-01T00:00:00Z") == 0.0
        assert parse_rfc3339("2020-09-13T12:26:40Z") == 1_600_000_000.0

    def test_numeric_offset(self):
        assert parse_rfc3339("2020-09-13T14:26:40+02:00") == 1_600_000_000.0

    def test_naive_is_utc(self):
        assert parse_rfc3339("1970-01-01T00:00:10") == 10.0

    def test_format_uses_z(self):
        assert format_rfc3339(1_600_000_000.0) == "2020-09-13T12:26:40Z"

    @pytest.mark.parametrize("stamp", [253_402_300_800.0, 3e11, -62_135_596_801.0, 1e308,
                                       float("nan")])
    def test_format_refuses_stamps_outside_years_1_to_9999(self, tmp_path, stamp):
        with pytest.raises(ValidationError, match="outside years 0001-9999"):
            format_rfc3339(stamp)
        with pytest.raises(ValidationError, match="outside years 0001-9999"):
            write_annotations_csv([AnnotationRecord("t", "i", "a", 1, "x", stamp)],
                                  tmp_path / "ann.csv")

    def test_bad_text(self):
        with pytest.raises(ValidationError):
            parse_rfc3339("not a time")

    @given(st.integers(0, 4_000_000_000), st.integers(0, 999))
    def test_round_trip(self, seconds, millis):
        stamp = seconds + millis / 1000.0
        assert parse_rfc3339(format_rfc3339(stamp)) == pytest.approx(stamp, abs=1e-6)


record_lists = st.lists(
    st.builds(
        AnnotationRecord,
        task_id=st.just("t"),
        item_id=st.sampled_from(["i0", "i1", "café"]),
        annotator_id=st.sampled_from(["a", "b", "c"]),
        round=st.integers(1, 3),
        label=st.sampled_from(["x", "y"]),
        timestamp=st.one_of(st.none(), st.integers(0, 2_000_000_000).map(float)),
    ),
    max_size=12,
    unique_by=lambda r: (r.item_id, r.annotator_id, r.round),
)


@given(record_lists)
def test_csv_round_trip(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("csv") / "ann.csv"
    write_annotations_csv(records, path)
    assert read_annotation_records_csv(path) == records


@given(record_lists)
def test_jsonl_round_trip(tmp_path_factory, records):
    path = tmp_path_factory.mktemp("jsonl") / "ann.jsonl"
    write_annotations_jsonl(records, path)
    assert read_annotation_records_jsonl(path) == records


def test_round_trip_preserves_validated_set(tmp_path):
    schema = LabelSchema("t", ("x", "y"))
    records = [
        AnnotationRecord("t", "i0", "a", 1, "x", 100.0),
        AnnotationRecord("t", "i0", "a", 2, "y", 200.0),
        AnnotationRecord("t", "i1", "b", 1, "y"),
    ]
    original = validate_dataset(records, schema)
    path = tmp_path / "ann.csv"
    write_annotations_csv(original, path)
    again = validate_dataset(read_annotation_records(path), schema)
    assert again.records == original.records


def test_extension_dispatch(tmp_path):
    records = [AnnotationRecord("t", "i0", "a", 1, "x")]
    write_annotations_jsonl(records, tmp_path / "ann.ndjson")
    write_annotations_csv(records, tmp_path / "ann.csv")
    assert read_annotation_records(tmp_path / "ann.ndjson") == records
    assert read_annotation_records(tmp_path / "ann.csv") == records


def _read_one(fmt, tmp_path, **fields):
    """One record with ``fields`` overridden, read as CSV, JSONL or a mapping."""
    row = {"task_id": "t", "item_id": "i0", "annotator_id": "a", "round": 1,
           "label": "x", **fields}
    if fmt == "mapping":
        return validate_dataset([row], LabelSchema("t", ("x", "y"))).records[0]
    path = tmp_path / f"ann.{fmt}"
    if fmt == "csv":
        path.write_text(",".join(row) + "\n" + ",".join(map(str, row.values())) + "\n")
    else:
        path.write_text(json.dumps(row) + "\n")
    (record,) = read_annotation_records(path)
    return record


@pytest.mark.parametrize("fmt", ["csv", "jsonl", "mapping"])
def test_field_forms_agree_across_formats(tmp_path, fmt):
    assert _read_one(fmt, tmp_path, timestamp=1600000000.5).timestamp == 1_600_000_000.5
    assert _read_one(fmt, tmp_path, timestamp="1700000000").timestamp == 1_700_000_000.0
    stamp = _read_one(fmt, tmp_path, timestamp="2020-09-13T12:26:40Z").timestamp
    assert stamp == 1_600_000_000.0
    assert _read_one(fmt, tmp_path, timestamp="").timestamp is None
    assert _read_one(fmt, tmp_path, round="2").round == 2
    for bad_round in (1.5, "1.5"):
        with pytest.raises(ValidationError, match="not an integer"):
            _read_one(fmt, tmp_path, round=bad_round)
    for bad_stamp in (float("nan"), "inf", "-inf"):
        with pytest.raises(NonFiniteError):
            _read_one(fmt, tmp_path, timestamp=bad_stamp)
    where = "record 0" if fmt == "mapping" else f"ann.{fmt}:{2 if fmt == 'csv' else 1}"
    with pytest.raises(ValidationError, match=where):
        _read_one(fmt, tmp_path, timestamp="yesterday")


def test_csv_header_errors(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("task_id,item_id,annotator_id,round\nt,i0,a,1\n")
    with pytest.raises(ValidationError):
        read_annotation_records_csv(path)
    path.write_text(
        "task_id,item_id,annotator_id,round,label,mood\nt,i0,a,1,x,great\n"
    )
    with pytest.raises(ValidationError):
        read_annotation_records_csv(path)


def test_csv_blank_required_field(tmp_path):
    path = tmp_path / "ann.csv"
    path.write_text("task_id,item_id,annotator_id,round,label\nt,,a,1,x\n")
    with pytest.raises(ValidationError):
        read_annotation_records_csv(path)


def test_jsonl_bad_line(tmp_path):
    path = tmp_path / "ann.jsonl"
    path.write_text('{"task_id": "t"\n')
    with pytest.raises(ValidationError):
        read_annotation_records_jsonl(path)


def test_schema_round_trip(tmp_path):
    schema = LabelSchema("t", ("lo", "mid", "hi"), "interval",
                         {"lo": 0, "mid": 1, "hi": 2.5})
    path = tmp_path / "schema.json"
    save_schema(schema, path)
    assert load_schema(path) == schema


@pytest.mark.parametrize("text", [
    '{"task_id": "t", "categories": 5}',
    '{"task_id": "t", "categories": null}',
    '{"task_id": "t", "categories": "xy"}',
    '{"task_id": "t", "categories": ["x", "y"], "numeric_values": [1, 2]}',
    '{"task_id": "t", "categories": ["x", "y"], "numeric_values": {"x": null, "y": 1}}',
    '{"task_id": "t", "categories": ["x", "y"], "numeric_values": {"x": "a", "y": 1}}',
    '{"task_id": "t", "categories": ["x", "y"], "numeric_values": {"x": NaN, "y": 1}}',
    '{"task_id": "t", "categories": ["x", "y"], "numeric_values": {"x": true, "y": 1}}',
    pytest.param("[" * 100_000 + "]" * 100_000, id="deep"),
])
def test_malformed_schema_is_invalid_config(tmp_path, text):
    path = tmp_path / "schema.json"
    path.write_text(text)
    with pytest.raises(InvalidConfigError):
        load_schema(path)


def test_rationalisations_round_trip(tmp_path):
    records = [
        RationalisationRecord("i0", "r1", "subjective"),
        RationalisationRecord("i0", "r2", "ambiguous"),
        RationalisationRecord("i1", "r1", "difficult"),
    ]
    path = tmp_path / "rat.csv"
    write_rationalisations_csv(records, path)
    assert read_rationalisations_csv(path) == records


def test_rationalisations_header_check(tmp_path):
    path = tmp_path / "rat.csv"
    path.write_text("item,rater,label\ni0,r1,subjective\n")
    with pytest.raises(ValidationError):
        read_rationalisations_csv(path)


def row_by_row_csv(path):
    """The CSV rows as ``csv.DictReader`` yields them, each through
    ``coerce_record``: the row-at-a-time reading the column reader must
    match, line numbers (the physical line a row ends on) and messages
    included."""
    records = []
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            try:
                records.append(coerce_record(row))
            except ValidationError as exc:
                raise type(exc)(f"{path}:{reader.line_num}: {exc}") from exc
    return records


def row_by_row_jsonl(path):
    records = []
    with open(path, encoding="utf-8-sig") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                records.append(coerce_record(json.loads(line)))
            # json raises a plain ValueError for an integer past the digit limit
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: invalid JSON") from exc
            except ValidationError as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from exc
    return records


def outcome(read, path):
    try:
        return list(read(path))
    except ValidationError as exc:
        return type(exc), str(exc)


#: field text a CSV cell may hold, good and bad
CELL_TEXT = st.sampled_from(
    ["t", "i0", "i1", "a", "b", "1", "2", "01", " 2 ", "1.5", "x", "", "nan", "1e3",
     "2020-09-13T12:26:40Z", "2020-09-13T12:26:40", "1700000000", "inf", "yesterday"])

#: values each field takes in a record that reads without error
GOOD = {"task_id": ["t"], "item_id": ["i0", "i1", "i2"], "annotator_id": ["a", "b"],
        "round": ["1", "2", "01", " 2 "], "label": ["x", "y", " x"],
        "timestamp": ["", "1700000000", "2020-09-13T12:26:40Z", "2020-09-13T12:26:40"]}

#: what happens to a row: mostly nothing, else one fault of a kind
ROW_EDIT = st.sampled_from(["none", "none", "none", "value", "short", "long", "blank"])


@st.composite
def csv_files(draw):
    """A header (any column order, with or without timestamps) and rows
    that read cleanly but for the odd bad value, short, long or blank row."""
    header = [f for f in draw(st.permutations(CSV_FIELDS))
              if f != "timestamp" or draw(st.booleans())]
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        row = [draw(st.sampled_from(GOOD[f])) for f in header]
        edit = draw(ROW_EDIT)
        if edit == "value":
            row[draw(st.integers(0, len(row) - 1))] = draw(CELL_TEXT)
        elif edit == "short":
            row = row[:draw(st.integers(1, len(row) - 1))]
        elif edit == "long":
            row += draw(st.lists(CELL_TEXT, min_size=1, max_size=2))
        elif edit == "blank":
            row = []
        rows.append(row)
    return [header, *rows]


@given(csv_files())
def test_csv_columns_match_row_by_row_reading(tmp_path_factory, table):
    """Blank rows are skipped and not counted, a short row is missing its
    last fields, extra trailing values are ignored; the first faulty row
    raises the error row-by-row reading raises."""
    path = tmp_path_factory.mktemp("csv") / "ann.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(table)
    assert outcome(read_annotation_records_csv, path) == outcome(row_by_row_csv, path)


#: JSON values a field may hold; ``True``, ``1`` and ``1.0`` are equal keys
JSON_VALUE = st.one_of(st.none(), st.booleans(), st.sampled_from([1, 2, 1.0, 2.5, -1]),
                       st.floats(allow_nan=True), CELL_TEXT, st.lists(st.integers(), max_size=1))


@st.composite
def jsonl_lines(draw):
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        obj = {f: draw(st.sampled_from(GOOD[f])) for f in CSV_FIELDS}
        edit = draw(ROW_EDIT)
        if edit == "value":
            obj[draw(st.sampled_from(CSV_FIELDS))] = draw(JSON_VALUE)
        elif edit == "short":
            del obj[draw(st.sampled_from(CSV_FIELDS))]
        elif edit == "long":
            obj = draw(st.sampled_from(["{", "[1]", "3", '"t"', "{}", "NaN"]))
        lines.append("  " if edit == "blank" else obj if isinstance(obj, str) else json.dumps(obj))
    return lines


@given(jsonl_lines())
def test_jsonl_columns_match_row_by_row_reading(tmp_path_factory, lines):
    path = tmp_path_factory.mktemp("jsonl") / "ann.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert outcome(read_annotation_records_jsonl, path) == outcome(row_by_row_jsonl, path)


def test_csv_reader_error_is_a_validation_error(tmp_path):
    path = tmp_path / "ann.csv"
    huge = "x" * (csv.field_size_limit() + 1)
    path.write_text(f"{','.join(CSV_FIELDS)}\nt,i0,a,1,x,\nt,i1,a,1,{huge},\n")
    with pytest.raises(ValidationError, match="ann.csv:3: field larger than field limit"):
        read_annotation_records_csv(path)
    path.write_text(f"{','.join(CSV_FIELDS)}\nt,i0,a,1.5,x,\nt,i1,a,1,{huge},\n")
    with pytest.raises(ValidationError, match="ann.csv:2: round"):
        read_annotation_records_csv(path)


def test_readers_return_record_sequences(tmp_path):
    records = [AnnotationRecord("t", "i0", "a", 1, "x", 100.0),
               AnnotationRecord("t", "i0", "b", 1, "y")]
    write_annotations_csv(records, tmp_path / "ann.csv")
    write_annotations_jsonl(records, tmp_path / "ann.jsonl")
    for read, name in ((read_annotation_records_csv, "ann.csv"),
                       (read_annotation_records_jsonl, "ann.jsonl")):
        columns = read(tmp_path / name)
        assert isinstance(columns, RecordColumns)
        assert len(columns) == 2 and columns[1] == records[1] and list(columns) == records
        assert columns.annotator_id == ("a", "b")


@pytest.mark.parametrize("rounds, bad", [([1, 1.0, True], "True"), ([2, 1, True], "True"),
                                         ([1.0, 2, True], "True")])
def test_bool_round_is_refused_beside_equal_numbers(tmp_path, rounds, bad):
    """``True == 1 == 1.0`` as keys, so values converted once per distinct
    value must not let a bool round through on an equal number's result."""
    rows = [{"task_id": "t", "item_id": f"i{k}", "annotator_id": "a", "round": rnd,
             "label": "x"} for k, rnd in enumerate(rounds)]
    line = 1 + next(k for k, rnd in enumerate(rounds) if type(rnd) is bool)
    path = tmp_path / "ann.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    with pytest.raises(ValidationError, match=f"ann.jsonl:{line}: round {bad} is not"):
        read_annotation_records_jsonl(path)
    with pytest.raises(ValidationError, match=f"record {line - 1}: round {bad} is not"):
        validate_dataset(rows, LabelSchema("t", ("x", "y")))


#: years the leap rule and the calendar's ends turn on, and any other
YEARS = st.one_of(st.sampled_from([1, 1900, 1970, 2000, 2023, 2024, 9999]),
                  st.integers(1, 9999))


@st.composite
def canonical_stamps(draw):
    """Text of the canonical shape with a real date and time of day."""
    year, month = draw(YEARS), draw(st.one_of(st.just(2), st.integers(1, 12)))
    last = calendar.monthrange(year, month)[1]
    day = draw(st.one_of(st.just(last), st.integers(1, last)))
    return "{:04d}-{:02d}-{:02d}{}{:02d}:{:02d}:{:02d}{}".format(
        year, month, day, draw(st.sampled_from("Tt ")), draw(st.integers(0, 23)),
        draw(st.integers(0, 59)), draw(st.integers(0, 59)),
        draw(st.sampled_from(["", "Z", "z", "+00:00"])))


#: one field of canonical text set out of range: (position, text)
BAD_FIELDS = [(0, "0000"), (5, "00"), (5, "13"), (5, "99"), (8, "00"), (8, "32"), (11, "24"),
              (11, "99"), (14, "60"), (17, "60"), (17, "99")]


@st.composite
def near_stamps(draw):
    """Canonical text with one change: a field out of range, a day past
    its month's end (Feb 29 of any year among them), another separator or
    suffix, a character that is no ASCII digit, padding or a cut."""
    text = draw(canonical_stamps())
    kind = draw(st.sampled_from(["field", "month end", "sep", "suffix", "digit", "pad", "cut"]))
    if kind == "field":
        at, field = draw(st.sampled_from(BAD_FIELDS))
        text = text[:at] + field + text[at + len(field):]
    elif kind == "month end":
        year = draw(st.one_of(st.sampled_from([1900, 2000, 2023, 2024, 2100]), YEARS))
        month = draw(st.one_of(st.just(2), st.integers(1, 12)))
        day = calendar.monthrange(year, month)[1] + draw(st.integers(1, 2))
        text = f"{year:04d}-{month:02d}-{day:02d}" + text[10:]
    elif kind == "sep":
        text = text[:10] + draw(st.sampled_from(["x", "_", "/", "\x00", "T\u0301"])) + text[11:]
    elif kind == "suffix":
        text = text[:19] + draw(st.sampled_from([
            "-00:00", "+05:30", "-08:00", "+00:30", ".5", ".250Z", ".000001+00:00", "+00:00:00",
            "ZZ", "+0000", "Z ", "\x00", "Z\x00", "+00:00\x00", "UTC"]))
    elif kind == "digit":
        at = draw(st.sampled_from([0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]))
        text = text[:at] + draw(st.sampled_from(["٣", "３", "a", "+", " ", "-", "\x00"])) \
            + text[at + 1:]
    elif kind == "pad":
        pad = draw(st.sampled_from([" ", "\t", "\n", "\u00a0"]))
        text = draw(st.sampled_from([pad + text, text + pad]))
    else:
        text = draw(st.sampled_from([text[:-1], text[1:], text[:10]]))
    return text


@st.composite
def rfc3339_texts(draw):
    """RFC 3339 ``date-time`` text in any form the grammar has: a fraction
    of 1-9 digits or none, any suffix, sometimes padded."""
    text = draw(canonical_stamps())[:19]
    if draw(st.booleans()):
        text += "." + draw(st.text("0123456789", min_size=1, max_size=9))
    text += draw(st.one_of(st.sampled_from(["", "Z", "z"]), st.builds(
        "{}{:02d}:{:02d}".format, st.sampled_from("+-"), st.integers(0, 23), st.integers(0, 59))))
    pad = draw(st.sampled_from(["", "", " ", "\t", "\u3000"]))
    return pad + text + pad


#: text at the edges of the grammar
EDGE_STAMPS = (
    "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z", "1970-01-01 00:00:00",
    "2000-02-29t12:00:00z", "2024-02-29T00:00:00+00:00", "2023-01-01T00:00:00",
    "1900-02-29T00:00:00Z", "2100-02-29T00:00:00Z",
    "2023-02-29T00:00:00Z", "2024-02-30T00:00:00Z",
    "2023-04-31T00:00:00Z", "2023-12-32T00:00:00Z",
    "0000-01-01T00:00:00Z", "2023-00-01T00:00:00Z",
    "2023-13-01T00:00:00Z", "2023-01-00T00:00:00Z",
    "2023-01-01T24:00:00Z", "2023-01-01T23:60:00Z",
    "2023-01-01T23:59:60Z", "2023-01-01x00:00:00Z",
    "2023-01-01T00:00:00\x00", "2023-01-01T00:00:0\x00",
    "2023-01-01T00:00:00-00:00", "2023-01-01T00:00:00+05:30",
    "2023-01-01T00:00:00.5Z", " 2023-01-01T00:00:00Z",
    "2023-01-01T00:00:00Z ", "٢٠٢٣-01-01T00:00:00Z",
)


#: what a timestamp column may hold besides such text
OTHER_STAMPS = st.one_of(
    st.none(), st.sampled_from(["", "  ", "1700000000", " 1700000000 ", "1e3", "-5", "nan",
                                "inf", "x", "12:00", "2024-02-29", "２０２４-02-29T00:00:00",
                                "1_700_000_000", "١٧٠٠٠٠٠٠٠٠"]),
    st.integers(-10**12, 10**12), st.floats(allow_nan=True), st.booleans())

#: timestamp column values, canonical text most often
STAMP_VALUES = st.one_of(canonical_stamps(), canonical_stamps(), rfc3339_texts(),
                         near_stamps(), st.sampled_from(EDGE_STAMPS), OTHER_STAMPS)


def per_value(column):
    """The oracle's reading of each value up to the first it refuses, and
    the refusal the package must give for it as ``(position, type,
    message)``."""
    stamps = []
    for position, value in enumerate(column):
        try:
            stamp = timestamp_field(value)
        except (TypeError, ValueError, OverflowError):
            return stamps, (position, ValidationError, f"bad timestamp {value!r}")
        if stamp is not None and not math.isfinite(stamp):
            return stamps, (position, NonFiniteError, f"timestamp {value!r} is not finite")
        stamps.append(stamp)
    return stamps, None


def rfc3339_or_none(value):
    """The oracle's seconds for RFC 3339 text, None for any other value."""
    try:
        return rfc3339_seconds(value) if isinstance(value, str) else None
    except ValueError:
        return None


def decoded(column):
    """The block decoder's seconds for each value, stripped, None where it
    refuses it."""
    texts = [value.strip() if isinstance(value, str) else "" for value in column]
    ok, seconds = core._rfc3339_seconds(texts, np.array([len(t) for t in texts], dtype=np.int64))
    return [stamp if taken else None for taken, stamp in zip(ok.tolist(), seconds.tolist())]


@settings(max_examples=400)
@given(st.lists(STAMP_VALUES, max_size=24))
def test_block_decode_matches_the_oracle(column):
    """The block decoder reads the text the oracle reads, to the same
    float, and refuses the rest."""
    assert decoded(column) == list(map(rfc3339_or_none, column))


def test_edge_stamps_match_the_oracle():
    assert decoded(list(EDGE_STAMPS)) == list(map(rfc3339_or_none, EDGE_STAMPS))


@given(st.lists(st.one_of(canonical_stamps(), rfc3339_texts()), max_size=24))
def test_canonical_text_is_all_decoded(column):
    assert None not in decoded(column)


@example("2488-07-14T19:48:49.936711Z")
@example("1600-01-01T00:00:00.000001+23:59")
@given(rfc3339_texts())
def test_rfc3339_text_matches_the_oracle(text):
    """``==`` floats, also past 2**53 microseconds from the epoch, where a
    float64 path rounds twice."""
    assert parse_rfc3339(text) == rfc3339_seconds(text)


#: RFC 3339 forms and the seconds each reads as, None where it is refused;
#: the same on every Python
RFC3339_FORMS = {
    "2023-01-01T00:00:00Z": 1672531200.0,
    "2023-01-01t00:00:00z": 1672531200.0,
    "2023-01-01 00:00:00": 1672531200.0,
    "2023-01-01T00:00:00+00:00": 1672531200.0,
    "2023-01-01T00:00:00-00:00": 1672531200.0,
    "2023-01-01T05:30:00+05:30": 1672531200.0,
    "2022-12-31T23:00:00-01:00": 1672531200.0,
    "2023-01-01T00:00:00.5Z": 1672531200.5,
    "2023-01-01T00:00:00.25": 1672531200.25,
    "2023-01-01T00:00:00.123456789Z": 1672531200.123456,
    "2023-01-01T00:00:00.9999999Z": 1672531200.999999,
    "2023-01-01T00:00:00.000001+23:59": 1672444860.000001,
    " 2023-01-01T00:00:00Z\n": 1672531200.0,
    "0001-01-01T00:00:00Z": -62135596800.0,
    "0001-01-01T00:00:00+01:00": -62135600400.0,
    "9999-12-31T23:59:59Z": 253402300799.0,
    "9999-12-31T23:59:59.999999-23:59": 253402387140.0,
    "2024-02-29T12:00:00Z": 1709208000.0,
    "2000-02-29T00:00:00Z": 951782400.0,
    "2488-07-14T19:48:49.936711Z": 16363453729.93671,
    "2023-01-01": None,
    "2023-01-01T00": None,
    "2023-01-01T00:00Z": None,
    "20230101T000000Z": None,
    "2023-W01-1T00:00:00Z": None,
    "2023-01-01x00:00:00Z": None,
    "2023-01-01T00:00:00+0530": None,
    "2023-01-01T00:00:00+05:30:00": None,
    "2023-01-01T00:00:00,5Z": None,
    "2023-01-01T00:00:00.Z": None,
    "2023-01-01T00:00:00ZZ": None,
    "2023-01-01T00:00:00+05:3Z": None,
    "2023-01-01T23:59:60Z": None,
    "2023-01-01T24:00:00Z": None,
    "1900-02-29T00:00:00Z": None,
    "0000-01-01T00:00:00Z": None,
    "2023-01-01T00:00:00+24:00": None,
    "2023-01-01T00:00:00+05:60": None,
    "٢٠٢٣-01-01T00:00:00Z": None,
}


@pytest.mark.parametrize("text, seconds", RFC3339_FORMS.items())
def test_rfc3339_forms(text, seconds):
    """Each form reads to its seconds, or is refused, by the oracle, by
    ``parse_rfc3339`` and in a timestamp column."""
    assert rfc3339_or_none(text) == seconds
    columns, error = coerce_record_columns(RecordColumns(["t"], ["i"], ["a"], [1], ["x"], [text]))
    if seconds is None:
        with pytest.raises(ValidationError, match="bad RFC 3339 timestamp"):
            parse_rfc3339(text)
        assert (error[0], str(error[1])) == (0, f"bad timestamp {text!r}")
    else:
        assert parse_rfc3339(text) == seconds
        assert error is None and columns.timestamp == (seconds,)


@pytest.mark.parametrize("text, seconds", [
    ("1700000000", 1.7e9), (" 1700000000 ", 1.7e9), ("1e3", 1000.0), ("-5", -5.0),
    ("1_700_000_000", None), ("١٧٠٠٠٠٠٠٠٠", None), ("１７", None), ("1\u00a0000", None),
])
def test_number_text_is_ascii(text, seconds):
    """Epoch seconds as text are ASCII without ``_``, as integer text is."""
    columns, error = coerce_record_columns(RecordColumns(["t"], ["i"], ["a"], [1], ["x"], [text]))
    if seconds is None:
        assert str(error[1]) == f"bad timestamp {text!r}"
    else:
        assert error is None and columns.timestamp == (seconds,)


@given(st.lists(STAMP_VALUES, max_size=24), st.integers(1, 6))
def test_timestamp_column_matches_per_value_coercion(column, block):
    """The block decode of canonical text and the per-value path of every
    other value give the floats and the first refusal a per-value loop
    gives, whatever the block size."""
    n = len(column)
    with mock.patch.object(core, "TIMESTAMP_BLOCK", block):
        columns, error = coerce_record_columns(
            RecordColumns(["t"] * n, ["i"] * n, ["a"] * n, [1] * n, ["x"] * n, column))
    stamps, refusal = per_value(column)
    assert columns.timestamp == tuple(stamps)
    assert [type(s) for s in columns.timestamp] == [type(s) for s in stamps]
    assert (error and (error[0], type(error[1]), str(error[1]))) == refusal


def test_canonical_stamps_skip_the_per_value_path(tmp_path, monkeypatch):
    """A file of canonical stamps over several blocks is read without one
    ``_coerce_timestamp`` call, and naive text reads as UTC."""
    rng = np.random.default_rng(3)
    seconds = rng.integers(-62_135_596_800, 253_402_300_800, 3 * core.TIMESTAMP_BLOCK)
    texts = np.datetime_as_string(seconds.astype("datetime64[s]"), unit="s").tolist()
    forms = ["{}Z", "{}z", "{}+00:00", "{}", "{}Z"]
    texts = [forms[k % 5].format(t.replace("T", "Tt "[k % 3])) for k, t in enumerate(texts)]
    path = tmp_path / "ann.csv"
    path.write_text(",".join(CSV_FIELDS) + "\n" + "".join(
        f"t,i{k},a,1,x,{text}\n" for k, text in enumerate(texts)), encoding="utf-8")
    calls = []
    real = core._coerce_timestamp
    monkeypatch.setattr(core, "_coerce_timestamp", lambda value: calls.append(value) or real(value))
    columns = read_annotation_records_csv(path)
    assert calls == []
    assert columns.timestamp == tuple(seconds.astype(float).tolist())
    assert columns.timestamp == tuple(map(parse_rfc3339, texts))


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_bad_stamp_past_the_first_block_names_its_line(tmp_path, fmt):
    rows = [{"task_id": "t", "item_id": f"i{k}", "annotator_id": "a", "round": 1, "label": "x",
             "timestamp": "2023-02-28T00:00:00Z"} for k in range(9_100)]
    rows[9_000]["timestamp"] = "2023-02-30T00:00:00Z"
    path = tmp_path / f"ann.{fmt}"
    if fmt == "csv":
        write = ",".join(CSV_FIELDS) + "\n" + "".join(
            ",".join(str(row[f]) for f in CSV_FIELDS) + "\n" for row in rows)
        read, reference, line = read_annotation_records_csv, row_by_row_csv, 9_002
    else:
        write = "".join(json.dumps(row) + "\n" for row in rows)
        read, reference, line = read_annotation_records_jsonl, row_by_row_jsonl, 9_001
    path.write_text(write, encoding="utf-8")
    with pytest.raises(ValidationError, match=f"ann.{fmt}:{line}: bad timestamp "
                                              "'2023-02-30T00:00:00Z'"):
        read(path)
    assert outcome(read, path) == outcome(reference, path)


# --- the plain CSV path, byte order marks and physical lines --------------------

#: id text, ASCII or not, as plain CSV may hold it
PLAIN_IDS = ["i0", "i1", "café", "é", "é", "日本", "i 2", "🙂"]


@st.composite
def plain_csv_files(draw):
    """CSV text with no quotes: a header, rows that read cleanly but for
    the odd bad or empty value or blank row, LF or CRLF line ends, with or
    without a byte order mark and a final line end."""
    header = [f for f in draw(st.permutations(CSV_FIELDS))
              if f != "timestamp" or draw(st.booleans())]
    good = {**GOOD, "item_id": PLAIN_IDS, "annotator_id": ["a", "b", "ß"]}
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 8))):
        row = [draw(st.sampled_from(good[f])) for f in header]
        edit = draw(st.sampled_from(["none", "none", "none", "value", "empty", "blank"]))
        if edit == "value":
            row[draw(st.integers(0, len(row) - 1))] = draw(CELL_TEXT)
        elif edit == "empty":
            row[draw(st.integers(0, len(row) - 1))] = ""
        elif edit == "blank":
            row = []
        lines.append(",".join(row))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    return draw(st.sampled_from(["", "﻿"])) + text


#: examples per reader-equivalence property: 300, or the loaded profile's
#: count where that is more (``HYPOTHESIS_PROFILE=ci`` runs 1,000)
READER_EQUIVALENCE = settings(max_examples=max(300, settings().max_examples))


@READER_EQUIVALENCE
@given(plain_csv_files())
def test_plain_csv_reads_as_csv_reader_does(tmp_path_factory, text):
    """The numpy path gives the records, or the error, of the
    ``csv.reader`` path and of row-by-row reading, line numbers included."""
    path = tmp_path_factory.mktemp("csv") / "ann.csv"
    path.write_bytes(text.encode("utf-8"))
    assert ingest._plain_csv(path.read_bytes(), path) is not None
    default = outcome(read_annotation_records_csv, path)
    assert default == outcome(ingest._read_csv_rows, path)
    assert default == outcome(row_by_row_csv, path)


HEADER = ",".join(CSV_FIELDS)

#: a file of each kind the numpy path leaves to ``csv.reader``, and what
#: reading it gives: its records or an error's type and message
FALLBACK = {
    "quote": (f'{HEADER}\nt,"i,0",a,1,x,\n'.encode(), [AnnotationRecord("t", "i,0", "a", 1, "x")]),
    "lone CR": (f"{HEADER}\rt,i0,a,1,x,\r".encode(), [AnnotationRecord("t", "i0", "a", 1, "x")]),
    "CR in a field": (f"{HEADER}\nt,i\r0,a,1,x,\n".encode(), (ValidationError, "ann.csv:2: "
                      "missing field(s) ['annotator_id', 'round', 'label']")),
    # csv reads NUL as any other character from Python 3.11 on
    "NUL": (f"{HEADER}\nt,i\x000,a,1,x,\n".encode(),
            [AnnotationRecord("t", "i\x000", "a", 1, "x")] if sys.version_info >= (3, 11)
            else (ValidationError, "ann.csv:2: line contains NUL")),
    "short row": (f"{HEADER}\nt,i0,a,1,x\n".encode(), [AnnotationRecord("t", "i0", "a", 1, "x")]),
    "long row": (f"{HEADER}\nt,i0,a,1,x,,extra\n".encode(),
                 [AnnotationRecord("t", "i0", "a", 1, "x")]),
    "field over the limit": (
        f"{HEADER}\nt,i0,a,1,x,\nt,{'i' * (csv.field_size_limit() + 1)},a,1,x,\n".encode(),
        (ValidationError, "ann.csv:3: field larger than field limit (131072)")),
    # the task id column stands in for the missing timestamp column until
    # the rows are read; it must not be read as timestamps before the error
    "field over the limit, no timestamp column": (
        "task_id,item_id,annotator_id,round,label\nt,i0,a,1,x\n"
        f"t,{'i' * (csv.field_size_limit() + 1)},a,1,x\n".encode(),
        (ValidationError, "ann.csv:3: field larger than field limit (131072)")),
    "undecodable byte": (f"{HEADER}\nt,i0,a,1,x,\n".encode() + b"t,i\xff,a,1,x,\n",
                         (ValidationError, "ann.csv: not UTF-8 text (invalid start byte)")),
    "empty file": (b"", (ValidationError, "ann.csv: CSV header must contain ['annotator_id', "
                                          "'item_id', 'label', 'round', 'task_id'], got []")),
    "blank header line": (f"\n{HEADER}\n".encode(), (ValidationError, "ann.csv: CSV header must "
                          "contain ['annotator_id', 'item_id', 'label', 'round', 'task_id'], "
                          "got []")),
}


@pytest.mark.parametrize("name", FALLBACK)
def test_files_the_numpy_path_leaves_to_csv_reader(tmp_path, name):
    data, expected = FALLBACK[name]
    path = tmp_path / "ann.csv"
    path.write_bytes(data)
    assert ingest._plain_csv(data, path) is None
    assert outcome(read_annotation_records_csv, path) == (
        expected if isinstance(expected, list) else (expected[0], f"{tmp_path}/{expected[1]}"))


@pytest.mark.parametrize("text, records", [
    (HEADER + "\n", []),
    (HEADER, []),
    ("﻿" + HEADER + "\r\n\r\n", []),
    (HEADER + "\nt,i0,a,1,x,", [AnnotationRecord("t", "i0", "a", 1, "x")]),
])
def test_header_only_and_unterminated_files_take_the_numpy_path(tmp_path, text, records):
    path = tmp_path / "ann.csv"
    path.write_bytes(text.encode("utf-8"))
    assert ingest._plain_csv(path.read_bytes(), path) is not None
    assert read_annotation_records_csv(path) == records == ingest._read_csv_rows(path)


def test_plain_csv_over_several_blocks_uses_no_csv_reader(tmp_path, monkeypatch):
    """A quote-free file of many blocks, CRLF, blank lines, a byte order
    mark and RFC 3339 stamps is read without ``csv.reader`` and without
    one ``_coerce_timestamp`` call, to the records ``csv.reader`` gives."""
    rows = [f"t,i{k % 97},a{k // 97},{1 + k % 3},{'xy'[k % 2]},"
            f"2023-{1 + k % 12:02d}-{1 + k % 28:02d}T{k % 24:02d}:00:00Z" for k in range(2_000)]
    for k in range(0, len(rows), 300):
        rows[k] = ""
    path = tmp_path / "ann.csv"
    path.write_bytes(("﻿" + "\r\n".join([HEADER, *rows]) + "\r\n").encode("utf-8"))
    expected = ingest._read_csv_rows(path)
    calls = []
    real_reader, real_stamp = csv.reader, core._coerce_timestamp
    monkeypatch.setattr(csv, "reader",
                        lambda *args: calls.append("reader") or real_reader(*args))
    monkeypatch.setattr(core, "_coerce_timestamp",
                        lambda value: calls.append(value) or real_stamp(value))
    monkeypatch.setattr(ingest, "CSV_BLOCK", 64)
    monkeypatch.setattr(core, "TIMESTAMP_BLOCK", 64)
    assert read_annotation_records_csv(path) == expected
    assert calls == []
    assert len(expected) == 2_000 - 7


def test_plain_csv_wide_fields_are_cut_value_by_value(tmp_path):
    wide = "w" * (ingest._FIELD_WIDTH + 1)
    path = tmp_path / "ann.csv"
    path.write_text(f"{HEADER}\nt,{wide},a,1,x,2023-01-01T00:00:00Z\nt,i0,a,1,x,{wide}\n")
    assert ingest._plain_csv(path.read_bytes(), path) is not None
    assert outcome(read_annotation_records_csv, path) == outcome(ingest._read_csv_rows, path) \
        == (ValidationError, f"{path}:3: bad timestamp {wide!r}")


# --- the shaped JSON Lines path -------------------------------------------------

#: bare JSON values as ``json.dumps`` writes them
TOKENS = ["1", "2", "-1", "0", "1.0", "2.5", "true", "false", "null", "NaN", "Infinity",
          "1700000000", "1e+16"]
#: bare values ``json.dumps`` writes otherwise, so never on the first line
#: (the line whose shape the others repeat)
OTHER_TOKENS = ["1e3", "2.50", "-0", "1E0", "-Infinity"]
#: bare values that read cleanly as each field
GOOD_TOKENS = {"task_id": ["1"], "item_id": ["0", "1", "2"], "annotator_id": ["1", "2"],
               "round": ["1", "2", "1.0"], "label": ["1", "2"],
               "timestamp": ["null", "1700000000", "1700000000.5"]}
#: string contents, good and bad, for any field
STRINGS = [*PLAIN_IDS, "t", "a", "ß", "x", "y", " x", "1", " 2 ", "1.5", "", "nan", "yesterday",
           "2020-09-13T12:26:40Z", "2020-09-13T12:26:40", "2023-02-30T00:00:00Z", "1700000000"]


@st.composite
def shaped_jsonl_files(draw):
    """JSON Lines text whose lines all have one shape: the record fields in
    any order, now and then one left out of the whole file, each a string
    on every line or bare on every line, with either separator style. The
    values read cleanly but for the odd bad one (``true``, ``2.5``, ``""``,
    a bad stamp); blank lines come anywhere, and the text may start with a
    byte order mark and end without a line end."""
    keys = [f for f in draw(st.permutations(CSV_FIELDS)) if draw(st.integers(0, 7))]
    keys = keys or ["round"]
    bare = {k: draw(st.booleans()) if k in ("round", "label", "timestamp")
            else not draw(st.integers(0, 7)) for k in keys}
    comma, colon = draw(st.sampled_from([(", ", ": "), (",", ":")]))
    good = {**GOOD, "item_id": PLAIN_IDS, "annotator_id": ["a", "b", "ß"]}
    lines = []
    for _ in range(draw(st.integers(1, 8))):
        lines += [""] * draw(st.sampled_from([0, 0, 0, 1, 2]))
        first = not any(lines)
        fields = []
        for k in keys:
            odd = not draw(st.integers(0, 4))
            if bare[k]:
                value = draw(st.sampled_from(
                    GOOD_TOKENS[k] if not odd else TOKENS if first else TOKENS + OTHER_TOKENS))
            else:
                value = '"' + draw(st.sampled_from(STRINGS if odd else good[k])) + '"'
            fields.append(f'"{k}"{colon}{value}')
        lines.append("{" + comma.join(fields) + "}")
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    return draw(st.sampled_from(["", "﻿"])) + text


@READER_EQUIVALENCE
@given(shaped_jsonl_files())
def test_shaped_jsonl_reads_as_json_decoder_does(tmp_path_factory, text):
    """The byte path gives the records, or the error, of one JSON decode a
    line and of row-by-row reading, line numbers included."""
    path = tmp_path_factory.mktemp("jsonl") / "ann.jsonl"
    path.write_bytes(text.encode("utf-8"))
    assert ingest._shaped_jsonl(path.read_bytes()) is not None
    default = outcome(read_annotation_records_jsonl, path)
    assert default == outcome(ingest._read_jsonl_lines, path)
    assert default == outcome(row_by_row_jsonl, path)


def jsonl_line(comma=", ", colon=": ", **fields):
    """A record line of the fields t, i0, a, 1, x but for those given, as
    JSON text; a field given as None is left out."""
    fields = {**dict(task_id='"t"', item_id='"i0"', annotator_id='"a"', round="1",
                     label='"x"'), **fields}
    return "{" + comma.join(f'"{k}"{colon}{v}' for k, v in fields.items() if v is not None) + "}"


LINE = jsonl_line()
RECORD = AnnotationRecord("t", "i0", "a", 1, "x")


def after_line(line: str) -> str:
    """A file of :data:`LINE`, then ``line``."""
    return f"{LINE}\n{line}\n"


#: an integer past the digit limit of ``int()`` on text, where there is one
HUGE = "1" * 5_000
HUGE_READS = (ValidationError, "ann.jsonl:2: invalid JSON") \
    if hasattr(sys, "get_int_max_str_digits") \
    else [RECORD, AnnotationRecord("t", "i0", "a", int(HUGE), "x")]

#: a file of each kind the byte path leaves to the JSON decoder, and what
#: reading it gives: its records or an error's type and message
JSONL_FALLBACK = {
    "escaped quote": (after_line(jsonl_line(item_id=r'"i\"0"')),
                      [RECORD, AnnotationRecord("t", 'i"0', "a", 1, "x")]),
    "escaped non-ASCII": (after_line(jsonl_line(item_id=r'"\u00e9"')),
                          [RECORD, AnnotationRecord("t", "é", "a", 1, "x")]),
    "CRLF": (f"{LINE}\r\n{LINE}\r\n", [RECORD, RECORD]),
    "lone CR": (f"{LINE}\r{jsonl_line(round='1.5')}\r",
                (ValidationError, "ann.jsonl:2: round 1.5 is not an integer")),
    "lone CR in a value": (after_line(jsonl_line(item_id='"i\r0"')),
                           (ValidationError, "ann.jsonl:2: invalid JSON")),
    "tab": (jsonl_line(colon=":\t"), [RECORD]),
    "tab in a value": (after_line(jsonl_line(item_id='"i\t0"')),
                       (ValidationError, "ann.jsonl:2: invalid JSON")),
    "line of spaces": (f"{LINE}\n   \n{jsonl_line(round='1.5')}\n",
                       (ValidationError, "ann.jsonl:3: round 1.5 is not an integer")),
    "another key order": (after_line('{"round": 2, "task_id": "t", "item_id": "i0", '
                                     '"annotator_id": "a", "label": "x"}'),
                          [RECORD, AnnotationRecord("t", "i0", "a", 2, "x")]),
    "extra key": (after_line(jsonl_line(note='"n"')), [RECORD, RECORD]),
    "extra key on line 1": (jsonl_line(note='"n"'), [RECORD]),
    "another separator": (after_line(jsonl_line(comma=",", colon=":")), [RECORD, RECORD]),
    "nested value": (after_line(jsonl_line(round="[1]")),
                     (ValidationError, "ann.jsonl:2: round [1] is not an integer")),
    "nested value on line 1": (jsonl_line(round='{"r": 1}'),
                               (ValidationError, "ann.jsonl:1: round {'r': 1} is not an integer")),
    "duplicate keys on line 1": ('{"task_id": "u", ' + LINE[1:] + "\n", [RECORD]),
    "byte order mark on line 2": (after_line("﻿" + LINE),
                                  (ValidationError, "ann.jsonl:2: invalid JSON")),
    "a byte after the object": (after_line(LINE + "x"), (ValidationError, "ann.jsonl:2: invalid JSON")),
    "another opening byte": (after_line("[" + LINE[1:]),
                             (ValidationError, "ann.jsonl:2: invalid JSON")),
    "another closing byte": (after_line(LINE[:-1] + "]"),
                             (ValidationError, "ann.jsonl:2: invalid JSON")),
    "stamp text not in quotes": (
        jsonl_line(timestamp="5") + "\n" + jsonl_line(timestamp="2020-09-13T12:26:40Z") + "\n",
        (ValidationError, "ann.jsonl:2: invalid JSON")),
    "a quote moved to the next line": (
        after_line(jsonl_line(label='"x"y"')) + jsonl_line(label='"x') + "\n",
        (ValidationError, "ann.jsonl:2: invalid JSON")),
    "tru": (after_line(jsonl_line(label="tru")), (ValidationError, "ann.jsonl:2: invalid JSON")),
    "1.5e": (after_line(jsonl_line(round="1.5e")), (ValidationError, "ann.jsonl:2: invalid JSON")),
    "5,000-digit integer": (after_line(jsonl_line(round=HUGE)), HUGE_READS),
    "stamp on some lines only": (after_line(jsonl_line(timestamp="5")),
                                 [RECORD, AnnotationRecord("t", "i0", "a", 1, "x", 5.0)]),
}


@pytest.mark.parametrize("name", JSONL_FALLBACK)
def test_files_the_byte_path_leaves_to_the_json_decoder(tmp_path, name):
    text, expected = JSONL_FALLBACK[name]
    path = tmp_path / "ann.jsonl"
    path.write_bytes(text.encode("utf-8"))
    assert ingest._shaped_jsonl(path.read_bytes()) is None
    assert outcome(read_annotation_records_jsonl, path) == outcome(row_by_row_jsonl, path) == (
        expected if isinstance(expected, list) else (expected[0], f"{tmp_path}/{expected[1]}"))


def test_written_jsonl_takes_the_byte_path(tmp_path):
    """What ``write_annotations_jsonl`` writes with every stamp present, and
    the same records in the compact form, are read from bytes; a value
    wider than a byte matrix holds is cut value by value."""
    wide = "w" * (ingest._FIELD_WIDTH + 1)
    records = [AnnotationRecord("t", "i0", "a", 1, "x", 100.0),
               AnnotationRecord("t", wide, "日本", 2, "y", 1_700_000_000.5),
               AnnotationRecord("t", "i0", "a", int("9" * 70), "x", 100.0)]
    path = tmp_path / "ann.jsonl"
    write_annotations_jsonl(records, path)
    assert ingest._shaped_jsonl(path.read_bytes()) is not None
    assert read_annotation_records_jsonl(path) == records
    path.write_text("".join(json.dumps({**vars(rec), "timestamp": format_rfc3339(rec.timestamp)},
                                       ensure_ascii=False, separators=(",", ":")) + "\n"
                            for rec in records), encoding="utf-8")
    assert ingest._shaped_jsonl(path.read_bytes()) is not None
    assert read_annotation_records_jsonl(path) == records


def test_shaped_jsonl_over_several_blocks_decodes_no_line(tmp_path, monkeypatch):
    """A shaped file of many blocks, blank lines, a byte order mark and RFC
    3339 stamps is read without a JSON decode of any line and without one
    ``_coerce_timestamp`` call, to the records one decode a line gives."""
    lines = [jsonl_line(item_id=f'"i{k % 97}é"', annotator_id=f'"a{k // 97}"', round=1 + k % 3,
                        label=f'"{"xy"[k % 2]}"',
                        timestamp=f'"2023-{1 + k % 12:02d}-{1 + k % 28:02d}T{k % 24:02d}:00:00Z"')
             for k in range(2_000)]
    for k in range(0, len(lines), 300):
        lines[k] = ""
    path = tmp_path / "ann.jsonl"
    path.write_bytes(("﻿" + "\n".join(lines) + "\n").encode("utf-8"))
    expected = ingest._read_jsonl_lines(path)
    calls = []
    real_stamp = core._coerce_timestamp

    def no_decode(*args, **kwargs):
        raise AssertionError("a line was decoded as JSON")

    monkeypatch.setattr(json.JSONDecoder, "decode", no_decode)
    monkeypatch.setattr(core, "_coerce_timestamp",
                        lambda value: calls.append(value) or real_stamp(value))
    monkeypatch.setattr(ingest, "CSV_BLOCK", 64)
    monkeypatch.setattr(core, "TIMESTAMP_BLOCK", 64)
    assert read_annotation_records_jsonl(path) == expected
    assert calls == []
    assert len(expected) == 2_000 - 7


@pytest.mark.parametrize("rounds, error", [
    ([1, 1.0, "1", " 01 "], None),
    ([2, True], "ann.jsonl:2: round True is not an integer"),
    ([1.0, [1]], "ann.jsonl:2: round [1] is not an integer"),
    ([{"r": 1}, 1], "ann.jsonl:1: round {'r': 1} is not an integer"),
])
def test_jsonl_rounds_of_equal_value_and_unhashable_values(tmp_path, rounds, error):
    """``1``, ``1.0`` and ``True`` are equal keys but coerce apart, and an
    unhashable value is coerced on its own."""
    rows = [{"task_id": "t", "item_id": f"i{k}", "annotator_id": "a", "round": rnd,
             "label": "x"} for k, rnd in enumerate(rounds)]
    path = tmp_path / "ann.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    if error is None:
        assert [r.round for r in read_annotation_records_jsonl(path)] == [1] * len(rounds)
    else:
        with pytest.raises(ValidationError, match=re.escape(error)):
            read_annotation_records_jsonl(path)
    assert outcome(read_annotation_records_jsonl, path) == outcome(row_by_row_jsonl, path)


def test_unhashable_ids_and_stamps_coerce_as_text_or_are_refused():
    rows = [{"task_id": "t", "item_id": ["i", 0], "annotator_id": {"a": 1}, "round": 1,
             "label": "x"},
            {"task_id": "t", "item_id": ["i", 0], "annotator_id": "b", "round": 1, "label": "x",
             "timestamp": [5]}]
    columns, error = coerce_record_columns(
        RecordColumns(*zip(*(map(row.get, CSV_FIELDS) for row in rows))))
    assert columns.item_id == ("['i', 0]",) and columns.annotator_id == ("{'a': 1}",)
    assert (error[0], str(error[1])) == (1, "bad timestamp [5]")


#: a bad round on physical line 4, after a blank line, a quoted line break
#: or CRLF line ends
PHYSICAL = [
    ("csv", f"{HEADER}\nt,i0,a,1,x,\n\nt,i1,a,1.5,x,\n"),
    ("csv", f"{HEADER}\r\nt,i0,a,1,x,\r\n\r\nt,i1,a,1.5,x,\r\n"),
    ("csv", f'{HEADER}\nt,"i\n0",a,1,x,\nt,i1,a,1.5,x,\n'),
    ("csv", f'{HEADER}\r\nt,"i\r\n0",a,1,x,\r\nt,i1,a,1.5,x,\r\n'),
    ("csv", f'﻿{HEADER}\n\n"t",i0,a,1,x,\nt,i1,a,1.5,x,\n'),
    ("jsonl", '{"task_id": "t", "item_id": "i0", "annotator_id": "a", "round": 1, "label": "x"}\n'
              '\n  \n{"task_id": "t", "item_id": "i1", "annotator_id": "a", "round": 1.5, '
              '"label": "x"}\n'),
    ("jsonl", '﻿{"task_id": "t", "item_id": "i0", "annotator_id": "a", "round": 1, '
              '"label": "x"}\r\n\r\n\r\n{"task_id": "t", "item_id": "i1", "annotator_id": "a", '
              '"round": 1.5, "label": "x"}\r\n'),
    ("jsonl", '{"task_id": "t", "item_id": "i \x85", "annotator_id": "a", "round": 1, '
              '"label": "x"}\n\n\n{"task_id": "t", "item_id": "i1", "annotator_id": "a", '
              '"round": 1.5, "label": "x"}\n'),
]


@pytest.mark.parametrize("fmt, text", PHYSICAL, ids=[
    "csv-blank", "csv-crlf-blank", "csv-quoted-newline", "csv-quoted-crlf", "csv-bom-quoted",
    "jsonl-blank", "jsonl-bom-crlf-blank", "jsonl-nel-in-value"])
def test_refusals_name_the_physical_line(tmp_path, fmt, text):
    path = tmp_path / f"ann.{fmt}"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(ValidationError, match=re.escape(f"ann.{fmt}:4: round ")):
        read_annotation_records(path)


def test_rationalisation_refusals_name_the_physical_line(tmp_path):
    path = tmp_path / "why.csv"
    path.write_text("﻿item_id,rater_id,label\ni0,r1,subjective\n\ni1,,ambiguous\n",
                    encoding="utf-8")
    with pytest.raises(ValidationError, match=re.escape("why.csv:4: missing field(s)")):
        read_rationalisations_csv(path)


def test_byte_order_marks_are_skipped(tmp_path):
    """Each file kind may start with a UTF-8 byte order mark, as
    spreadsheet programs write them; its digest is of the file's bytes."""
    records = [AnnotationRecord("t", "i0", "a", 1, "x", 100.0),
               AnnotationRecord("t", "i1", "b", 2, "y")]
    for name, write in (("ann.csv", write_annotations_csv), ("ann.jsonl", write_annotations_jsonl),
                        ("quoted.csv", None)):
        path = tmp_path / name
        if write is None:
            path.write_text(f'{HEADER}\n"t",i0,a,1,x,1970-01-01T00:01:40Z\nt,i1,b,2,y,\n')
        else:
            write(records, path)
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        assert read_annotation_records(path) == records
    schema = tmp_path / "schema.json"
    save_schema(LabelSchema("t", ("x", "y")), schema)
    schema.write_bytes(codecs.BOM_UTF8 + schema.read_bytes())
    assert load_schema(schema) == LabelSchema("t", ("x", "y"))
    assert file_sha256(schema) == hashlib.sha256(schema.read_bytes()).hexdigest()


# --- the writers --------------------------------------------------------------

#: text a written value may hold: what CSV quotes, what JSON escapes, and
#: non-ASCII text
WRITTEN_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", "a", "b", " ", "é", "日", "🙂"]),
                       max_size=4)
#: rounds of several types in one column; 1, 1.0 and True are equal keys,
#: and so are 0.0 and -0.0
WRITTEN_ROUNDS = st.one_of(st.integers(-2, 3), st.booleans(), st.floats(),
                           st.sampled_from([0.0, -0.0, 1.0, 1.5, 0, False]))
WRITTEN_STAMPS = st.one_of(st.none(), st.sampled_from([0.0, -0.0, 0.25, 1e9, 0]),
                           st.floats(-6e10, 2.5e11), st.integers(0, 2_000_000_000))


@st.composite
def written_records(draw):
    """Raw records of any written values, or a validated set whose ids,
    labels and stamps hold the same kinds of text."""
    if draw(st.booleans()):
        return draw(st.lists(st.builds(
            AnnotationRecord, WRITTEN_TEXT, WRITTEN_TEXT, WRITTEN_TEXT, WRITTEN_ROUNDS,
            WRITTEN_TEXT, WRITTEN_STAMPS), max_size=12))
    labels = ("x", "a,b", 'say "y"', "é\nz")
    cells = draw(st.lists(st.tuples(WRITTEN_TEXT.filter(bool), WRITTEN_TEXT.filter(bool),
                                    st.integers(1, 3)), unique=True, max_size=12))
    return validate_dataset([AnnotationRecord("t", *cell, draw(st.sampled_from(labels)),
                                              draw(WRITTEN_STAMPS)) for cell in cells],
                            LabelSchema("t", labels))


def written_rows(records):
    """The fields of each record, its timestamp as RFC 3339 text."""
    return [(*fields[:5], None if fields[5] is None else format_rfc3339(fields[5]))
            for fields in map(core._fields_of, getattr(records, "records", records))]


@READER_EQUIVALENCE
@example([], 1)
@example([AnnotationRecord("t", "i", "a", -0.0, "x", None),
          AnnotationRecord("t", "i", "a", 0.0, "x", -0.0)], 1)
@given(written_records(), st.integers(1, 4))
def test_csv_writer_writes_as_csv_writer_does(tmp_path_factory, records, block):
    """Each distinct value formatted once and gathered by codes, blocks of
    records at a time, gives ``csv.writer``'s bytes for the raw rows."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(CSV_FIELDS)
    writer.writerows(written_rows(records))
    path = tmp_path_factory.mktemp("csv") / "ann.csv"
    with mock.patch.object(ingest, "CSV_BLOCK", block):
        write_annotations_csv(records, path)
    assert path.read_bytes() == out.getvalue().encode("utf-8")


@READER_EQUIVALENCE
@example([], 1)
@given(written_records(), st.integers(1, 4))
def test_jsonl_writer_writes_one_json_dumps_a_record(tmp_path_factory, records, block):
    """One ``json.dumps`` a record, the ``timestamp`` key left out where
    there is none, gives the bytes of the pieces gathered by codes."""
    lines = []
    for *fields, stamp in written_rows(records):
        obj = dict(zip(CSV_FIELDS, fields))
        if stamp is not None:
            obj["timestamp"] = stamp
        lines.append(json.dumps(obj, ensure_ascii=False) + "\n")
    path = tmp_path_factory.mktemp("jsonl") / "ann.jsonl"
    with mock.patch.object(ingest, "CSV_BLOCK", block):
        write_annotations_jsonl(records, path)
    assert path.read_bytes() == "".join(lines).encode("utf-8")


def test_signed_zero_is_a_value_of_its_own():
    """``0.0`` and ``-0.0`` are kept apart as values, so each is written
    as it is; they still compare equal as records."""
    values, codes = core._factorise([0.0, -0.0, 0.0, 1.5])
    assert [math.copysign(1, v) for v in values[:2]] == [1, -1]
    assert codes.tolist() == [0, 1, 0, 2]
    columns = RecordColumns(["t"] * 2, ["i"] * 2, ["a"] * 2, [-0.0, 0.0], ["x"] * 2, [None] * 2)
    assert columns == [AnnotationRecord("t", "i", "a", 0.0, "x")] * 2
    assert str(columns.round) == "(-0.0, 0.0)"


@pytest.mark.parametrize("values", [
    (Decimal("1.0"), Decimal("1.00")), (Decimal("10"), Decimal("1E+1")),
    (np.float64(0.0), np.float64(-0.0)),
])
def test_equal_values_that_print_differently_stay_apart(tmp_path, values):
    """Values equal as keys but not as text are coerced and written each as
    its own text, as one record at a time does."""
    rows = [{"task_id": "t", "item_id": v, "annotator_id": "a", "round": 1, "label": "x"}
            for v in values]
    aset = validate_dataset(rows, LabelSchema("t", ("x", "y")))
    assert aset.records == tuple(map(coerce_record, rows))
    records = [AnnotationRecord("t", v, "a", v, "x") for v in values]
    out = io.StringIO()
    csv.writer(out).writerows([CSV_FIELDS, *written_rows(records)])
    write_annotations_csv(records, tmp_path / "ann.csv")
    assert (tmp_path / "ann.csv").read_bytes() == out.getvalue().encode("utf-8")


def test_rationalisations_written_as_csv_writer_does(tmp_path):
    records = [RationalisationRecord("i,0", 'r"1', "subjective"),
               RationalisationRecord("é\r\n", "r2", "ambiguous"),
               RationalisationRecord("i,0", "", "subjective")]
    out = io.StringIO()
    csv.writer(out).writerows([("item_id", "rater_id", "label"),
                               *((r.item_id, r.rater_id, r.label) for r in records)])
    path = tmp_path / "rat.csv"
    write_rationalisations_csv(records, path)
    assert path.read_bytes() == out.getvalue().encode("utf-8")
    write_rationalisations_csv([], path)
    assert path.read_bytes() == b"item_id,rater_id,label\r\n"
