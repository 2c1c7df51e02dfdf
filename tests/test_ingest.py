import json

import pytest
from hypothesis import given, strategies as st

from relistab import (
    AnnotationRecord,
    LabelSchema,
    RationalisationRecord,
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
from relistab.errors import NonFiniteError, ValidationError


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
