"""Reading and writing annotation data.

Two interchangeable container formats are supported for records — CSV with a
fixed header and JSON Lines — plus a small JSON document for the label
schema. Timestamps travel as RFC 3339 text, read in one grammar on every
Python (:func:`parse_rfc3339`), and live in memory as POSIX epoch seconds.
"""

from __future__ import annotations

import contextlib
import csv
import json
import operator
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .core import RECORD_FIELDS as CSV_FIELDS
from .core import (
    AnnotationRecord,
    AnnotationSet,
    LabelSchema,
    RecordColumns,
    coerce_columns,
    raw_fields,
)
from .core import parse_rfc3339  # noqa: F401 - part of this module's API
from .errors import InvalidConfigError, ValidationError


def format_rfc3339(epoch_seconds: float) -> str:
    """POSIX epoch seconds -> RFC 3339 text in UTC (Z suffix); a stamp
    outside years 0001-9999 raises ValidationError."""
    try:
        moment = datetime.fromtimestamp(float(epoch_seconds), tz=timezone.utc)
    except (ValueError, OverflowError, OSError) as exc:
        raise ValidationError(f"timestamp {epoch_seconds!r} is outside years 0001-9999") from exc
    text = moment.isoformat()
    if text.endswith("+00:00"):
        text = text[:-6] + "Z"
    return text


@contextlib.contextmanager
def _open_text(path: str | Path, **kwargs):
    """``path`` opened as UTF-8 text; undecodable bytes are a ValidationError."""
    try:
        with open(path, encoding="utf-8", **kwargs) as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _checked(raw: Sequence[list], line_of: Callable[[int], int], path) -> RecordColumns:
    """``raw`` field columns through :func:`~relistab.core.coerce_columns`;
    a refused row raises its error prefixed with ``path`` and its line."""
    columns, error = coerce_columns(*raw)
    if error is not None:
        position, exc = error
        raise type(exc)(f"{path}:{line_of(position)}: {exc}") from exc
    return columns


def read_annotation_records_csv(path: str | Path) -> RecordColumns:
    """The records of a CSV file with a header row, as columns.

    Blank rows are skipped and not counted in line numbers; a short row
    leaves its last fields missing and extra trailing values are ignored.
    """
    raw = tuple([] for _ in CSV_FIELDS)
    add_task, add_item, add_annotator, add_round, add_label, add_stamp = (
        column.append for column in raw)

    def line_of(position: int) -> int:
        return position + 2

    with _open_text(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            required = set(CSV_FIELDS[:5])
            if not required.issubset(header):
                raise ValidationError(
                    f"{path}: CSV header must contain {sorted(required)}, got {header}"
                )
            unknown = set(header) - set(CSV_FIELDS)
            if unknown:
                raise ValidationError(f"{path}: unknown CSV column(s) {sorted(unknown)}")
            # a repeated column name reads its last column
            at = {name: i for i, name in enumerate(header)}
            # without a timestamp column, read the task id in its place and
            # clear that column after the loop
            positions = [at.get(name, at["task_id"]) for name in CSV_FIELDS]
            pick = operator.itemgetter(*positions)
            width = max(positions) + 1
            for row in reader:
                if len(row) < width:
                    if not row:
                        continue
                    row += [None] * (width - len(row))
                task, item, annotator, rnd, label, stamp = pick(row)
                add_task(task)
                add_item(item)
                add_annotator(annotator)
                add_round(rnd)
                add_label(label)
                add_stamp(stamp)
        except csv.Error as exc:
            _checked(raw, line_of, path)  # a fault on an earlier row comes first
            raise ValidationError(f"{path}:{reader.line_num}: {exc}") from exc
    if "timestamp" not in at:
        raw[5][:] = [None] * len(raw[5])
    return _checked(raw, line_of, path)


def _columns_of(records: Iterable[AnnotationRecord] | AnnotationSet) -> RecordColumns:
    return records.columns if isinstance(records, AnnotationSet) else RecordColumns.of(records)


def _stamp_texts(stamps: Sequence[float | None], blank) -> dict:
    """Each distinct timestamp's RFC 3339 text, and ``blank`` for None."""
    return {s: blank if s is None else format_rfc3339(s) for s in set(stamps)}


def write_annotations_csv(records: Iterable[AnnotationRecord] | AnnotationSet, path: str | Path) -> None:
    columns = _columns_of(records)
    texts = _stamp_texts(columns.timestamp, "")
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_FIELDS)
        writer.writerows(zip(*columns.fields()[:5], map(texts.__getitem__, columns.timestamp)))


def read_annotation_records_jsonl(path: str | Path) -> RecordColumns:
    """The records of a JSON Lines file, one object a line, as columns;
    blank lines are skipped."""
    raw = tuple([] for _ in CSV_FIELDS)
    add_task, add_item, add_annotator, add_round, add_label, add_stamp = (
        column.append for column in raw)
    lines: list[int] = []
    with _open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                task, item, annotator, rnd, label, stamp = raw_fields(json.loads(line))
            except (json.JSONDecodeError, RecursionError, ValidationError) as exc:
                _checked(raw, lines.__getitem__, path)  # a fault on an earlier line comes first
                reason = exc if isinstance(exc, ValidationError) else "invalid JSON"
                raise ValidationError(f"{path}:{lineno}: {reason}") from exc
            add_task(task)
            add_item(item)
            add_annotator(annotator)
            add_round(rnd)
            add_label(label)
            add_stamp(stamp)
            lines.append(lineno)
    return _checked(raw, lines.__getitem__, path)


def write_annotations_jsonl(records: Iterable[AnnotationRecord] | AnnotationSet, path: str | Path) -> None:
    columns = _columns_of(records)
    texts = _stamp_texts(columns.timestamp, None)
    with open(path, "w", encoding="utf-8") as handle:
        for task, item, annotator, rnd, label, stamp in zip(*columns.fields()):
            obj = {
                "task_id": task,
                "item_id": item,
                "annotator_id": annotator,
                "round": rnd,
                "label": label,
            }
            if stamp is not None:
                obj["timestamp"] = texts[stamp]
            handle.write(json.dumps(obj, ensure_ascii=False) + "\n")


def read_annotation_records(path: str | Path) -> RecordColumns:
    """Dispatch on file extension: .jsonl/.ndjson -> JSON Lines, else CSV."""
    suffix = Path(path).suffix.lower()
    if suffix in (".jsonl", ".ndjson"):
        return read_annotation_records_jsonl(path)
    return read_annotation_records_csv(path)


RATIONALISATION_FIELDS = ("item_id", "rater_id", "label")


def read_rationalisations_csv(path: str | Path):
    """CSV with header item_id,rater_id,label -> RationalisationRecords."""
    from .association import RationalisationRecord

    records = []
    with _open_text(path, newline="") as handle:
        reader = csv.DictReader(handle)
        header = tuple(reader.fieldnames or ())
        if set(header) != set(RATIONALISATION_FIELDS):
            raise ValidationError(
                f"{path}: header must be {','.join(RATIONALISATION_FIELDS)}, got {header}"
            )
        for lineno, row in enumerate(reader, start=2):
            if any(row.get(f) in (None, "") for f in RATIONALISATION_FIELDS):
                raise ValidationError(f"{path}:{lineno}: missing field(s)")
            records.append(
                RationalisationRecord(
                    item_id=row["item_id"], rater_id=row["rater_id"], label=row["label"]
                )
            )
    return records


def write_rationalisations_csv(records, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(RATIONALISATION_FIELDS)
        for rec in records:
            writer.writerow([rec.item_id, rec.rater_id, rec.label])


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in ``path``, a schema or config file; anything else
    is an InvalidConfigError naming the file."""
    with _open_text(path) as handle:
        try:
            obj = json.load(handle)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise InvalidConfigError(f"{path}: invalid JSON") from exc
    if not isinstance(obj, dict):
        raise InvalidConfigError(f"{path}: {what} must be a JSON object")
    return obj


def load_schema(path: str | Path) -> LabelSchema:
    obj = read_json_object(path, "schema")
    try:
        task_id, categories = obj["task_id"], obj["categories"]
    except KeyError as exc:
        raise InvalidConfigError(f"{path}: schema missing key {exc.args[0]!r}") from exc
    numeric_values = obj.get("numeric_values")
    if not isinstance(categories, list) or not isinstance(numeric_values, (dict, type(None))):
        raise InvalidConfigError(
            f"{path}: schema categories must be a JSON list and numeric_values a JSON object")
    return LabelSchema(
        task_id=str(task_id),
        categories=tuple(map(str, categories)),
        scale_kind=str(obj.get("scale_kind", "nominal")),
        numeric_values=numeric_values,
    )


def save_schema(schema: LabelSchema, path: str | Path) -> None:
    obj: dict = {
        "task_id": schema.task_id,
        "categories": list(schema.categories),
        "scale_kind": schema.scale_kind,
    }
    if schema.numeric_values is not None:
        obj["numeric_values"] = {k: schema.numeric_values[k] for k in schema.categories
                                 if k in schema.numeric_values}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=2, sort_keys=True)
        handle.write("\n")
