"""Reading and writing annotation data.

Two interchangeable container formats are supported for records — CSV with a
fixed header and JSON Lines — plus a small JSON document for the label
schema. Timestamps travel as RFC 3339 text and live in memory as POSIX epoch
seconds (UTC).
"""

from __future__ import annotations

import contextlib
import csv
import json
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable

from .core import RECORD_FIELDS as CSV_FIELDS
from .core import AnnotationRecord, AnnotationSet, LabelSchema, coerce_record
from .core import parse_rfc3339  # noqa: F401 - part of this module's API
from .errors import InvalidConfigError, ValidationError


def format_rfc3339(epoch_seconds: float) -> str:
    """POSIX epoch seconds -> RFC 3339 text in UTC (Z suffix)."""
    moment = datetime.fromtimestamp(float(epoch_seconds), tz=timezone.utc)
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


def read_annotation_records_csv(path: str | Path) -> list[AnnotationRecord]:
    with _open_text(path, newline="") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        required = set(CSV_FIELDS[:5])
        if not required.issubset(header):
            raise ValidationError(
                f"{path}: CSV header must contain {sorted(required)}, got {header}"
            )
        unknown = set(header) - set(CSV_FIELDS)
        if unknown:
            raise ValidationError(f"{path}: unknown CSV column(s) {sorted(unknown)}")
        records = []
        for lineno, row in enumerate(reader, start=2):
            try:
                records.append(coerce_record(row))
            except ValidationError as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from exc
    return records


def write_annotations_csv(records: Iterable[AnnotationRecord] | AnnotationSet, path: str | Path) -> None:
    if isinstance(records, AnnotationSet):
        records = records.records
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_FIELDS)
        for rec in records:
            stamp = "" if rec.timestamp is None else format_rfc3339(rec.timestamp)
            writer.writerow(
                [rec.task_id, rec.item_id, rec.annotator_id, rec.round, rec.label, stamp]
            )


def read_annotation_records_jsonl(path: str | Path) -> list[AnnotationRecord]:
    records = []
    with _open_text(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                records.append(coerce_record(json.loads(line)))
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: invalid JSON") from exc
            except ValidationError as exc:
                raise type(exc)(f"{path}:{lineno}: {exc}") from exc
    return records


def write_annotations_jsonl(records: Iterable[AnnotationRecord] | AnnotationSet, path: str | Path) -> None:
    if isinstance(records, AnnotationSet):
        records = records.records
    with open(path, "w", encoding="utf-8") as handle:
        for rec in records:
            obj = {
                "task_id": rec.task_id,
                "item_id": rec.item_id,
                "annotator_id": rec.annotator_id,
                "round": rec.round,
                "label": rec.label,
            }
            if rec.timestamp is not None:
                obj["timestamp"] = format_rfc3339(rec.timestamp)
            handle.write(json.dumps(obj, ensure_ascii=False) + "\n")


def read_annotation_records(path: str | Path) -> list[AnnotationRecord]:
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
        except json.JSONDecodeError as exc:
            raise InvalidConfigError(f"{path}: invalid JSON") from exc
    if not isinstance(obj, dict):
        raise InvalidConfigError(f"{path}: {what} must be a JSON object")
    return obj


def load_schema(path: str | Path) -> LabelSchema:
    obj = read_json_object(path, "schema")
    try:
        return LabelSchema(
            task_id=str(obj["task_id"]),
            categories=tuple(str(c) for c in obj["categories"]),
            scale_kind=str(obj.get("scale_kind", "nominal")),
            numeric_values=obj.get("numeric_values"),
        )
    except KeyError as exc:
        raise InvalidConfigError(f"{path}: schema missing key {exc.args[0]!r}") from exc


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
