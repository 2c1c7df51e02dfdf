"""Reading and writing annotation data.

Two interchangeable container formats are supported for records — CSV with a
fixed header and JSON Lines — plus a small JSON document for the label
schema. Timestamps travel as RFC 3339 text, read in one grammar on every
Python (:func:`parse_rfc3339`), and live in memory as POSIX epoch seconds.

Every reader returns :class:`~relistab.core.RecordColumns`, each field as
its distinct values and one integer code per record, converted once per
distinct value by :func:`~relistab.core.coerce_record_columns`. CSV without
quotes (:func:`_plain_csv`) and JSON Lines whose lines all repeat one shape
(:func:`_shaped_jsonl`) go from the file's bytes to those codes in numpy, a
field at a time, by one coding loop (:func:`_byte_fields`); any other CSV
goes through ``csv.reader``, and any other JSON Lines through one JSON
decode a line, each a generator of rows that
:func:`~relistab.core.collect_rows` gathers while the line of each record
is kept. Every file may start with a UTF-8 byte order mark, and a refused
record names its physical line. Every path is checked to be a regular
file before it is read (:func:`_regular`).

The writers format each distinct value once, as ``csv.writer`` or
``json.dumps`` would, and gather the text by the codes (:func:`_write_pieces`).
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import json
import operator
import os
import re
import stat
from array import array
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .association import RationalisationRecord
from .core import RECORD_FIELDS as CSV_FIELDS
from .core import (
    AnnotationRecord,
    AnnotationSet,
    LabelSchema,
    RecordColumns,
    _factorise,
    _rfc3339_chars,
    coerce_record_columns,
    collect_rows,
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
    return moment.isoformat().replace("+00:00", "Z")


def _regular(path: str | Path) -> str | Path:
    """``path``, checked before it is read: anything but a regular file (a
    pipe, a FIFO, a directory) is an OSError naming it, as a pipe can be
    read only once and a FIFO blocks until something writes to it."""
    if not stat.S_ISREG(os.stat(path).st_mode):
        raise OSError(f"{path}: not a regular file")
    return path


@contextlib.contextmanager
def _open_text(path: str | Path, **kwargs):
    """``path`` opened as UTF-8 text, a leading byte order mark skipped;
    undecodable bytes are a ValidationError."""
    try:
        with open(_regular(path), encoding="utf-8-sig", **kwargs) as handle:
            yield handle
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc


def _checked(raw: RecordColumns, line_of: Callable[[int], int], path, fault=None) -> RecordColumns:
    """``raw`` through :func:`~relistab.core.coerce_record_columns`; a
    refused record raises its error prefixed with ``path`` and its line,
    and else ``fault``, the ValidationError that ended the read, if any."""
    columns, error = coerce_record_columns(raw)
    if error is not None:
        position, exc = error
        raise type(exc)(f"{path}:{line_of(position)}: {exc}") from exc
    if fault is not None:
        raise fault
    return columns


def _header_positions(header: list[str], path) -> list[int | None]:
    """The header's column of each of :data:`CSV_FIELDS`, None for a
    missing timestamp column; a repeated column name reads its last
    column. A header without the required names, or with others, raises."""
    required = set(CSV_FIELDS[:5])
    if not required.issubset(header):
        raise ValidationError(f"{path}: CSV header must contain {sorted(required)}, got {header}")
    unknown = set(header) - set(CSV_FIELDS)
    if unknown:
        raise ValidationError(f"{path}: unknown CSV column(s) {sorted(unknown)}")
    at = {name: i for i, name in enumerate(header)}
    return [at.get(name) for name in CSV_FIELDS]


#: rows per block of a CSV column cut into a byte matrix, and records per
#: block a writer gathers; bounds their scratch arrays, as
#: :data:`~relistab.core.TIMESTAMP_BLOCK` bounds the timestamp decode's
CSV_BLOCK = 8192
#: bytes per block of the scans for delimiters and of the UTF-8 check
_SCAN_BLOCK = 1 << 19
#: the widest field a column's byte matrix holds; a column with a wider
#: value is cut and coded value by value
_FIELD_WIDTH = 64


def _is_utf8(data: bytes) -> bool:
    """Whether ``data`` decodes as UTF-8, decoded a block at a time."""
    blocks = (data[at:at + _SCAN_BLOCK] for at in range(0, len(data), _SCAN_BLOCK))
    try:
        for _ in codecs.iterdecode(blocks, "utf-8"):
            pass
    except UnicodeDecodeError:
        return False
    return True


def _positions(buf: np.ndarray, byte: str) -> np.ndarray:
    """The positions of ``byte`` in ``buf``, in order."""
    return np.concatenate([np.empty(0, dtype=np.intp)] + [
        np.flatnonzero(buf[at:at + _SCAN_BLOCK] == ord(byte)) + at
        for at in range(0, len(buf), _SCAN_BLOCK)])


def _plain_csv(data: bytes, path) -> tuple[RecordColumns, Callable[[int], int]] | None:
    """The raw records of CSV bytes, coded a column at a time, and each
    one's physical line; None unless the bytes are plain CSV.

    Plain CSV has no ``"``, no NUL and no CR outside a CRLF; it is UTF-8
    (a leading byte order mark is skipped), every line but blank ones has
    as many fields as the header, and no field is longer than
    ``csv.field_size_limit()``. ``csv.reader`` reads such text as its lines
    split on ``,``, blank lines as ``[]``, which is how it is read here.
    """
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    if len(data) == bom or b'"' in data or b"\0" in data or (
            b"\r" in data and data.count(b"\r") != data.count(b"\r\n")) or not _is_utf8(data):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    newline = _positions(buf, "\n")
    starts = np.concatenate(([bom], newline + 1))
    ends = np.concatenate((newline, [len(buf)]))
    ends -= buf[np.maximum(ends - 1, 0)] == ord("\r")  # a CR is always part of a CRLF
    limit = csv.field_size_limit()
    header = data[starts[0]:ends[0]].decode("utf-8").split(",")
    if ends[0] == starts[0] or max(map(len, header)) > limit:
        return None
    positions = _header_positions(header, path)
    lines = np.flatnonzero(ends[1:] > starts[1:]) + 1
    comma = _positions(buf, ",")
    per_line = np.diff(np.searchsorted(comma, ends), prepend=0)
    if (per_line[lines] != len(header) - 1).any():
        return None
    # field j of a record runs from cut[j] + 1 to cut[j + 1]
    cuts = comma[len(header) - 1:].reshape(len(lines), len(header) - 1)
    cut = [starts[lines] - 1, *cuts.T, ends[lines]]
    if any((end - start - 1).max(initial=0) > limit for start, end in zip(cut, cut[1:])):
        return None
    fields = {k: (cut[c] + 1, cut[c + 1]) for k, c in enumerate(positions) if c is not None}
    return (RecordColumns.from_codes(*_byte_fields(data, buf, fields, len(lines))),
            (lines + 1).__getitem__)


def _byte_fields(data: bytes, buf: np.ndarray, cuts: dict, n: int) -> tuple[list, list]:
    """``(values, codes)`` of each of :data:`CSV_FIELDS` in ``n`` records:
    with ``cuts[k] = (start, end)``, field ``k`` of record ``i`` is the text
    ``data[start[i]:end[i]]``, and without ``k`` in ``cuts`` it is None. RFC
    3339 text in the timestamp field is decoded to its seconds."""
    values, codes = [], []
    for k, name in enumerate(CSV_FIELDS):
        if k not in cuts:
            values.append((None,))
            codes.append(np.zeros(n, dtype=np.intp))
            continue
        start, end = cuts[k]
        rows = _byte_rows(buf, start, end)
        if rows is None:
            field = _factorise([data[s:e].decode("utf-8") for s, e in zip(start.tolist(),
                                                                          end.tolist())])
        elif name == "timestamp":
            field = _stamp_field(rows, end - start)
        else:
            field = _factorise_rows(rows)
        values.append(field[0])
        codes.append(field[1])
    return values, codes


def _byte_rows(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray | None:
    """The bytes ``buf[start:end]`` of each field as a row of a matrix,
    followed by zeros to a multiple of 8 bytes; None if a field is wider
    than :data:`_FIELD_WIDTH`."""
    length = end - start
    width = int(length.max(initial=0))
    if width > _FIELD_WIDTH:
        return None
    rows = np.zeros((len(start), max(-(-width // 8) * 8, 8)), dtype=np.uint8)
    if not width:
        return rows
    windows = np.lib.stride_tricks.sliding_window_view(buf, width)
    last = len(buf) - width
    beyond = np.arange(width)
    for at in range(0, len(start), CSV_BLOCK):
        block = rows[at:at + CSV_BLOCK, :width]
        block[:] = windows[np.minimum(start[at:at + CSV_BLOCK], last)]
        block[beyond >= length[at:at + CSV_BLOCK, None]] = 0
    # a window cannot start past ``last``: the fields there are copied
    for i in np.flatnonzero(start > last).tolist():
        rows[i, :width] = 0
        rows[i, :length[i]] = buf[start[i]:end[i]]
    return rows


def _factorise_rows(rows: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """``(values, codes)`` of the text in the rows of a byte matrix: the
    distinct texts sorted, which for UTF-8 is code point order, and each
    row's position among them."""
    # big-endian words compare as the bytes do
    words = rows.view(">u8")
    order = np.lexsort(words.T[::-1])
    new = np.zeros(len(rows), dtype=bool)
    new[:1] = True
    for word in words.T:
        word = word[order]
        new[1:] |= word[1:] != word[:-1]
    codes = np.empty(len(rows), dtype=np.intp)
    codes[order] = np.cumsum(new) - 1
    texts = rows[order[new]].view(f"S{rows.shape[1]}").ravel().tolist()
    return tuple(text.decode("utf-8") for text in texts), codes


def _stamp_field(rows: np.ndarray, length: np.ndarray) -> tuple[tuple, np.ndarray]:
    """``(values, codes)`` of a timestamp column's byte matrix: RFC 3339
    text is decoded here, :data:`CSV_BLOCK` rows at a time, and coded by
    its seconds; any other text is coded as text."""
    ok = np.zeros(len(rows), dtype=bool)
    seconds = np.zeros(len(rows))
    for at in range(0, len(rows), CSV_BLOCK):
        block = slice(at, at + CSV_BLOCK)
        ok[block], seconds[block] = _rfc3339_chars(rows[block], length[block])
    stamps, codes = np.unique(seconds[ok], return_inverse=True)
    other = np.flatnonzero(~ok)
    texts, other_codes = _factorise_rows(rows[other])
    field = np.empty(len(rows), dtype=np.intp)
    field[ok] = codes.reshape(-1)
    field[other] = other_codes + len(stamps)
    return (*stamps.tolist(), *texts), field


def read_annotation_records_csv(path: str | Path) -> RecordColumns:
    """The records of a CSV file with a header row, as columns.

    Blank rows are skipped; a short row leaves its last fields missing and
    extra trailing values are ignored. Errors name the physical line. Plain
    CSV (see :func:`_plain_csv`) is read from the file's bytes in numpy,
    a column at a time; any other file, quoted CSV among them, by
    ``csv.reader``.
    """
    plain = _plain_csv(Path(_regular(path)).read_bytes(), path)
    return _read_csv_rows(path) if plain is None else _checked(*plain, path)


def _read_csv_rows(path: str | Path) -> RecordColumns:
    """:func:`read_annotation_records_csv` by ``csv.reader``."""
    lines = array("Q")
    with _open_text(path, newline="") as handle:
        columns, fault = collect_rows(_csv_rows(csv.reader(handle), path, lines))
    return _checked(columns, lines.__getitem__, path, fault)


def _csv_rows(reader, path, lines: array) -> Iterator[tuple]:
    """The raw fields of each non-blank row after the header; the line it
    ends on goes to ``lines``, and a missing timestamp column reads as None."""
    try:
        positions = _header_positions(next(reader, []), path)
        width = max(p for p in positions if p is not None) + 1
        pick = operator.itemgetter(*positions) if positions[5] is not None else (
            lambda row, fields=operator.itemgetter(*positions[:5]): (*fields(row), None))
        for row in reader:
            if len(row) < width:
                if not row:
                    continue
                row += [None] * (width - len(row))
            lines.append(reader.line_num)
            yield pick(row)
    except csv.Error as exc:
        raise ValidationError(f"{path}:{reader.line_num}: {exc}") from exc


def _csv_piece(value, end: str) -> str:
    """``value`` as ``csv.writer`` writes a field (None as empty), then ``end``."""
    text = "" if value is None else str(value)
    return ('"' + text.replace('"', '""') + '"' if re.search('[,"\r\n]', text) else text) + end


def _write_pieces(path, head: str, pieces: list[list[str]], codes) -> None:
    """``head``, then for each record ``i`` the piece ``pieces[k][codes[k][i]]``
    of each field ``k`` in turn, gathered :data:`CSV_BLOCK` records at a time."""
    pieces = [np.array(field, dtype=object) for field in pieces]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(head)
        for at in range(0, len(codes[0]), CSV_BLOCK):
            rows = np.stack([field[c[at:at + CSV_BLOCK]] for field, c in zip(pieces, codes)], 1)
            handle.write("".join(rows.ravel().tolist()))


def _write_csv(path, header: tuple, values, codes) -> None:
    """``csv.writer``'s CSV of the records with fields ``values[k][codes[k][i]]``."""
    ends = [","] * (len(header) - 1) + ["\r\n"]
    _write_pieces(path, "".join(map(_csv_piece, header, ends)),
                  [[_csv_piece(v, end) for v in field] for field, end in zip(values, ends)], codes)


def _written_columns(records: Iterable[AnnotationRecord] | AnnotationSet) -> tuple[list, tuple]:
    """``(values, codes)`` of each field of ``records``, stamps as RFC 3339 text."""
    columns = records.columns if isinstance(records, AnnotationSet) else RecordColumns.of(records)
    stamps = [None if s is None else format_rfc3339(s) for s in columns.values[5]]
    return [*columns.values[:5], stamps], columns.codes


def write_annotations_csv(records: Iterable[AnnotationRecord] | AnnotationSet, path: str | Path) -> None:
    _write_csv(path, CSV_FIELDS, *_written_columns(records))


def read_annotation_records_jsonl(path: str | Path) -> RecordColumns:
    """The records of a JSON Lines file, one object a line, as columns;
    blank lines are skipped and errors name the physical line. A file of
    one shape (:func:`_shaped_jsonl`) is read from its bytes in numpy."""
    shaped = _shaped_jsonl(Path(_regular(path)).read_bytes())
    return _read_jsonl_lines(path) if shaped is None else _checked(*shaped, path)


#: a bare JSON value: a number, true, false, null, NaN or Infinity
_TOKEN = re.compile(r"[0-9A-Za-z+.-]+")
_PAIRS_DECODER = json.JSONDecoder(object_pairs_hook=tuple)


def _jsonl_shape(line: str) -> tuple[list[bytes], list[tuple[int, bool]]] | None:
    """``(pieces, slots)``: the bytes of ``line`` around its values (with a
    string's quotes), and each value's field in :data:`CSV_FIELDS` and
    whether it is bare; None unless ``line`` is an object of record fields
    that ``json.dumps(..., ensure_ascii=False)`` writes back with its
    default separators or ``(",", ":")``."""
    try:
        pairs = _PAIRS_DECODER.raw_decode(line)[0]
    except (ValueError, RecursionError):
        return None
    if type(pairs) is not tuple or not pairs or not {key for key, _ in pairs} <= set(CSV_FIELDS):
        return None
    written = {json.dumps(dict(pairs), ensure_ascii=False, separators=separators): separators
               for separators in ((", ", ": "), (",", ":"))}
    if line not in written:
        return None
    comma, colon = written[line]
    pieces, slots, piece = [], [], "{"
    for key, value in pairs:
        quote = '"' if isinstance(value, str) else ""
        pieces.append(piece + json.dumps(key, ensure_ascii=False) + colon + quote)
        slots.append((CSV_FIELDS.index(key), not quote))
        piece = quote + comma
    pieces.append(piece.removesuffix(comma) + "}")
    return [piece.encode("utf-8") for piece in pieces], slots


def _shaped_jsonl(data: bytes) -> tuple[RecordColumns, Callable[[int], int]] | None:
    """The raw records of JSON Lines bytes, coded a field at a time, and
    each one's physical line; None unless every line has one shape: the
    file is UTF-8 with no ``\\`` and no control byte but ``\\n``, and every
    non-empty line repeats the pieces of the first (:func:`_jsonl_shape`)
    around strings free of ``"``, whose UTF-8 text is their JSON value, and
    :data:`_TOKEN` values, each distinct one decoded once."""
    bom = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    if b"\\" in data or not _is_utf8(data):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    newline = _positions(buf, "\n")
    if sum(np.count_nonzero(buf[at:at + _SCAN_BLOCK] < 0x20)
           for at in range(0, len(buf), _SCAN_BLOCK)) != len(newline):
        return None
    starts = np.concatenate(([bom], newline + 1))
    ends = np.concatenate((newline, [len(buf)]))
    lines = np.flatnonzero(ends > starts)
    starts, ends = starts[lines], ends[lines]
    shape = len(lines) and _jsonl_shape(data[starts[0]:ends[0]].decode("utf-8"))
    if not shape:
        return None
    pieces, slots = shape
    first_quote = np.cumsum([0, *(piece.count(b'"') for piece in pieces)])
    windows = [np.lib.stride_tricks.sliding_window_view(buf, len(piece)) for piece in pieces]
    cuts = np.empty((len(slots), 2, len(lines)), dtype=np.intp)  # each value's start and end
    for at in range(0, len(lines), CSV_BLOCK):
        begin, stop = starts[at:at + CSV_BLOCK], ends[at:at + CSV_BLOCK]
        quote = _positions(buf[begin[0]:stop[-1]], '"') + begin[0]
        # a line of more or fewer quotes moves a first piece off its line
        if len(quote) != first_quote[-1] * len(begin):
            return None
        quote = quote.reshape(len(begin), first_quote[-1])
        found = [quote[:, first_quote[j]] - piece.index(b'"') if b'"' in piece
                 else stop - len(piece) for j, piece in enumerate(pieces)]
        done = [s + len(piece) for s, piece in zip(found, pieces)]
        # a piece sits at its first quote or else ends the line; in place,
        # two cannot overlap (at a string they meet at quotes, at a token
        # ":" or " " meets "," or "}"), and clipping bounds one off its line
        if (found[0] != begin).any() or (done[-1] != stop).any() or not all(
                (window[np.clip(s, 0, len(window) - 1)] == np.frombuffer(piece, np.uint8)).all()
                for window, s, piece in zip(windows, found, pieces)):
            return None
        cuts[:, 0, at:at + CSV_BLOCK] = done[:-1]
        cuts[:, 1, at:at + CSV_BLOCK] = found[1:]
    values, codes = _byte_fields(data, buf, dict(zip((k for k, _ in slots), cuts)), len(lines))
    for k in (k for k, bare in slots if bare):
        # bare values are coded as text, as no RFC 3339 stamp is a token;
        # tokens hold no "," or "]", so they are read as one array
        if not all(isinstance(text, str) and _TOKEN.fullmatch(text) for text in values[k]):
            return None
        try:
            values[k] = _PAIRS_DECODER.raw_decode("[" + ",".join(values[k]) + "]")[0]
        except ValueError:
            return None
    return RecordColumns.from_codes(values, codes), (lines + 1).__getitem__


def _read_jsonl_lines(path: str | Path) -> RecordColumns:
    """:func:`read_annotation_records_jsonl` by one JSON decode a line."""
    lines = array("Q")
    with _open_text(path) as handle:
        columns, fault = collect_rows(_jsonl_rows(handle, path, lines))
    return _checked(columns, lines.__getitem__, path, fault)


def _jsonl_rows(handle, path, lines: array) -> Iterator[tuple]:
    """The raw fields of each non-blank line of ``handle``; its number goes to ``lines``."""
    decode = json.JSONDecoder().decode
    for lineno, line in enumerate(handle, start=1):
        if not line.strip():
            continue
        try:
            fields = raw_fields(decode(line))
        # json raises a plain ValueError for an integer past the digit limit
        except (ValueError, RecursionError, ValidationError) as exc:
            reason = exc if isinstance(exc, ValidationError) else "invalid JSON"
            raise ValidationError(f"{path}:{lineno}: {reason}") from exc
        lines.append(lineno)
        yield fields


def write_annotations_jsonl(records: Iterable[AnnotationRecord] | AnnotationSet, path: str | Path) -> None:
    """One ``json.dumps(obj, ensure_ascii=False)`` a line; no ``timestamp`` key for None."""
    values, codes = _written_columns(records)
    pieces = [[f'{", " if k else "{"}"{name}": {json.dumps(v, ensure_ascii=False)}' for v in field]
              for k, (name, field) in enumerate(zip(CSV_FIELDS[:5], values))]
    pieces.append([f', "timestamp": "{s}"}}\n' if s else "}\n" for s in values[5]])
    _write_pieces(path, "", pieces, codes)


def read_annotation_records(path: str | Path) -> RecordColumns:
    """Dispatch on file extension: .jsonl/.ndjson -> JSON Lines, else CSV."""
    suffix = Path(path).suffix.lower()
    if suffix in (".jsonl", ".ndjson"):
        return read_annotation_records_jsonl(path)
    return read_annotation_records_csv(path)


RATIONALISATION_FIELDS = ("item_id", "rater_id", "label")


def read_rationalisations_csv(path: str | Path) -> list[RationalisationRecord]:
    """CSV with header item_id,rater_id,label -> RationalisationRecords; a
    faulty row, or CSV that ``csv`` refuses, raises ValidationError naming
    ``path`` and its line."""
    records = []
    with _open_text(path, newline="") as handle:
        reader = csv.DictReader(handle)
        try:
            header = tuple(reader.fieldnames or ())
            if set(header) != set(RATIONALISATION_FIELDS):
                raise ValidationError(
                    f"{path}: header must be {','.join(RATIONALISATION_FIELDS)}, got {header}")
            for row in reader:
                fields = [row.get(f) for f in RATIONALISATION_FIELDS]
                try:
                    if None in fields or "" in fields:
                        raise ValidationError("missing field(s)")
                    records.append(RationalisationRecord(*fields))
                except ValidationError as exc:
                    raise ValidationError(f"{path}:{reader.reader.line_num}: {exc}") from exc
        # the csv.reader's count: DictReader updates its own after a whole row
        except csv.Error as exc:
            raise ValidationError(f"{path}:{reader.reader.line_num}: {exc}") from exc
    return records


def write_rationalisations_csv(records, path: str | Path) -> None:
    records = list(records)
    fields = [_factorise([getattr(r, name) for r in records]) for name in RATIONALISATION_FIELDS]
    _write_csv(path, RATIONALISATION_FIELDS, *zip(*fields))


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in ``path``, a schema or config file; anything else
    is an InvalidConfigError naming the file."""
    with _open_text(path) as handle:
        text = handle.read()
    try:
        obj = json.loads(text)
    # json raises a plain ValueError for an integer past Python's digit limit
    except (ValueError, RecursionError) as exc:
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
