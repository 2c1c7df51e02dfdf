"""Validated data model for round-tagged annotations.

The central object is :class:`AnnotationSet`: an immutable collection of
``(item, annotator, round) -> label`` records against a
:class:`LabelSchema`, stored as integer codes (:class:`ColumnCodes`), which
every kernel reads. Its records as :class:`RecordColumns`, one column per
field, and as :class:`AnnotationRecord` objects are decoded only when a
caller asks for them. :class:`RecordColumns` also carries records on their
way in: each field as its distinct values and a code per record, so that
:func:`coerce_record_columns` converts, and :func:`validate_dataset`
checks and sorts, each distinct value once. Records that come one at a
time (``csv.reader`` rows, JSON lines, mappings) reach it through one
collector, :func:`collect_rows`. Stability analyses consume
:class:`RepeatPairs`: the repeat pairs of a set held as arrays, paired with
one sort over the codes. Krippendorff-style reliability consumes the
coincidence matrix.
"""

from __future__ import annotations

import math
import operator
import unicodedata
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, count, repeat
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateError,
    DuplicateCellError,
    InvalidConfigError,
    NonFiniteError,
    NoRepeatsError,
    SchemaMismatchError,
    UnknownLabelError,
    ValidationError,
)

SCALE_KINDS = ("nominal", "ordinal", "interval")
PAIRING_POLICIES = ("consecutive", "first_last", "all_pairs")


def normalize_label(label: str) -> str:
    """Canonical label form: Unicode NFC, surrounding whitespace trimmed."""
    return unicodedata.normalize("NFC", str(label)).strip()


@dataclass(frozen=True)
class LabelSchema:
    """Label space for one annotation task.

    ``categories`` is an ordered sequence of distinct names; for ordinal
    scales the sequence order is the rank order. Interval scales must map
    every category to a number via ``numeric_values``.
    """

    task_id: str
    categories: tuple[str, ...]
    scale_kind: str = "nominal"
    # a dict, so left out of the hash; equal schemas still hash equal
    numeric_values: Mapping[str, float] | None = field(default=None, hash=False)

    def __post_init__(self):
        cats = tuple(normalize_label(c) for c in self.categories)
        object.__setattr__(self, "categories", cats)
        if len(cats) < 2:
            raise InvalidConfigError("schema needs at least 2 categories")
        if any(not c for c in cats):
            raise InvalidConfigError("categories must be non-empty strings")
        if len(set(cats)) != len(cats):
            raise InvalidConfigError("categories must be unique")
        if self.scale_kind not in SCALE_KINDS:
            raise InvalidConfigError(
                f"scale_kind must be one of {SCALE_KINDS}, got {self.scale_kind!r}"
            )
        if self.numeric_values is not None:
            try:
                values = {normalize_label(k): as_number(v) for k, v in self.numeric_values.items()}
            except (AttributeError, TypeError, ValueError) as exc:
                raise InvalidConfigError(
                    f"numeric_values must map categories to finite numbers ({exc})"
                ) from exc
            object.__setattr__(self, "numeric_values", values)
        if self.scale_kind == "interval":
            missing = [c for c in cats if c not in (self.numeric_values or {})]
            if missing:
                raise InvalidConfigError(
                    f"interval schema lacks numeric_values for {missing}"
                )

    def numeric_value(self, label: str) -> float:
        if self.numeric_values is None or label not in self.numeric_values:
            raise InvalidConfigError(f"no numeric value for category {label!r}")
        return self.numeric_values[label]


@dataclass(frozen=True)
class AnnotationRecord:
    """One label given by one annotator to one item in one round."""

    task_id: str
    item_id: str
    annotator_id: str
    round: int
    label: str
    timestamp: float | None = None


RECORD_FIELDS = ("task_id", "item_id", "annotator_id", "round", "label", "timestamp")
_REQUIRED_FIELDS = RECORD_FIELDS[:5]
_fields_of = operator.attrgetter(*RECORD_FIELDS)


#: value types of which no two compare equal, but for numbers with numbers
_PLAIN_TYPES = {str, type(None), bool, int, float}


def _factorise(column: Iterable) -> tuple[tuple, np.ndarray]:
    """``(values, codes)``: the distinct values of ``column`` in the order
    they first come, and each entry's position among them.

    ``1``, ``1.0`` and ``True`` are equal keys, and so are ``0.0`` and
    ``-0.0``, or ``Decimal("1.0")`` and ``Decimal("1.00")``, which print
    differently. So a column that mixes types, holds a zero float or holds
    a value of another type is keyed by type, value and text; an unhashable
    value is a value of its own each time."""
    column = column if isinstance(column, (list, tuple)) else list(column)
    types = set(map(type, column))
    plain = types <= _PLAIN_TYPES and len(types & {bool, int, float}) <= 1
    keys = column if plain and not (float in types and 0.0 in column) else [
        (type(v), v, str(v)) for v in column]
    first = {}
    try:
        # each entry's first position, in one pass over the keys
        at = np.fromiter(map(first.setdefault, keys, count()), dtype=np.intp, count=len(keys))
    except TypeError:
        index, values, codes = {}, [], []
        for key, value in zip(keys, column):
            try:
                code = index.setdefault(key, len(values))
            except TypeError:
                code = len(values)
            if code == len(values):
                values.append(value)
            codes.append(code)
        return tuple(values), np.array(codes, dtype=np.intp)
    codes = (np.cumsum(at == np.arange(len(keys))) - 1)[at]
    return tuple(first) if keys is column else tuple(key[1] for key in first), codes


def _compact(values: tuple, codes: np.ndarray) -> tuple[tuple, np.ndarray]:
    """``values`` without those no code points at, and ``codes`` into them."""
    used = np.bincount(codes, minlength=len(values)).astype(bool)
    if used.all():
        return values, codes
    return tuple(compress(values, used.tolist())), (np.cumsum(used) - 1)[codes]


class RecordColumns(Sequence):
    """Annotation records held as six field columns.

    Each field is stored as its values and one integer code per record:
    ``values[k][codes[k][i]]`` is field ``k`` of record ``i``, the fields in
    :data:`RECORD_FIELDS` order. The values of a field are distinct as
    read; coercion can make two of them equal (``"1"`` and ``"01"`` are
    both round 1), and nothing relies on them being distinct. Slicing keeps
    only the values the slice's codes point at. The attributes named as in
    :data:`RECORD_FIELDS` give a column as a tuple with one field of every
    record, built on first access. Indexing or iterating builds
    :class:`AnnotationRecord` objects, and ``==`` compares records, so a
    list or tuple of the same records is equal to it. The readers return
    one, and an :class:`AnnotationSet` decodes one from its codes on demand.
    """

    __slots__ = ("values", "codes", "_columns")

    def __init__(self, task_id, item_id, annotator_id, round, label, timestamp):
        fields = [_factorise(column) for column in
                  (task_id, item_id, annotator_id, round, label, timestamp)]
        self._set(*zip(*fields))

    def _set(self, values, codes):
        values, codes = tuple(values), tuple(codes)
        if len(set(map(len, codes))) > 1:
            raise ValueError("record columns differ in length")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "codes", codes)
        object.__setattr__(self, "_columns", {})

    @classmethod
    def from_codes(cls, values: Sequence[tuple], codes: Sequence[np.ndarray]) -> "RecordColumns":
        """The records whose field ``k`` is ``values[k][codes[k][i]]``."""
        columns = cls.__new__(cls)
        columns._set(map(tuple, values), (np.asarray(c, dtype=np.intp) for c in codes))
        return columns

    @classmethod
    def of(cls, records: Iterable[AnnotationRecord]) -> "RecordColumns":
        """The fields of ``records``, taken as they are."""
        if isinstance(records, cls):
            return records
        columns, fault = collect_rows(map(_fields_of, records))
        if fault is not None:
            raise fault
        return columns

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self).from_codes, (self.values, self.codes)

    def _column(self, k: int) -> tuple:
        """Field ``k`` of every record."""
        if k not in self._columns:
            self._columns[k] = tuple(map(self.values[k].__getitem__, self.codes[k].tolist()))
        return self._columns[k]

    task_id = property(lambda self: self._column(0))
    item_id = property(lambda self: self._column(1))
    annotator_id = property(lambda self: self._column(2))
    round = property(lambda self: self._column(3))
    label = property(lambda self: self._column(4))
    timestamp = property(lambda self: self._column(5))

    def __len__(self) -> int:
        return len(self.codes[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RecordColumns.from_codes(*zip(*(
                _compact(values, codes[index]) for values, codes in zip(self.values, self.codes))))
        return AnnotationRecord(*(values[codes[index]]
                                  for values, codes in zip(self.values, self.codes)))

    def __iter__(self):
        return map(AnnotationRecord, *map(self._column, range(len(RECORD_FIELDS))))

    def __eq__(self, other):
        if not isinstance(other, (RecordColumns, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self):
        return f"{type(self).__name__}({list(self)!r})"


@dataclass(frozen=True, eq=False)
class RepeatPairs:
    """Repeat pairs held as parallel arrays, one entry per pair.

    ``item``, ``annotator``, ``first_label``/``second_label`` and
    ``first_round``/``second_round`` are integer codes: positions in
    ``items``, ``annotators``, ``labels`` and ``rounds``. ``interval`` is in
    seconds, NaN where the pair has none. :func:`build_repeat_pairs`
    returns one.
    """

    items: tuple
    annotators: tuple
    labels: tuple
    rounds: tuple
    item: np.ndarray
    annotator: np.ndarray
    first_label: np.ndarray
    second_label: np.ndarray
    first_round: np.ndarray
    second_round: np.ndarray
    interval: np.ndarray

    @property
    def consistent(self) -> np.ndarray:
        """Per pair, whether its two labels are the same."""
        return self.first_label == self.second_label

    def __len__(self) -> int:
        return len(self.item)


@dataclass(frozen=True, eq=False)
class ColumnCodes:
    """A set's columns as integer codes.

    ``item``, ``annotator``, ``round`` and ``label`` hold, per record, the
    position of its value in ``items``, ``annotators`` and ``rounds`` (the
    set's sorted ids and rounds) and in ``labels`` (``schema.categories``,
    then any other label, sorted). ``timestamp`` is float64, NaN where the
    record has none. Rounds are codes, not values, so that a round beyond
    int64 still sorts and pairs. ``==`` compares every field.
    """

    items: tuple[str, ...]
    annotators: tuple[str, ...]
    rounds: tuple[int, ...]
    labels: tuple[str, ...]
    item: np.ndarray
    annotator: np.ndarray
    round: np.ndarray
    label: np.ndarray
    timestamp: np.ndarray

    @classmethod
    def of(cls, columns: "RecordColumns", categories: tuple[str, ...]) -> "ColumnCodes":
        """The codes of ``columns``, labels coded against ``categories``:
        each field's distinct values sorted and recoded, no record visited."""
        values, codes = columns.values, columns.codes
        (items, item), (annotators, annotator), (rounds, round_) = (
            _sorted_codes(values[k], codes[k]) for k in (1, 2, 3))
        labels, label = _sorted_codes(values[4], codes[4], categories)
        return cls(items, annotators, rounds, labels, item, annotator, round_, label,
                   np.array(values[5], dtype=float)[codes[5]])

    def __eq__(self, other):
        if not isinstance(other, ColumnCodes):
            return NotImplemented
        return (self.items, self.annotators, self.rounds, self.labels) == (
            other.items, other.annotators, other.rounds, other.labels) and all(
            np.array_equal(getattr(self, name), getattr(other, name), equal_nan=True)
            for name in ("item", "annotator", "round", "label", "timestamp"))

    def __hash__(self):
        return hash((self.items, len(self.item)))

    def first_repeat(self) -> int:
        """Position of the first record whose (item, annotator, round) an
        earlier record has, or the record count."""
        cell = self.item * len(self.annotators) + self.annotator
        if len(self.items) * len(self.annotators) * len(self.rounds) > 2**63:
            # renumber the (item, annotator) cells, so that the key fits int64
            cell = np.unique(cell, return_inverse=True)[1]
        _, first = np.unique(cell * len(self.rounds) + self.round, return_index=True)
        first.sort()
        misplaced = np.flatnonzero(first != np.arange(len(first)))
        return int(misplaced[0]) if len(misplaced) else len(first)

    @cached_property
    def cell_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, bounds)``: the record positions sorted by (item,
        annotator, round), and where each (item, annotator) cell's run
        starts in that order, followed by the record count."""
        return _runs(self.round, self.item, self.annotator)

    @cached_property
    def item_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(order, bounds)`` as :attr:`cell_runs`, for each item in
        ``items`` with its records in column order."""
        return _runs(np.arange(len(self.item)), self.item)

    def in_rounds(self, rounds: Iterable[int]) -> np.ndarray:
        """The positions, ascending, of the records in the given rounds."""
        wanted = set(rounds)
        return np.flatnonzero(np.isin(
            self.round, [code for code, rnd in enumerate(self.rounds) if rnd in wanted]))

    def label_counts(self, key: np.ndarray, at: np.ndarray) -> tuple[np.ndarray, ...]:
        """``(keys, counts, first)``: the distinct values of ``key`` at the
        record positions ``at``, sorted; each one's count of every label
        code, as a row; and the index in ``at`` of its first record."""
        keys, first, inverse = np.unique(key[at], return_index=True, return_inverse=True)
        n_labels = len(self.labels)
        counts = np.bincount(inverse * n_labels + self.label[at], minlength=len(keys) * n_labels)
        return keys, counts.reshape(len(keys), n_labels), first

    def label_grid(self, at: np.ndarray, annotators: Sequence[str]) -> np.ndarray:
        """The label codes at the record positions ``at``, at most one per
        (item, annotator) cell, as an item x ``annotators`` grid with a row
        per code in ``items``; -1 where there is none."""
        column = dict(zip(annotators, range(len(annotators))))
        columns = np.array([column.get(a, -1) for a in self.annotators], dtype=np.intp)
        at = at[columns[self.annotator[at]] >= 0]
        grid = np.full((len(self.items), len(annotators)), -1)
        grid[self.item[at], columns[self.annotator[at]]] = self.label[at]
        return grid


def _sorted_codes(values: tuple, codes: np.ndarray, head: tuple = ()) -> tuple[tuple, np.ndarray]:
    """``(ordered, recoded)``: ``head``, then the other values ``codes``
    points at, sorted; and ``codes`` as positions in ``ordered``."""
    values, codes = _compact(values, codes)
    ordered = head + tuple(sorted(set(values).difference(head)))
    position = {value: code for code, value in enumerate(ordered)}
    recode = np.array([position[value] for value in values], dtype=np.intp)
    return ordered, recode[codes]


def _runs(within: np.ndarray, *group: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, bounds)``: the record positions sorted by the ``group``
    codes, then by ``within``, and where each run of equal ``group`` codes
    starts in that order, followed by the record count."""
    order = np.lexsort((within, *reversed(group)))
    bound = np.zeros(len(order) + 1, dtype=bool)
    bound[[0, -1]] = True
    for key in group:
        key = key[order]
        bound[1:-1] |= key[1:] != key[:-1]
    return order, np.flatnonzero(bound)


@dataclass(frozen=True)
class AnnotationSet:
    """Immutable, validated collection of annotation records.

    Construct through :func:`validate_dataset`; the constructor assumes the
    invariants already hold. ``AnnotationSet(schema, codes)`` stores the
    schema and the records as :class:`ColumnCodes`, which every kernel and
    lookup reads. Codes whose labels are not ``schema.categories`` are
    recoded against them. ``columns`` and ``records`` are decoded from the
    codes on first access: every task id is ``schema.task_id``, and a NaN
    timestamp is None. ``==`` compares schema and codes.
    """

    schema: LabelSchema
    codes: ColumnCodes

    def __post_init__(self):
        if self.codes.labels != self.schema.categories:
            object.__setattr__(self, "codes", ColumnCodes.of(self.columns, self.schema.categories))

    @cached_property
    def columns(self) -> RecordColumns:
        c = self.codes
        stamps, stamp = np.unique(c.timestamp, return_inverse=True)
        stamps = [None if math.isnan(t) else t for t in stamps.tolist()]
        return RecordColumns.from_codes(
            ((self.schema.task_id,), c.items, c.annotators, c.rounds, c.labels, stamps),
            (np.zeros(len(c.item), dtype=np.intp), c.item, c.annotator, c.round, c.label,
             stamp.reshape(-1)))

    @cached_property
    def records(self) -> tuple[AnnotationRecord, ...]:
        return tuple(self.columns)

    def __len__(self) -> int:
        return len(self.codes.item)

    def items(self) -> tuple[str, ...]:
        return self.codes.items

    def annotators(self) -> tuple[str, ...]:
        return self.codes.annotators

    def rounds(self) -> tuple[int, ...]:
        return self.codes.rounds


def parse_rfc3339(text: str) -> float:
    """RFC 3339 ``date-time`` text -> POSIX epoch seconds, read as
    :func:`_rfc3339_seconds` reads it; surrounding whitespace is stripped."""
    cleaned = text.strip()
    ok, seconds = _rfc3339_seconds([cleaned], np.array([len(cleaned)]))
    if not ok[0]:
        raise ValidationError(f"bad RFC 3339 timestamp {text!r}")
    return float(seconds[0])


def _number_text(text: str) -> str:
    """``text`` stripped; ValueError unless it is ASCII without ``_``, since
    ``int()`` and ``float()`` also read ``1_0`` and other scripts' digits."""
    text = text.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r} is not ASCII number text")
    return text


def as_integer(value) -> int:
    """An int, an integral float or the ASCII text of an integer, as an int.

    A bool or a fractional float raises ValueError. This is the one rule for
    integers read from data or configs: rounds, seeds and counts.
    """
    if type(value) is int:  # not bool
        return value
    if isinstance(value, str):
        return int(_number_text(value))
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (bool, float)):
        raise ValueError(f"{value!r} is not an integer")
    return operator.index(value)


def as_number(value) -> float:
    """A finite number or the ASCII text of one, as a float; a bool is
    refused."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    result = float(_number_text(value) if isinstance(value, str) else value)
    if not math.isfinite(result):
        raise ValueError(f"{value!r} is not finite")
    return result


def as_text(value) -> str:
    """``value`` if it is a string (a path or a name); nothing is coerced."""
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def require_seed(seed, what: str) -> int:
    """``seed`` as an int. InvalidConfigError for ``None``, for what
    ``operator.index`` refuses (``2.5`` is not truncated) and below 0."""
    if seed is None:
        raise InvalidConfigError(f"{what} requires an explicit seed")
    try:
        value = operator.index(seed)
    except TypeError:
        raise InvalidConfigError(f"{what} seed {seed!r} is not an integer") from None
    if value < 0:
        raise InvalidConfigError(f"{what} seed {seed!r} is negative")
    return value


def _as_timestamp(value) -> float | None:
    if isinstance(value, str):
        value = value.strip()
        if not value:
            return None
        try:
            return float(_number_text(value))
        except ValueError:
            return parse_rfc3339(value)
    return None if value is None else float(value)


def _coerce_round(value) -> int:
    try:
        return as_integer(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"round {value!r} is not an integer") from exc


def _coerce_timestamp(value) -> float | None:
    try:
        stamp = _as_timestamp(value)
    except (TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise ValidationError(f"bad timestamp {value!r}") from exc
    if stamp is not None and not math.isfinite(stamp):
        raise NonFiniteError(f"timestamp {value!r} is not finite")
    return stamp


def coerce_fields(task_id, item_id, annotator_id, round, label, timestamp=None) -> tuple:
    """The one conversion of raw record fields (from a CSV row, a JSON
    object or any mapping) into the fields of an :class:`AnnotationRecord`.

    The ids and the label are required and non-empty and become strings.
    ``round`` is an integer, an integral float or the text of an integer.
    ``timestamp`` is optional: absent, None or blank means none; otherwise
    epoch seconds as a number or as text, or RFC 3339 text, and finite.
    Labels are kept as given; :func:`validate_dataset` normalises them.
    """
    required = (task_id, item_id, annotator_id, round, label)
    if None in required or "" in required:
        missing = [f for f, v in zip(_REQUIRED_FIELDS, required) if v is None or v == ""]
        raise ValidationError(f"missing field(s) {missing}")
    return (str(task_id), str(item_id), str(annotator_id), _coerce_round(round), str(label),
            _coerce_timestamp(timestamp))


def raw_fields(raw) -> tuple:
    """The six raw fields of a field mapping (a CSV row, a JSON object) or
    of an :class:`AnnotationRecord`, whose round must already be an int."""
    if isinstance(raw, AnnotationRecord):
        if type(raw.round) is not int:  # not bool
            raise ValidationError(f"round {raw.round!r} is not an integer")
        return _fields_of(raw)
    # dict first: the Mapping ABC check alone costs a sizeable share of a row
    if not isinstance(raw, (dict, Mapping)):
        raise ValidationError(f"expected a mapping of record fields, got {type(raw).__name__}")
    return tuple(map(raw.get, RECORD_FIELDS))


#: values per block of the timestamp column decode; bounds its scratch arrays
TIMESTAMP_BLOCK = 8192
#: the longest text the column decode takes into a block; longer text (a
#: long fraction) is read one value at a time, by the same decoder
_STAMP_WIDTH = 64
#: positions of the digits of ``YYYY-MM-DDTHH:MM:SS``
_STAMP_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_DAYS_IN_MONTH = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _rfc3339_seconds(texts: Sequence[str], length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_rfc3339_chars` of ``texts``, each of the given length."""
    width = max(int(length.max(initial=0)), 20)
    chars = np.array(texts, dtype=f"U{width}").view(np.uint32).reshape(len(texts), width)
    return _rfc3339_chars(chars, length)


def _rfc3339_chars(chars: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(ok, seconds)``: for each row of ``chars``, the code points or the
    UTF-8 bytes of a text of the given length followed by zeros, whether
    the text is an RFC 3339 ``date-time`` (section 5.6), and its POSIX
    epoch seconds.

    The grammar: ``YYYY-MM-DD``; ``T``, ``t`` or a space; ``HH:MM:SS``; an
    optional ``.`` and one or more digits, of which the first six are read;
    then ``Z``, ``z``, ``+hh:mm``, ``-hh:mm`` or nothing, which is UTC.
    Years run from 0001 to 9999, dates are real, hours and hh are <= 23,
    minutes, seconds and mm <= 59. The seconds are those
    ``datetime.timestamp()`` gives: whole microseconds / 10**6, rounded once.
    """
    n, width = chars.shape
    if width < 20:
        chars = np.pad(chars, ((0, 0), (0, 20 - width)))
        width = 20
    digits = chars[:, _STAMP_DIGITS].astype(np.int64) - ord("0")
    ok = ((digits >= 0) & (digits <= 9)).all(axis=1)
    ok &= (chars[:, [4, 7, 13, 16]] == [ord(c) for c in "--::"]).all(axis=1)
    ok &= np.isin(chars[:, 10], [ord(c) for c in "Tt "])
    year = digits[:, 0] * 1000 + digits[:, 1] * 100 + digits[:, 2] * 10 + digits[:, 3]
    month, day, hour, minute, second = (digits[:, 4::2] * 10 + digits[:, 5::2]).T
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _DAYS_IN_MONTH[np.clip(month, 0, 12)] + ((month == 2) & leap)
    ok &= ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
           & (hour <= 23) & (minute <= 59) & (second <= 59))
    # days from 1970-01-01 in the proleptic Gregorian calendar, counting
    # years from March so that a leap day ends its year
    year = year - (month <= 2)
    era = year // 400
    year_of_era = year - era * 400
    day_of_year = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = (era * 146097 + year_of_era * 365 + year_of_era // 4 - year_of_era // 100
            + day_of_year - 719468)
    # the suffix (Z, z, +hh:mm, -hh:mm or nothing) starts at end; before
    # it comes nothing, or "." and digits, of which the first six are read
    rows = np.arange(n)
    zulu = np.isin(chars[rows, length - 1], [ord("Z"), ord("z")])
    signed = ~zulu & (length >= 25) & np.isin(chars[rows, length - 6], [ord("+"), ord("-")])
    end = length - zulu - 6 * signed
    fraction = chars[:, 20:]
    in_fraction = np.arange(20, width) < end[:, None]
    ok &= (end == 19) | ((end >= 21) & (chars[:, 19] == ord(".")))
    ok &= ((fraction >= ord("0")) & (fraction <= ord("9")) | ~in_fraction).all(axis=1)
    micro = in_fraction[:, :6] * (fraction[:, :6].astype(np.int64) - ord("0"))
    micros = ((days * 86400 + hour * 3600 + minute * 60 + second) * 10**6
              + micro @ 10 ** np.arange(5, 5 - micro.shape[1], -1))
    at = np.flatnonzero(signed)
    suffix = chars[at[:, None], end[at, None] + np.arange(6)]
    offset = suffix[:, [1, 2, 4, 5]].astype(np.int64) - ord("0")
    hh, mm = (offset[:, ::2] * 10 + offset[:, 1::2]).T
    ok[at] &= (((offset >= 0) & (offset <= 9)).all(axis=1) & (suffix[:, 3] == ord(":"))
               & (hh <= 23) & (mm <= 59))
    micros[at] -= np.where(suffix[:, 0] == ord("-"), -1, 1) * (hh * 60 + mm) * 60 * 10**6
    # float64 holds whole microseconds exactly only up to 2**53
    seconds = micros / 10**6
    exact = np.flatnonzero(ok & (np.abs(micros) > 2**53))
    seconds[exact] = [m / 10**6 for m in micros[exact].tolist()]
    return ok, seconds


def _coerce_text(value) -> str:
    """An id or label as text; None and blank are refused, and
    :func:`coerce_fields` names the missing field."""
    if value is None or value == "":
        raise ValidationError("missing field")
    return str(value)


def _convert_each(values: Sequence, convert: Callable) -> tuple[list, list[int]]:
    """``(converted, refused)``: ``convert`` of each value, None where it
    raises ValidationError, and the positions of those values."""
    converted, refused = [], []
    for position, value in enumerate(values):
        try:
            converted.append(convert(value))
        except ValidationError:
            converted.append(None)
            refused.append(position)
    return converted, refused


def _coerce_timestamps(values: Sequence) -> tuple[list, list[int]]:
    """:func:`_convert_each` with :func:`_coerce_timestamp`, with two kinds
    of value read without it: a float is itself where finite, and text
    that :func:`_rfc3339_seconds` decodes, stripped, :data:`TIMESTAMP_BLOCK`
    values at a time, is its seconds."""
    objects = np.fromiter(values, dtype=object, count=len(values))
    kinds = np.fromiter(map({type(None): 0, float: 1, str: 2}.get, map(type, values), repeat(3)),
                        dtype=np.int8, count=len(values))
    floats, texts = np.flatnonzero(kinds == 1), np.flatnonzero(kinds == 2)
    refused = floats[~np.isfinite(objects[floats].astype(float))].tolist()
    other = np.flatnonzero(kinds == 3).tolist()
    for start in range(0, len(texts), TIMESTAMP_BLOCK):
        block = texts[start:start + TIMESTAMP_BLOCK]
        stripped = [text.strip() for text in objects[block].tolist()]
        length = np.fromiter(map(len, stripped), dtype=np.int64, count=len(block))
        at = np.flatnonzero((length >= 19) & (length <= _STAMP_WIDTH))
        ok, seconds = _rfc3339_seconds([stripped[i] for i in at.tolist()], length[at])
        objects[block[at[ok]]] = seconds[ok]
        other += block[np.bincount(at[ok], minlength=len(block)) == 0].tolist()
    converted = objects.tolist()
    for i in other:
        try:
            converted[i] = _coerce_timestamp(values[i])
        except ValidationError:
            refused.append(i)
    return converted, refused


def _first_at(codes: np.ndarray, refused: Sequence[int]) -> int:
    """Position of the first code in ``refused``, or ``len(codes)``."""
    if not len(refused):
        return len(codes)
    hits = np.flatnonzero(np.isin(codes, refused))
    return int(hits[0]) if len(hits) else len(codes)


def coerce_record_columns(raw: RecordColumns):
    """Raw fields converted as :func:`coerce_fields` converts each record,
    once per distinct value of each field.

    Returns ``(columns, error)``. With no refused record, ``columns`` holds
    every record and ``error`` is None. Otherwise ``columns`` holds the
    records before the first refused one and ``error`` is ``(its position,
    the ValidationError coerce_fields raises for it)``.
    """
    n = len(raw)
    first, values = n, []
    for name, field_values, field_codes in zip(RECORD_FIELDS, raw.values, raw.codes):
        if name == "timestamp":
            converted, refused = _coerce_timestamps(field_values)
        else:
            converted, refused = _convert_each(
                field_values, _coerce_round if name == "round" else _coerce_text)
        first = min(first, _first_at(field_codes, refused))
        values.append(converted)
    columns = RecordColumns.from_codes(values, raw.codes)
    if first == n:
        return columns, None
    try:
        coerce_fields(*(v[c[first]] for v, c in zip(raw.values, raw.codes)))
    except ValidationError as exc:
        return columns[:first], (first, exc)
    raise AssertionError(f"row {first} refused by a column check but not by coerce_fields")


def collect_rows(rows: Iterable[tuple]) -> tuple[RecordColumns, ValidationError | None]:
    """``(columns, fault)``: the rows of six raw fields, in
    :data:`RECORD_FIELDS` order, gathered into :class:`RecordColumns`. A
    ValidationError raised while iterating ``rows`` ends the gathering and
    is the fault, with the rows read before it; otherwise fault is None."""
    raw = tuple([] for _ in RECORD_FIELDS)
    add_task, add_item, add_annotator, add_round, add_label, add_stamp = (
        column.append for column in raw)
    try:
        for task, item, annotator, rnd, label, stamp in rows:
            add_task(task)
            add_item(item)
            add_annotator(annotator)
            add_round(rnd)
            add_label(label)
            add_stamp(stamp)
    except ValidationError as exc:
        return RecordColumns(*raw), exc
    return RecordColumns(*raw), None


def _first_refused(columns: RecordColumns, k: int, refuse: Callable) -> int:
    """Position of the first record whose field ``k`` ``refuse`` is true
    of, or the record count."""
    return _first_at(columns.codes[k], [i for i, v in enumerate(columns.values[k]) if refuse(v)])


def validate_dataset(records: Iterable, schema: LabelSchema) -> AnnotationSet:
    """Check all invariants and build an :class:`AnnotationSet`.

    ``records`` is :class:`RecordColumns` or an iterable of
    :class:`AnnotationRecord` objects or field mappings. Unless every value
    has the type :func:`coerce_fields` returns, as the readers' do,
    :func:`coerce_record_columns` converts them first. Labels are normalised.
    Raises :class:`DuplicateCellError`, :class:`UnknownLabelError`,
    :class:`SchemaMismatchError` or :class:`ValidationError` for the first
    violating record; the record count is preserved on success. Every check
    runs on the distinct values of a field and on its codes.
    """
    raw, fault = (records, None) if isinstance(records, RecordColumns) \
        else collect_rows(map(raw_fields, records))
    types = [set(map(type, values)) for values in raw.values]
    typed = (all(types[k] <= {str} and "" not in raw.values[k] for k in (0, 1, 2, 4))
             and types[3] <= {int} and types[5] <= {float, type(None)})
    columns, error = (raw, None) if typed else coerce_record_columns(raw)
    error = error or (fault and (len(raw), fault))
    columns = RecordColumns.from_codes(
        (*columns.values[:4], map(normalize_label, columns.values[4]), columns.values[5]),
        columns.codes)
    codes = ColumnCodes.of(columns, schema.categories)
    categories = set(schema.categories)
    # None is coded NaN too: a NaN or inf code whose value is not None is a float stamp
    flagged = np.unique(columns.codes[5][~np.isfinite(codes.timestamp)]).tolist()
    nonfinite = [k for k in flagged if columns.values[5][k] is not None]
    # the first faulty record wins; within a record, the checks run in this order
    faults = [
        (_first_at(columns.codes[5], nonfinite), lambda p: NonFiniteError(
            f"record {p}: timestamp {columns[p].timestamp!r} is not finite")),
        (_first_refused(columns, 0, lambda t: t != schema.task_id), lambda p: SchemaMismatchError(
            f"record task_id {columns[p].task_id!r} != schema task_id {schema.task_id!r}")),
        (_first_refused(columns, 4, lambda x: x not in categories), lambda p: UnknownLabelError(
            f"label {columns[p].label!r} not in schema categories "
            f"for item {columns[p].item_id!r}")),
        (_first_refused(columns, 3, lambda r: r < 1), lambda p: ValidationError(
            f"round must be >= 1, got {columns[p].round}")),
        (codes.first_repeat(), lambda p: DuplicateCellError(
            "duplicate record for (item, annotator, round) "
            f"{(columns[p].item_id, columns[p].annotator_id, columns[p].round)}")),
    ]
    position, fault = min(faults, key=operator.itemgetter(0))
    if position < len(columns):
        raise fault(position)
    if error is not None:
        position, exc = error
        raise type(exc)(f"record {position}: {exc}") from exc
    return AnnotationSet(schema, codes)


def resolve_rounds(aset: AnnotationSet, rounds: int | Sequence[int] | None) -> tuple[int, ...]:
    """Normalise a round selector: None means every round in the set (an
    empty set raises DegenerateError naming the set, not the selector).

    A selector is one round or an iterable of them, each read by
    :func:`as_integer`; anything else raises InvalidConfigError.
    """
    if rounds is None:
        resolved = aset.rounds()
    else:
        selected = (rounds,) if isinstance(rounds, str) or not isinstance(rounds, Iterable) \
            else rounds
        try:
            resolved = tuple(sorted(set(map(as_integer, selected))))
        except (TypeError, ValueError) as exc:
            raise InvalidConfigError(f"bad round selector {rounds!r}: {exc}") from exc
    if not resolved:
        raise DegenerateError("the annotation set has no records" if rounds is None
                              else "round selector resolves to no rounds")
    return resolved


def build_repeat_pairs(aset: AnnotationSet, pairing: str = "consecutive") -> RepeatPairs:
    """One pair per (item, annotator, qualifying round pair), as
    :class:`RepeatPairs` coded against ``aset.codes``.

    Pairs come in (item, annotator) order, then in round order within a
    cell: ``consecutive`` pairs each round with the next, ``first_last``
    the first with the last, ``all_pairs`` every earlier round with every
    later one. With exactly two rounds all pairing policies coincide.
    Intervals come from timestamps when both ends carry one; a negative one
    raises ValidationError for the first such pair.
    """
    if pairing not in PAIRING_POLICIES:
        raise InvalidConfigError(f"pairing must be one of {PAIRING_POLICIES}, got {pairing!r}")
    codes = aset.codes
    order, bounds = codes.cell_runs
    starts, ends = bounds[:-1], bounds[1:]
    if pairing == "consecutive":
        # a position pairs with the next one unless it ends its cell
        pairs_next = np.ones(len(order), dtype=bool)
        pairs_next[ends - 1] = False
        first = np.flatnonzero(pairs_next)
        second = first + 1
    elif pairing == "first_last":
        repeated = ends - starts >= 2
        first, second = starts[repeated], ends[repeated] - 1
    else:
        sizes = ends - starts
        firsts, seconds = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
        for size in np.unique(sizes[sizes >= 2]).tolist():
            i, j = np.triu_indices(size, 1)
            at = starts[sizes == size][:, None]
            firsts.append((at + i).ravel())
            seconds.append((at + j).ravel())
        first, second = np.concatenate(firsts), np.concatenate(seconds)
        # cells occupy disjoint runs in order, so position order is pair order
        by_position = np.lexsort((second, first))
        first, second = first[by_position], second[by_position]
    if not len(first):
        raise NoRepeatsError("no annotator labelled any item in >= 2 rounds")
    first, second = order[first], order[second]
    pairs = RepeatPairs(
        codes.items, codes.annotators, codes.labels, codes.rounds,
        codes.item[first], codes.annotator[first], codes.label[first], codes.label[second],
        codes.round[first], codes.round[second],
        codes.timestamp[second] - codes.timestamp[first],
    )
    reversed_pairs = np.flatnonzero(pairs.interval < 0)
    if len(reversed_pairs):
        i = reversed_pairs[0]
        item, annotator = codes.items[pairs.item[i]], codes.annotators[pairs.annotator[i]]
        raise ValidationError(f"round {codes.rounds[pairs.second_round[i]]} predates round "
                              f"{codes.rounds[pairs.first_round[i]]} for ({item!r}, {annotator!r})")
    return pairs


def coincidence_blocks(
    aset: AnnotationSet, rounds: int | Sequence[int] | None = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each item's share of the coincidence matrix over the selected rounds.

    An item with m >= 2 labels and per-category counts c contributes
    ``outer(c, c)``, with ``c(c-1)`` on the diagonal, divided by m-1; items
    with fewer labels are left out. Returns ``(items, lowest, blocks)``:
    the item codes of the items that contribute, ordered by the lowest
    selected round each has, then by the position of its first record in
    that round, which is the order :func:`coincidence_counts` adds the
    blocks in; the code of that lowest round for each; and their blocks,
    stacked in that order.
    """
    codes = aset.codes
    at = codes.in_rounds(resolve_rounds(aset, rounds))
    # by round, then by position: an item's first record in this order is
    # its first record in its lowest selected round
    at = at[np.argsort(codes.round[at], kind="stable")]
    items, counts, first = codes.label_counts(codes.item, at)
    order = np.argsort(first)
    order = order[counts[order].sum(axis=1) >= 2]
    counts = counts[order].astype(float)
    blocks = counts[:, :, None] * counts[:, None, :]
    diagonal = np.arange(counts.shape[1])
    blocks[:, diagonal, diagonal] = counts * (counts - 1)
    blocks /= (counts.sum(axis=1) - 1)[:, None, None]
    return items[order], codes.round[at[first[order]]], blocks


def coincidence_counts(
    aset: AnnotationSet, rounds: int | Sequence[int] | None = 1
) -> np.ndarray:
    """Krippendorff coincidence matrix over the selected rounds: the sum of
    the :func:`coincidence_blocks`, added one after another in their order.

    Each item with m >= 2 labels contributes 1/(m-1) per ordered label pair;
    rows/columns follow ``schema.categories``.
    """
    _, _, blocks = coincidence_blocks(aset, rounds)
    if not len(blocks):
        raise DegenerateError("no item has >= 2 labels in the selected rounds")
    # a reduce over axis 0 adds the blocks in sequence, as ``matrix += block``
    return np.add.reduce(blocks, axis=0)
