"""Validated data model for round-tagged annotations.

The central object is :class:`AnnotationSet`: an immutable, indexed
collection of ``(item, annotator, round) -> label`` records against a
:class:`LabelSchema`. Stability analyses consume :class:`RepeatPair` objects
built from it; Krippendorff-style reliability consumes the coincidence
matrix.
"""

from __future__ import annotations

import math
import operator
import unicodedata
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from typing import Iterable, Mapping, Sequence

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
    numeric_values: Mapping[str, float] | None = None

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
        if self.scale_kind == "interval":
            values = self.numeric_values or {}
            missing = [c for c in cats if c not in values]
            if missing:
                raise InvalidConfigError(
                    f"interval schema lacks numeric_values for {missing}"
                )
            object.__setattr__(
                self,
                "numeric_values",
                {normalize_label(k): float(v) for k, v in values.items()},
            )
        elif self.numeric_values is not None:
            object.__setattr__(
                self,
                "numeric_values",
                {normalize_label(k): float(v) for k, v in self.numeric_values.items()},
            )

    def category_index(self) -> dict[str, int]:
        return {c: i for i, c in enumerate(self.categories)}

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


@dataclass(frozen=True)
class RepeatPair:
    """One annotator's labels for the same item from two rounds."""

    item_id: str
    annotator_id: str
    first_label: str
    second_label: str
    first_round: int
    second_round: int
    interval_seconds: float | None = None

    @property
    def consistent(self) -> bool:
        return self.first_label == self.second_label


@dataclass(frozen=True)
class AnnotationSet:
    """Immutable, validated collection of annotation records.

    Construct through :func:`validate_dataset`; the constructor assumes the
    invariants already hold and only builds the lookup structures:
    ``_by_item_round`` maps (item, round) to its sorted (annotator, label)
    entries and ``_by_cell`` maps (item, annotator) to its sorted (round,
    label, timestamp) history, both in first-seen order of their keys.
    """

    schema: LabelSchema
    records: tuple[AnnotationRecord, ...]
    _by_item_round: dict = field(repr=False, compare=False, init=False)
    _by_cell: dict = field(repr=False, compare=False, init=False)
    _blocks: dict | None = field(repr=False, compare=False, init=False, default=None)

    def __post_init__(self):
        by_item_round = {}
        by_cell = {}
        for rec in self.records:
            by_item_round.setdefault((rec.item_id, rec.round), []).append(
                (rec.annotator_id, rec.label)
            )
            by_cell.setdefault((rec.item_id, rec.annotator_id), []).append(
                (rec.round, rec.label, rec.timestamp)
            )
        for entries in by_item_round.values():
            entries.sort()
        for entries in by_cell.values():
            entries.sort()
        object.__setattr__(self, "_by_item_round", by_item_round)
        object.__setattr__(self, "_by_cell", by_cell)

    @classmethod
    def _from_indexes(cls, schema, records, by_item_round, by_cell) -> "AnnotationSet":
        """A set over ``records`` with both indexes built by the caller, with
        the contents and key order ``__post_init__`` would give them."""
        aset = object.__new__(cls)
        for name, value in (("schema", schema), ("records", records), ("_blocks", None),
                            ("_by_item_round", by_item_round), ("_by_cell", by_cell)):
            object.__setattr__(aset, name, value)
        return aset

    def _item_blocks(self) -> dict[str, tuple[tuple, tuple, tuple]]:
        """item -> (its records, its rounds, its annotators), the rounds and
        annotators in first-seen order; built on first use and kept."""
        if self._blocks is None:
            grouped: dict[str, list[AnnotationRecord]] = {}
            for rec in self.records:
                grouped.setdefault(rec.item_id, []).append(rec)
            blocks = {
                item: (
                    tuple(recs),
                    tuple(dict.fromkeys(rec.round for rec in recs)),
                    tuple(dict.fromkeys(rec.annotator_id for rec in recs)),
                )
                for item, recs in grouped.items()
            }
            object.__setattr__(self, "_blocks", blocks)
        return self._blocks

    def __len__(self) -> int:
        return len(self.records)

    def items(self) -> tuple[str, ...]:
        return tuple(sorted({r.item_id for r in self.records}))

    def annotators(self) -> tuple[str, ...]:
        return tuple(sorted({r.annotator_id for r in self.records}))

    def rounds(self) -> tuple[int, ...]:
        return tuple(sorted({r.round for r in self.records}))

    def label(self, item_id: str, annotator_id: str, round: int) -> str | None:
        for rnd, lbl, _ in self._by_cell.get((item_id, annotator_id), ()):
            if rnd == round:
                return lbl
        return None

    def unit_labels(self, rounds: Sequence[int]) -> dict[str, list[str]]:
        """Labels pooled per item over the given rounds (annotator-sorted)."""
        pooled: dict[str, list[str]] = {}
        for rnd in rounds:
            for (item, r), entries in self._by_item_round.items():
                if r == rnd:
                    pooled.setdefault(item, []).extend(lbl for _, lbl in entries)
        return pooled

    def round_units(self, rounds: Sequence[int]) -> dict[tuple[str, int], list[tuple[str, str]]]:
        """(item, round) -> [(annotator, label)] for the given rounds."""
        wanted = set(rounds)
        return {
            key: list(entries)
            for key, entries in self._by_item_round.items()
            if key[1] in wanted
        }

    def cell_history(self, item_id: str, annotator_id: str) -> list[tuple[int, str, float | None]]:
        return list(self._by_cell.get((item_id, annotator_id), ()))

    def cells(self) -> dict[tuple[str, str], list[tuple[int, str, float | None]]]:
        return {key: list(v) for key, v in self._by_cell.items()}


def parse_rfc3339(text: str) -> float:
    """RFC 3339 timestamp text -> POSIX epoch seconds (naive text is UTC)."""
    cleaned = text.strip()
    # Python 3.10's fromisoformat rejects the Z suffix.
    if cleaned.endswith(("Z", "z")):
        cleaned = cleaned[:-1] + "+00:00"
    try:
        parsed = datetime.fromisoformat(cleaned)
    except ValueError as exc:
        raise ValidationError(f"bad RFC 3339 timestamp {text!r}") from exc
    if parsed.tzinfo is None:
        parsed = parsed.replace(tzinfo=timezone.utc)
    return parsed.timestamp()


RECORD_FIELDS = ("task_id", "item_id", "annotator_id", "round", "label", "timestamp")
_REQUIRED_FIELDS = RECORD_FIELDS[:5]


def as_integer(value) -> int:
    """An int, an integral float or the text of an integer, as an int.

    A bool or a fractional float raises ValueError. This is the one rule for
    integers read from data or configs: rounds, seeds and counts.
    """
    if type(value) is int:  # not bool
        return value
    if isinstance(value, str):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, (bool, float)):
        raise ValueError(f"{value!r} is not an integer")
    return operator.index(value)


def as_number(value) -> float:
    """A finite number or the text of one, as a float; a bool is refused."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not a number")
    result = float(value)
    if not math.isfinite(result):
        raise ValueError(f"{value!r} is not finite")
    return result


def as_text(value) -> str:
    """``value`` if it is a string (a path or a name); nothing is coerced."""
    if not isinstance(value, str):
        raise TypeError(f"{value!r} is not a string")
    return value


def _as_timestamp(value) -> float | None:
    if isinstance(value, str):
        value = value.strip()
        if not value:
            return None
        # text with a time of day is RFC 3339; skip the failing float()
        if ":" in value:
            return parse_rfc3339(value)
        try:
            return float(value)
        except ValueError:
            return parse_rfc3339(value)
    return None if value is None else float(value)


def coerce_record(raw: Mapping) -> AnnotationRecord:
    """The one conversion of raw fields (a CSV row, a JSON object or any
    mapping) into an :class:`AnnotationRecord`.

    The ids and the label are required and non-empty and become strings.
    ``round`` is an integer, an integral float or the text of an integer.
    ``timestamp`` is optional: absent, None or blank means none; otherwise
    epoch seconds as a number or as text, or RFC 3339 text, and finite.
    Labels are kept as given; :func:`validate_dataset` normalises them.
    """
    # dict first: the Mapping ABC check alone costs a sizeable share of a row
    if not isinstance(raw, (dict, Mapping)):
        raise ValidationError(f"expected a mapping of record fields, got {type(raw).__name__}")
    values = tuple(map(raw.get, _REQUIRED_FIELDS))
    if None in values or "" in values:
        missing = [f for f, v in zip(_REQUIRED_FIELDS, values) if v is None or v == ""]
        raise ValidationError(f"missing field(s) {missing}")
    task_id, item_id, annotator_id, rnd, label = values
    try:
        rnd = as_integer(rnd)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"round {rnd!r} is not an integer") from exc
    try:
        stamp = _as_timestamp(raw.get("timestamp"))
    except (TypeError, ValueError, OverflowError, ValidationError) as exc:
        raise ValidationError(f"bad timestamp {raw['timestamp']!r}") from exc
    if stamp is not None and not math.isfinite(stamp):
        raise NonFiniteError(f"timestamp {raw['timestamp']!r} is not finite")
    return AnnotationRecord(
        task_id=str(task_id),
        item_id=str(item_id),
        annotator_id=str(annotator_id),
        round=rnd,
        label=str(label),
        timestamp=stamp,
    )


def validate_dataset(records: Iterable, schema: LabelSchema) -> AnnotationSet:
    """Check all invariants and build an :class:`AnnotationSet`.

    Records are :class:`AnnotationRecord` objects or field mappings, which
    go through :func:`coerce_record`; labels are normalised. Raises
    :class:`DuplicateCellError`, :class:`UnknownLabelError` or
    :class:`SchemaMismatchError` on the first violating record; the record
    count is preserved on success.
    """
    categories = set(schema.categories)
    seen: set[tuple[str, str, int]] = set()
    validated: list[AnnotationRecord] = []
    for position, rec in enumerate(records):
        if not isinstance(rec, AnnotationRecord):
            try:
                rec = coerce_record(rec)
            except ValidationError as exc:
                raise type(exc)(f"record {position}: {exc}") from exc
        elif type(rec.round) is not int:  # not bool
            raise ValidationError(f"record {position}: round {rec.round!r} is not an integer")
        label = normalize_label(rec.label)
        if label != rec.label:
            rec = replace(rec, label=label)
        if rec.task_id != schema.task_id:
            raise SchemaMismatchError(
                f"record task_id {rec.task_id!r} != schema task_id {schema.task_id!r}"
            )
        if rec.label not in categories:
            raise UnknownLabelError(
                f"label {rec.label!r} not in schema categories for item {rec.item_id!r}"
            )
        if rec.round < 1:
            raise ValidationError(f"round must be >= 1, got {rec.round}")
        key = (rec.item_id, rec.annotator_id, rec.round)
        if key in seen:
            raise DuplicateCellError(f"duplicate record for (item, annotator, round) {key}")
        seen.add(key)
        validated.append(rec)
    return AnnotationSet(schema=schema, records=tuple(validated))


def resolve_rounds(aset: AnnotationSet, rounds: int | Sequence[int] | None) -> tuple[int, ...]:
    """Normalise a round selector: None means every round in the set."""
    if rounds is None:
        resolved = aset.rounds()
    elif isinstance(rounds, int):
        resolved = (rounds,)
    else:
        resolved = tuple(sorted(set(int(r) for r in rounds)))
    if not resolved:
        raise DegenerateError("round selector resolves to no rounds")
    return resolved


def build_repeat_pairs(aset: AnnotationSet, pairing: str = "consecutive") -> list[RepeatPair]:
    """One RepeatPair per (item, annotator, qualifying round pair).

    With exactly two rounds all pairing policies coincide. Intervals come
    from timestamps when both ends carry one.
    """
    if pairing not in PAIRING_POLICIES:
        raise InvalidConfigError(f"pairing must be one of {PAIRING_POLICIES}, got {pairing!r}")
    pairs: list[RepeatPair] = []
    for (item, annotator), history in sorted(aset.cells().items()):
        if len(history) < 2:
            continue
        if pairing == "consecutive":
            combos = list(zip(history, history[1:]))
        elif pairing == "first_last":
            combos = [(history[0], history[-1])]
        else:
            combos = [
                (history[i], history[j])
                for i in range(len(history))
                for j in range(i + 1, len(history))
            ]
        for (r1, l1, t1), (r2, l2, t2) in combos:
            interval = None
            if t1 is not None and t2 is not None:
                interval = t2 - t1
                if interval < 0:
                    raise ValidationError(
                        f"round {r2} predates round {r1} for ({item!r}, {annotator!r})"
                    )
            pairs.append(
                RepeatPair(
                    item_id=item,
                    annotator_id=annotator,
                    first_label=l1,
                    second_label=l2,
                    first_round=r1,
                    second_round=r2,
                    interval_seconds=interval,
                )
            )
    if not pairs:
        raise NoRepeatsError("no annotator labelled any item in >= 2 rounds")
    return pairs


def coincidence_blocks(
    aset: AnnotationSet, rounds: int | Sequence[int] | None = 1
) -> dict[str, np.ndarray]:
    """Each item's share of the coincidence matrix over the selected rounds.

    An item with m >= 2 labels and per-category counts c contributes
    ``outer(c, c)``, with ``c(c-1)`` on the diagonal, divided by m-1; items
    with fewer labels are left out. Keys follow :meth:`AnnotationSet.unit_labels`
    order, the order :func:`coincidence_counts` adds the blocks in.
    """
    resolved = resolve_rounds(aset, rounds)
    cat_index = aset.schema.category_index()
    k = len(aset.schema.categories)
    blocks = {}
    for item, labels in aset.unit_labels(resolved).items():
        m = len(labels)
        if m < 2:
            continue
        counts = np.zeros(k, dtype=float)
        for lbl in labels:
            counts[cat_index[lbl]] += 1
        pair_counts = np.outer(counts, counts)
        np.fill_diagonal(pair_counts, counts * (counts - 1))
        blocks[item] = pair_counts / (m - 1)
    return blocks


def coincidence_counts(
    aset: AnnotationSet, rounds: int | Sequence[int] | None = 1
) -> np.ndarray:
    """Krippendorff coincidence matrix over the selected rounds: the sum of
    the :func:`coincidence_blocks`, added one after another in their order.

    Each item with m >= 2 labels contributes 1/(m-1) per ordered label pair;
    rows/columns follow ``schema.categories``.
    """
    blocks = coincidence_blocks(aset, rounds)
    if not blocks:
        raise DegenerateError("no item has >= 2 labels in the selected rounds")
    # a reduce over axis 0 adds the blocks in sequence, as ``matrix += block``
    return np.add.reduce(np.stack(list(blocks.values())), axis=0)
