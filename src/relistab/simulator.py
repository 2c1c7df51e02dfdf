"""Synthetic multi-round annotation data with known per-item causes.

Each generated item has one of five causes, chosen so that every cell of the
reliability x stability matrix has a ground-truth generator, with the
low/low cell split into two distinguishable mechanisms:

* ``straightforward`` — a fixed true label; every annotation independently
  flips to a uniformly chosen other label with probability base_error.
* ``subjective`` — the label is a deterministic function of the annotator's
  perspective group, identical in every round (no noise channel).
* ``ambiguous`` — every annotation is drawn uniformly over the categories,
  independently per round (memoryless).
* ``difficult`` — each annotator forms a persistent latent belief (the true
  label corrupted once with probability difficult_latent_error), then
  re-emits it each round with flip probability base_error + drift*(round-1).
* ``value_shift`` — everyone emits one label in round 1 and a different one
  from round 2 on (a simultaneous population-wide change, noise-free).

Randomness is drawn up front as index-addressed arrays from one seeded
generator, so each (item, annotator, round) cell reads a fixed position:
output is identical however the cells are traversed.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Mapping, Sequence

import numpy as np

from .association import RationalisationRecord
from .core import (
    AnnotationSet,
    LabelSchema,
    RecordColumns,
    as_integer,
    as_number,
    as_text,
    validate_dataset,
)
from .errors import CoverageMismatchError, EmptyInputError, InvalidConfigError
from .ingest import read_json_object
from .quadrant import Quadrant, QuadrantAssignment

CAUSES = ("straightforward", "subjective", "ambiguous", "difficult", "value_shift")

DEFAULT_CAUSE_QUADRANT: dict[str, Quadrant] = {
    "straightforward": Quadrant.STRAIGHTFORWARD,
    "subjective": Quadrant.SUBJECTIVE_PERSPECTIVES,
    "ambiguous": Quadrant.AMBIGUOUS_DIFFICULT_OR_POOR,
    "difficult": Quadrant.AMBIGUOUS_DIFFICULT_OR_POOR,
    "value_shift": Quadrant.SYSTEMATIC_ERROR_OR_VALUE_CHANGE,
}

#: synthetic clock origin (arbitrary fixed epoch; no wall clock anywhere)
BASE_TIMESTAMP = 1_600_000_000.0

#: two weeks, the classic recall-study gap
DEFAULT_ROUND_INTERVAL = 1_209_600.0


def _list(value) -> list:
    if not isinstance(value, list):
        raise TypeError(f"{value!r} is not a list")
    return value


#: how a :class:`SimConfig` field of each annotated type reads from JSON
_FROM_JSON = {
    "int": as_integer,
    "float": as_number,
    "str": as_text,
    "Mapping[str, int]": lambda obj: {as_text(k): as_integer(v) for k, v in obj.items()},
    "tuple[str, ...]": lambda obj: tuple(map(as_text, _list(obj))),
    "tuple[float, ...] | None":
        lambda obj: None if obj is None else tuple(map(as_number, _list(obj))),
}


@dataclass(frozen=True)
class SimConfig:
    n_annotators: int
    items_per_cause: Mapping[str, int]
    categories: tuple[str, ...]
    n_groups: int = 2
    rounds: int = 2
    interval_per_round: tuple[float, ...] | None = None
    base_error: float = 0.0
    drift: float = 0.0
    difficult_latent_error: float = 0.4
    seed: int = 0
    task_id: str = "sim"

    def __post_init__(self):
        for name in ("n_annotators", "n_groups", "rounds", "seed"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, as_integer(value))
            except (TypeError, ValueError) as exc:
                raise InvalidConfigError(f"{name} must be an integer, got {value!r}") from exc
        if self.n_annotators < 2:
            raise InvalidConfigError("n_annotators must be >= 2")
        if self.n_groups < 1:
            raise InvalidConfigError("n_groups must be >= 1")
        counts = dict(self.items_per_cause)
        unknown = sorted(set(counts) - set(CAUSES))
        if unknown:
            raise InvalidConfigError(f"unknown cause(s) {unknown}; valid: {CAUSES}")
        try:
            counts = {cause: as_integer(n) for cause, n in counts.items()}
        except (TypeError, ValueError) as exc:
            raise InvalidConfigError(
                "items_per_cause counts must be non-negative integers") from exc
        if any(n < 0 for n in counts.values()):
            raise InvalidConfigError("items_per_cause counts must be non-negative integers")
        if sum(counts.values()) < 1:
            raise InvalidConfigError("items_per_cause must total >= 1")
        object.__setattr__(self, "items_per_cause", counts)
        cats = tuple(str(c) for c in self.categories)
        if len(cats) not in (2, 3) or len(set(cats)) != len(cats):
            raise InvalidConfigError("categories must be 2 or 3 distinct labels")
        object.__setattr__(self, "categories", cats)
        if self.rounds < 2:
            raise InvalidConfigError("rounds must be >= 2")
        intervals = self.interval_per_round
        if intervals is None:
            intervals = (DEFAULT_ROUND_INTERVAL,) * (self.rounds - 1)
        try:
            if isinstance(intervals, str):
                raise TypeError(f"{intervals!r} is text")
            intervals = tuple(map(as_number, intervals))
        except (TypeError, ValueError) as exc:
            raise InvalidConfigError(
                f"interval_per_round must be a sequence of finite numbers: {exc}"
            ) from exc
        if len(intervals) != self.rounds - 1:
            raise InvalidConfigError(
                f"interval_per_round needs {self.rounds - 1} entries, got {len(intervals)}"
            )
        if any(v <= 0 for v in intervals):
            raise InvalidConfigError("intervals must be positive")
        with np.errstate(over="ignore"):
            if BASE_TIMESTAMP + np.cumsum(intervals)[-1] > 253_402_300_799:
                raise InvalidConfigError("intervals put a round past 9999-12-31T23:59:59Z")
        object.__setattr__(self, "interval_per_round", intervals)
        if not 0.0 <= self.base_error < 0.5:
            raise InvalidConfigError("base_error must lie in [0, 0.5)")
        if not (math.isfinite(self.drift) and self.drift >= 0.0):
            raise InvalidConfigError("drift must be finite and >= 0")
        if not 0.0 <= self.difficult_latent_error <= 1.0:
            raise InvalidConfigError("difficult_latent_error must lie in [0, 1]")
        if self.seed < 0:
            raise InvalidConfigError("seed must be >= 0")

    @classmethod
    def from_json(cls, obj: Mapping) -> "SimConfig":
        """Build from a JSON object keyed by field name; an absent key takes
        the field's default. Integers follow :func:`core.as_integer` (2.7 or
        true is refused, not truncated) and lists must be JSON lists."""
        if not isinstance(obj, Mapping):
            raise InvalidConfigError("simulation config must be a JSON object")
        known = {f.name: f for f in fields(cls)}
        unknown = sorted(set(obj) - set(known))
        if unknown:
            raise InvalidConfigError(f"unknown simulation config key(s) {unknown}")
        for name, f in known.items():
            if f.default is MISSING and name not in obj:
                raise InvalidConfigError(f"simulation config missing key {name!r}")
        values = {}
        for name, value in obj.items():
            try:
                values[name] = _FROM_JSON[known[name].type](value)
            except (TypeError, ValueError, AttributeError) as exc:
                raise InvalidConfigError(
                    f"bad simulation config value for {name!r}: {value!r}"
                ) from exc
        return cls(**values)

    def to_json(self) -> dict:
        return {
            "n_annotators": self.n_annotators,
            "items_per_cause": dict(self.items_per_cause),
            "categories": list(self.categories),
            "n_groups": self.n_groups,
            "rounds": self.rounds,
            "interval_per_round": list(self.interval_per_round),
            "base_error": self.base_error,
            "drift": self.drift,
            "difficult_latent_error": self.difficult_latent_error,
            "seed": self.seed,
            "task_id": self.task_id,
        }


@dataclass(frozen=True)
class SimTruth:
    """What the generator knows: the cause and intended label(s) per item.

    ``labels[item]`` is the true label (straightforward/difficult), the
    per-group label tuple (subjective), the (before, after) pair
    (value_shift), or None (ambiguous — there is nothing to recover).
    """

    causes: dict[str, str]
    labels: dict[str, object]

    def to_json(self) -> dict:
        return dict(sorted(self.causes.items()))


def _flip(indices: np.ndarray, flips: np.ndarray, offsets: np.ndarray, k: int) -> np.ndarray:
    """Where flips is true, replace each index by a uniformly chosen other."""
    return np.where(flips, (indices + 1 + offsets) % k, indices)


def simulate(config: SimConfig) -> tuple[AnnotationSet, SimTruth]:
    """Generate one dataset and its ground truth, deterministically per seed."""
    rng = np.random.default_rng(config.seed)
    k = len(config.categories)
    n_ann = config.n_annotators
    n_rounds = config.rounds
    width = max(3, len(str(n_ann - 1)))
    annotator_ids = [f"a{j:0{width}d}" for j in range(n_ann)]
    groups = np.array([j % config.n_groups for j in range(n_ann)])
    timestamps = BASE_TIMESTAMP + np.concatenate(
        ([0.0], np.cumsum(config.interval_per_round))
    )
    flip_prob = np.minimum(
        config.base_error + config.drift * np.arange(n_rounds), 1.0
    )

    causes: dict[str, str] = {}
    truth_labels: dict[str, object] = {}
    #: per cause, the (n_items, n_ann, n_rounds) category indices of its items
    label_blocks: list[np.ndarray] = []

    for cause in CAUSES:
        n_items = config.items_per_cause.get(cause, 0)
        if n_items == 0:
            continue
        if cause == "straightforward":
            truth = np.arange(n_items) % k
            flips = rng.random((n_items, n_ann, n_rounds)) < config.base_error
            offsets = rng.integers(0, k - 1, size=(n_items, n_ann, n_rounds))
            labels = _flip(truth[:, None, None] * np.ones((1, n_ann, n_rounds), dtype=int),
                           flips, offsets, k)
        elif cause == "subjective":
            group_labels = (np.arange(n_items)[:, None] + np.arange(config.n_groups)[None, :]) % k
            labels = np.repeat(
                group_labels[:, groups][:, :, None], n_rounds, axis=2
            )
        elif cause == "ambiguous":
            labels = rng.integers(0, k, size=(n_items, n_ann, n_rounds))
        elif cause == "difficult":
            truth = np.arange(n_items) % k
            latent_flips = rng.random((n_items, n_ann)) < config.difficult_latent_error
            latent_offsets = rng.integers(0, k - 1, size=(n_items, n_ann))
            latent = _flip(np.broadcast_to(truth[:, None], (n_items, n_ann)).copy(),
                           latent_flips, latent_offsets, k)
            emit_flips = rng.random((n_items, n_ann, n_rounds)) < flip_prob[None, None, :]
            emit_offsets = rng.integers(0, k - 1, size=(n_items, n_ann, n_rounds))
            labels = _flip(np.repeat(latent[:, :, None], n_rounds, axis=2),
                           emit_flips, emit_offsets, k)
        else:  # value_shift
            before = np.arange(n_items) % k
            after = (before + 1) % k
            labels = np.repeat(after[:, None, None], n_rounds, axis=2) * np.ones(
                (1, n_ann, 1), dtype=int
            )
            labels[:, :, 0] = before[:, None]
        for i in range(n_items):
            item_id = f"{cause}_{i:04d}"
            causes[item_id] = cause
            if cause in ("straightforward", "difficult"):
                truth_labels[item_id] = config.categories[(i % k)]
            elif cause == "subjective":
                truth_labels[item_id] = tuple(
                    config.categories[(i + g) % k] for g in range(config.n_groups)
                )
            elif cause == "value_shift":
                truth_labels[item_id] = (
                    config.categories[i % k],
                    config.categories[(i + 1) % k],
                )
            else:
                truth_labels[item_id] = None
        label_blocks.append(labels)

    # records run item by item, then annotator, then round, as the blocks do
    record = np.arange(len(causes) * n_ann * n_rounds)
    round_code = record % n_rounds
    columns = RecordColumns.from_codes(
        ((config.task_id,), tuple(causes), annotator_ids, range(1, n_rounds + 1),
         config.categories, timestamps.tolist()),
        (np.zeros_like(record), record // (n_ann * n_rounds), record // n_rounds % n_ann,
         round_code, np.concatenate([block.reshape(-1) for block in label_blocks]), round_code),
    )
    schema = LabelSchema(task_id=config.task_id, categories=config.categories)
    aset = validate_dataset(columns, schema)
    return aset, SimTruth(causes=causes, labels=truth_labels)


def recovery_accuracy(
    assignments: Sequence[QuadrantAssignment],
    truth: SimTruth,
    cause_to_quadrant: Mapping[str, Quadrant] | None = None,
) -> float:
    """Fraction of assignments matching the quadrant implied by the cause.

    Item-scope assignments are matched by item id; a single dataset-scope
    assignment requires a single-cause truth. Subjects present on one side
    only raise CoverageMismatchError.
    """
    mapping = dict(DEFAULT_CAUSE_QUADRANT if cause_to_quadrant is None else cause_to_quadrant)
    if not assignments:
        raise EmptyInputError("no assignments to score")
    if len(assignments) == 1 and assignments[0].scope == "dataset":
        distinct = sorted(set(truth.causes.values()))
        if len(distinct) != 1:
            raise CoverageMismatchError(
                f"dataset-scope assignment but truth mixes causes {distinct}"
            )
        return 1.0 if assignments[0].quadrant == mapping[distinct[0]] else 0.0
    hits = 0
    for assignment in assignments:
        if assignment.scope != "item":
            raise CoverageMismatchError("mixed assignment scopes are not comparable")
        cause = truth.causes.get(assignment.subject_id)
        if cause is None:
            raise CoverageMismatchError(f"no truth for item {assignment.subject_id!r}")
        if assignment.quadrant == mapping[cause]:
            hits += 1
    return hits / len(assignments)


def rationalisations_from_truth(truth: SimTruth, rater_id: str = "cause_oracle"):
    """Meta-labels implied by the generator, for items whose cause is one of
    the three rationalisation categories (subjective/ambiguous/difficult)."""
    return [
        RationalisationRecord(item_id=item, rater_id=rater_id, label=cause)
        for item, cause in sorted(truth.causes.items())
        if cause in ("subjective", "ambiguous", "difficult")
    ]


def load_sim_config(path) -> SimConfig:
    return SimConfig.from_json(read_json_object(path, "simulation config"))
