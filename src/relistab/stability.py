"""Within-annotator consistency across repeat rounds.

The unit of analysis is the repeat pair: one annotator's (first, second)
labels for one item. Pairs are held as arrays
(:class:`~relistab.core.RepeatPairs`), and every function here reads those
arrays or the set's integer-coded columns. Three scopes are reported — per
annotator, per item (a binary stable/unstable call plus a graded rate), and
pooled over the dataset — and consistency can be profiled against the
elapsed time between rounds.

The annotator and dataset scopes read a :class:`RepeatTable`, the pairs
counted per (item, annotator, first label, second label). Every number they
report is a ratio of integer counts, so a bootstrap replicate is the same
table with each item's rows scaled by how often the item was drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache
from typing import Callable, Sequence

import numpy as np

from .core import AnnotationSet, RepeatPairs, build_repeat_pairs, require_seed
from .errors import (
    InvalidConfigError,
    NoIntervalsError,
    NoRepeatsError,
    TooFewBucketsError,
    ValidationError,
)

#: bucket edges in seconds: same-session, < 1 day, < 1 week, < 1 month, rest
DEFAULT_BUCKET_EDGES = (3600.0, 86400.0, 604800.0, 2592000.0)


@dataclass(frozen=True)
class StabilityResult:
    """Exact repeat consistency (and its chance-corrected companion)."""

    scope: str
    subject_id: str | None
    exact_rate: float
    self_kappa: float
    n_pairs: int

    def __post_init__(self):
        if self.scope not in ("annotator", "item", "dataset"):
            raise InvalidConfigError(f"unknown stability scope {self.scope!r}")
        if self.n_pairs < 1:
            raise InvalidConfigError("n_pairs must be >= 1")
        if not 0.0 <= self.exact_rate <= 1.0:
            raise InvalidConfigError(f"exact_rate {self.exact_rate} outside [0, 1]")

    def to_report(self) -> dict:
        return {
            "scope": self.scope,
            "subject_id": self.subject_id,
            "exact_rate": self.exact_rate,
            "self_kappa": self.self_kappa,
            "n_pairs": self.n_pairs,
        }


@dataclass(frozen=True)
class ItemStabilityLabel:
    """Binary stability call for one item, plus the graded rate behind it.

    ``stable`` means every annotator who labelled the item in more than one
    round gave identical labels each time; annotators who labelled it only
    once do not vote.
    """

    item_id: str
    label: str
    n_annotators_repeating: int
    stability_rate: float

    @property
    def stable(self) -> bool:
        return self.label == "stable"

    def to_report(self) -> dict:
        return {
            "item_id": self.item_id,
            "stability": self.label,
            "stability_rate": self.stability_rate,
            "n_annotators_repeating": self.n_annotators_repeating,
        }


@dataclass(frozen=True)
class IntervalBucket:
    low: float
    high: float
    exact_rate: float
    n_pairs: int

    def to_report(self) -> dict:
        return {
            "low": self.low,
            "high": None if math.isinf(self.high) else self.high,
            "exact_rate": self.exact_rate,
            "n_pairs": self.n_pairs,
        }


@dataclass(frozen=True)
class IntervalProfile:
    """Consistency per label-relabel interval bucket, with a trend test."""

    buckets: tuple[IntervalBucket, ...]
    trend_rho: float
    trend_p: float | None

    def to_report(self) -> dict:
        return {
            "buckets": [b.to_report() for b in self.buckets],
            "trend": {"rho": self.trend_rho, "p": self.trend_p},
        }


@dataclass(frozen=True, eq=False)
class RepeatTable:
    """Repeat pairs as integer counts.

    One row per (item, annotator, first label, second label) that occurs,
    sorted by item, then annotator; ``count`` is how many pairs the row
    stands for. ``item`` indexes ``items`` (the set's items in
    ``aset.items()`` order, with or without pairs); ``joint`` is the row's
    position in the flattened annotators x labels x labels count table,
    annotators indexing ``annotators`` and labels ``aset.codes.labels``
    (the categories, then any other label; ``n_labels`` of them).
    """

    items: tuple[str, ...]
    annotators: tuple[str, ...]
    n_labels: int
    item: np.ndarray
    joint: np.ndarray
    count: np.ndarray

    def reweighted(self, weights: np.ndarray) -> "RepeatTable":
        """The table of a replicate that holds item ``i`` ``weights[i]``
        times: every duplicate of an item repeats all of its pairs."""
        return replace(self, count=self.count * weights[self.item])


def repeat_table(aset: AnnotationSet, pairs: RepeatPairs) -> RepeatTable:
    """The :class:`RepeatTable` of ``pairs``, which
    :func:`~relistab.core.build_repeat_pairs` made from ``aset``: their
    codes are positions in ``aset.codes``."""
    items, annotators = aset.items(), aset.annotators()
    k = len(pairs.labels)
    cell = pairs.item * len(annotators) + pairs.annotator
    keys, count = np.unique((cell * k + pairs.first_label) * k + pairs.second_label,
                            return_counts=True)
    item, joint = np.divmod(keys, len(annotators) * k * k)
    return RepeatTable(items, annotators, k, item, joint, count)


def _as_table(source: "AnnotationSet | RepeatTable", pairing: str) -> RepeatTable:
    if isinstance(source, RepeatTable):
        return source
    return repeat_table(source, build_repeat_pairs(source, pairing))


def _chance_corrected(observed: float, expected: float) -> float:
    """(observed - expected) / (1 - expected), the kappa family's correction.

    Expected agreement 1 means every label is in one category, so observed
    agreement is 1 as well and the result is 1.0.
    """
    if expected >= 1.0 - 1e-15:
        return 1.0
    return (observed - expected) / (1.0 - expected)


def counts_kappa(n: int, agree: int, chance: int) -> float:
    """Cohen's kappa from integer counts of ``n`` pairs: ``agree`` of them
    equal, and ``chance`` the sum over labels of (rater 1's count) x (rater
    2's count). Po and Pe are int / int, so any caller holding the same
    counts gets the same float."""
    return _chance_corrected(agree / n, chance / (n * n))


def _annotator_counts(table: RepeatTable) -> list[tuple[str, int, int, float]]:
    """(annotator, pairs, agreeing pairs, self-kappa) per annotator with a
    pair, in the order of their first row: the order in which sorted
    (item, annotator) cells first reach them, also in a resampled set,
    since a duplicate id ``x~k`` sorts after ``x``."""
    k, n_annotators = table.n_labels, len(table.annotators)
    joint = np.bincount(table.joint, weights=table.count, minlength=n_annotators * k * k)
    joint = joint.astype(np.int64).reshape(n_annotators, k, k)
    n = joint.sum(axis=(1, 2)).tolist()
    agree = np.trace(joint, axis1=1, axis2=2).tolist()
    chance = (joint.sum(axis=2) * joint.sum(axis=1)).sum(axis=1).tolist()
    present, first_row = np.unique(table.joint[table.count > 0] // (k * k), return_index=True)
    if not len(present):
        raise NoRepeatsError("no annotator labelled any item in >= 2 rounds")
    return [
        (table.annotators[a], n[a], agree[a], counts_kappa(n[a], agree[a], chance[a]))
        for a in present[np.argsort(first_row)].tolist()
    ]


def annotator_stability(
    source: "AnnotationSet | RepeatTable", pairing: str = "consecutive"
) -> list[StabilityResult]:
    """Per-annotator results for every annotator with a repeat pair, sorted
    by annotator id. ``source`` is a set, paired under ``pairing``, or a
    :class:`RepeatTable` already paired."""
    return [
        StabilityResult(
            scope="annotator", subject_id=annotator, exact_rate=agree / n,
            self_kappa=kappa, n_pairs=n,
        )
        for annotator, n, agree, kappa in sorted(_annotator_counts(_as_table(source, pairing)))
    ]


def item_votes(aset: AnnotationSet) -> dict[str, list[bool]]:
    """Per item, one vote per annotator who labelled it in >= 2 rounds: True
    iff all the labels they gave it (over every round) are identical.

    Items come in id order and votes in annotator id order; items nobody
    relabelled are absent.
    """
    codes = aset.codes
    order, bounds = codes.cell_runs
    starts, sizes = bounds[:-1], np.diff(bounds)
    repeated = sizes >= 2
    if not repeated.any():
        return {}
    # a cell is consistent iff its smallest label code is its largest
    labels = codes.label[order]
    consistent = np.minimum.reduceat(labels, starts) == np.maximum.reduceat(labels, starts)
    item = codes.item[order[starts[repeated]]]
    first_vote = np.flatnonzero(np.diff(item, prepend=-1))
    return dict(zip(
        map(codes.items.__getitem__, item[first_vote].tolist()),
        (votes.tolist() for votes in np.split(consistent[repeated], first_vote[1:])),
    ))


def item_stability_labels(aset: AnnotationSet) -> list[ItemStabilityLabel]:
    """Stable/unstable call per item that has at least one repeat pair.

    The item is stable iff every repeating annotator is consistent (see
    :func:`item_votes`). Items without repeats are omitted (see
    :func:`items_without_repeats`).
    """
    per_item = item_votes(aset)
    if not per_item:
        raise NoRepeatsError("no item has a repeat pair")
    out = []
    for item in sorted(per_item):
        votes = per_item[item]
        consistent = sum(votes)
        out.append(
            ItemStabilityLabel(
                item_id=item,
                label="stable" if consistent == len(votes) else "unstable",
                n_annotators_repeating=len(votes),
                stability_rate=consistent / len(votes),
            )
        )
    return out


def items_without_repeats(aset: AnnotationSet) -> tuple[str, ...]:
    """Items omitted from stability labelling (nobody relabelled them)."""
    return tuple(sorted(set(aset.items()) - set(item_votes(aset))))


def dataset_stability(
    source: "AnnotationSet | RepeatTable", pairing: str = "consecutive"
) -> StabilityResult:
    """Pooled repeat consistency: exact_rate over every pair in the dataset,
    self_kappa as the mean per-annotator kappa, taken in the order
    annotators first appear in (item, annotator) order. ``source`` is
    a set, paired under ``pairing``, or a :class:`RepeatTable` already
    paired (and perhaps reweighted)."""
    per_annotator = _annotator_counts(_as_table(source, pairing))
    total = sum(n for _, n, _, _ in per_annotator)
    return StabilityResult(
        scope="dataset",
        subject_id=None,
        exact_rate=sum(agree for _, _, agree, _ in per_annotator) / total,
        self_kappa=float(np.mean([kappa for _, _, _, kappa in per_annotator])),
        n_pairs=total,
    )


def score_gather(aset: AnnotationSet, call) -> Callable[[np.ndarray | None], float]:
    """The gather of a stability score (see ``reliability.Metric``): ``aset``
    is paired once, on first use, and a replicate scores its
    :class:`RepeatTable` with each item's rows scaled by how often the item
    is drawn, which gives the score of the resampled set paired again."""
    table = cache(lambda: _as_table(aset, "consecutive"))

    def value(positions: np.ndarray | None) -> float:
        if positions is None:
            return call(table())
        return call(table().reweighted(np.bincount(positions, minlength=len(aset.items()))))

    return value


def _ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, a tied group sharing the mean of its positions."""
    ordered = np.sort(values)
    below, upto = np.searchsorted(ordered, values), np.searchsorted(ordered, values, "right")
    return (below + upto + 1) / 2.0


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation with average ranks; 0.0 when either side
    is constant (the all-ties convention)."""
    rx, ry = _ranks(x), _ranks(y)
    sx, sy = rx.std(), ry.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(np.mean((rx - rx.mean()) * (ry - ry.mean())) / (sx * sy))


def _every_shuffle_hits(rho: float, sizes: np.ndarray, total: int) -> bool:
    """Whether every shuffle of ``total`` consistent pairs into buckets of
    ``sizes`` reaches ``|rho| - 1e-12``: when rho is 0, or with two buckets
    (``s0 + s1 = n``) whose rates never tie (so |rho| is 1): ``total * s0 / n``
    is not whole; below 2**26 pairs a bucket, floats tie only as fractions do."""
    return abs(rho) <= 1e-12 or (len(sizes) == 2 and sizes.max() < 2**26
                                 and total * int(sizes[0]) % int(sizes.sum()) != 0)


def interval_profile(
    pairs: RepeatPairs,
    bucket_edges: Sequence[float] = DEFAULT_BUCKET_EDGES,
    permutation_replicates: int = 1000,
    seed: int | None = None,
) -> IntervalProfile:
    """Consistency per interval bucket plus a monotone-trend statistic.

    Buckets partition [0, inf) at ``bucket_edges``; empty buckets are
    dropped. The trend is the Spearman correlation between bucket order and
    bucket consistency; its p-value comes from shuffling pairs across
    buckets (bucket sizes fixed) and is only computed when a seed is given;
    it is exactly 1, without drawing, when every shuffle must reach ``|rho|``.
    A negative interval in ``pairs``, which may be built by hand, raises
    ValidationError.
    """
    edges = sorted(float(e) for e in bucket_edges)
    if len(edges) != len(set(edges)) or any(not 0 < e < math.inf for e in edges):
        raise InvalidConfigError("bucket edges must be positive, finite and distinct")
    seed = None if seed is None else require_seed(seed, "interval_profile")
    if seed is not None and permutation_replicates < 1:
        raise InvalidConfigError("permutation replicates must be >= 1")
    bounds = [0.0, *edges, math.inf]
    timed = ~np.isnan(pairs.interval)
    if not timed.any():
        raise NoIntervalsError("no repeat pair carries an interval")
    intervals = pairs.interval[timed]
    if not (intervals >= 0).all():
        raise ValidationError("repeat pair intervals must be non-negative numbers")
    consistent = pairs.consistent[timed]
    bucket_of = np.searchsorted(bounds, intervals, side="right") - 1
    per_bucket = np.bincount(bucket_of, minlength=len(bounds) - 1)
    occupied = np.flatnonzero(per_bucket)
    sizes = per_bucket[occupied]
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    # consistency flags grouped by bucket, in pair order within a bucket
    flags = np.concatenate([consistent[bucket_of == b] for b in occupied]).astype(float)
    hits_per_bucket = np.add.reduceat(flags, starts)
    buckets = [
        IntervalBucket(
            low=bounds[idx],
            high=bounds[idx + 1],
            exact_rate=int(hit) / int(size),
            n_pairs=int(size),
        )
        for idx, hit, size in zip(occupied.tolist(), hits_per_bucket, sizes)
    ]
    if len(buckets) < 2:
        raise TooFewBucketsError(
            f"interval profile needs >= 2 non-empty buckets, got {len(buckets)}"
        )
    order = np.arange(len(buckets), dtype=float)
    rates = np.array([b.exact_rate for b in buckets])
    rho = _spearman(order, rates)
    p_value = None
    if seed is not None:
        hits = permutation_replicates
        if not _every_shuffle_hits(rho, sizes, int(hits_per_bucket.sum())):
            hits = 0
            for replicate in range(permutation_replicates):
                rng = np.random.default_rng([seed, replicate])
                perm_rates = np.add.reduceat(rng.permutation(flags), starts) / sizes
                if abs(_spearman(order, perm_rates)) >= abs(rho) - 1e-12:
                    hits += 1
        p_value = (1 + hits) / (1 + permutation_replicates)
    return IntervalProfile(buckets=tuple(buckets), trend_rho=rho, trend_p=p_value)
