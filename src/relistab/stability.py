"""Within-annotator consistency across repeat rounds.

The unit of analysis is the :class:`~relistab.core.RepeatPair`: one
annotator's (first, second) labels for one item. Three scopes are reported —
per annotator, per item (a binary stable/unstable call plus a graded rate),
and pooled over the dataset — and consistency can be profiled against the
elapsed time between rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import AnnotationSet, RepeatPair, build_repeat_pairs
from .errors import (
    InvalidConfigError,
    NoIntervalsError,
    NoRepeatsError,
    TooFewBucketsError,
)
from .reliability import pair_kappa

#: bucket edges in seconds: same-session, < 1 day, < 1 week, < 1 month, rest
DEFAULT_BUCKET_EDGES = (3600.0, 86400.0, 604800.0, 2592000.0)


@dataclass(frozen=True)
class StabilityResult:
    """Exact repeat consistency (and its chance-corrected companion)."""

    scope: str
    subject_id: str | None
    exact_rate: float
    self_kappa: float | None
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


def _self_kappa(pairs: Sequence[RepeatPair]) -> float | None:
    """Cohen's kappa treating first-round and second-round labels as raters.

    Returns None in the chance-degenerate-with-disagreement corner (both
    rounds constant on one category yet imperfect agreement), which cannot
    arise from real pairs but keeps the contract explicit.
    """
    return pair_kappa([(p.first_label, p.second_label) for p in pairs])


def self_agreement(
    aset: AnnotationSet, annotator_id: str, pairing: str = "consecutive"
) -> StabilityResult:
    """One annotator's repeat consistency over their own RepeatPairs."""
    all_pairs = build_repeat_pairs(aset, pairing)
    pairs = [p for p in all_pairs if p.annotator_id == annotator_id]
    if not pairs:
        raise NoRepeatsError(f"annotator {annotator_id!r} has no repeat pair")
    exact = sum(1 for p in pairs if p.consistent) / len(pairs)
    return StabilityResult(
        scope="annotator",
        subject_id=annotator_id,
        exact_rate=exact,
        self_kappa=_self_kappa(pairs),
        n_pairs=len(pairs),
    )


def annotator_stability(
    aset: AnnotationSet, pairing: str = "consecutive"
) -> list[StabilityResult]:
    """Per-annotator results for every annotator with a repeat pair, from a
    single pairing pass (cheaper than repeated :func:`self_agreement`)."""
    by_annotator: dict[str, list[RepeatPair]] = {}
    for p in build_repeat_pairs(aset, pairing):
        by_annotator.setdefault(p.annotator_id, []).append(p)
    return [
        StabilityResult(
            scope="annotator",
            subject_id=annotator,
            exact_rate=sum(1 for p in pairs if p.consistent) / len(pairs),
            self_kappa=_self_kappa(pairs),
            n_pairs=len(pairs),
        )
        for annotator, pairs in sorted(by_annotator.items())
    ]


def item_votes(aset: AnnotationSet) -> dict[str, list[bool]]:
    """Per item, one vote per annotator who labelled it in >= 2 rounds: True
    iff all the labels they gave it (over every round) are identical.

    Items nobody relabelled are absent.
    """
    votes: dict[str, list[bool]] = {}
    for (item, _annotator), history in aset.cells().items():
        if len(history) >= 2:
            votes.setdefault(item, []).append(len({lbl for _, lbl, _ in history}) == 1)
    return votes


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


def dataset_stability(aset: AnnotationSet, pairing: str = "consecutive") -> StabilityResult:
    """Pooled repeat consistency: exact_rate over every pair in the dataset,
    self_kappa as the mean per-annotator kappa where defined."""
    pairs = build_repeat_pairs(aset, pairing)
    exact = sum(1 for p in pairs if p.consistent) / len(pairs)
    by_annotator: dict[str, list[RepeatPair]] = {}
    for p in pairs:
        by_annotator.setdefault(p.annotator_id, []).append(p)
    kappas = [
        k for k in (_self_kappa(v) for v in by_annotator.values()) if k is not None
    ]
    return StabilityResult(
        scope="dataset",
        subject_id=None,
        exact_rate=exact,
        self_kappa=float(np.mean(kappas)) if kappas else None,
        n_pairs=len(pairs),
    )


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman rank correlation with average ranks; 0.0 when either side
    is constant (the all-ties convention)."""

    def ranks(values: np.ndarray) -> np.ndarray:
        order = np.argsort(values, kind="stable")
        ranked = np.empty(len(values), dtype=float)
        i = 0
        while i < len(values):
            j = i
            while j + 1 < len(values) and values[order[j + 1]] == values[order[i]]:
                j += 1
            ranked[order[i : j + 1]] = (i + j) / 2.0 + 1.0
            i = j + 1
        return ranked

    rx, ry = ranks(x), ranks(y)
    sx, sy = rx.std(), ry.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0
    return float(np.mean((rx - rx.mean()) * (ry - ry.mean())) / (sx * sy))


def interval_profile(
    pairs: Sequence[RepeatPair],
    bucket_edges: Sequence[float] = DEFAULT_BUCKET_EDGES,
    permutation_replicates: int = 1000,
    seed: int | None = None,
) -> IntervalProfile:
    """Consistency per interval bucket plus a monotone-trend statistic.

    Buckets partition [0, inf) at ``bucket_edges``; empty buckets are
    dropped. The trend is the Spearman correlation between bucket order and
    bucket consistency; its p-value comes from shuffling pairs across
    buckets (bucket sizes fixed) and is only computed when a seed is given.
    """
    edges = sorted(float(e) for e in bucket_edges)
    if len(edges) != len(set(edges)) or any(e <= 0 for e in edges):
        raise InvalidConfigError("bucket edges must be positive and distinct")
    bounds = [0.0, *edges, math.inf]
    timed = [p for p in pairs if p.interval_seconds is not None]
    if not timed:
        raise NoIntervalsError("no repeat pair carries an interval")
    assigned: list[list[bool]] = [[] for _ in range(len(bounds) - 1)]
    for p in timed:
        idx = np.searchsorted(bounds, p.interval_seconds, side="right") - 1
        assigned[idx].append(p.consistent)
    buckets = []
    flags: list[bool] = []
    sizes: list[int] = []
    for idx, flags_in_bucket in enumerate(assigned):
        if not flags_in_bucket:
            continue
        buckets.append(
            IntervalBucket(
                low=bounds[idx],
                high=bounds[idx + 1],
                exact_rate=sum(flags_in_bucket) / len(flags_in_bucket),
                n_pairs=len(flags_in_bucket),
            )
        )
        flags.extend(flags_in_bucket)
        sizes.append(len(flags_in_bucket))
    if len(buckets) < 2:
        raise TooFewBucketsError(
            f"interval profile needs >= 2 non-empty buckets, got {len(buckets)}"
        )
    order = np.arange(len(buckets), dtype=float)
    rates = np.array([b.exact_rate for b in buckets])
    rho = _spearman(order, rates)
    p_value = None
    if seed is not None and permutation_replicates > 0:
        flag_array = np.array(flags, dtype=float)
        boundaries = np.cumsum(sizes)[:-1]
        hits = 0
        for replicate in range(permutation_replicates):
            rng = np.random.default_rng([int(seed), replicate])
            shuffled = rng.permutation(flag_array)
            perm_rates = np.array(
                [chunk.mean() for chunk in np.split(shuffled, boundaries)]
            )
            if abs(_spearman(order, perm_rates)) >= abs(rho) - 1e-12:
                hits += 1
        p_value = (1 + hits) / (1 + permutation_replicates)
    return IntervalProfile(buckets=tuple(buckets), trend_rho=rho, trend_p=p_value)
