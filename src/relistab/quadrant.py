"""Placement on the reliability x stability matrix.

Crossing high/low between-annotator agreement with high/low within-annotator
consistency yields four diagnoses:

====================  =====================  ============================
                      high stability         low stability
====================  =====================  ============================
high reliability      Straightforward        SystematicErrorOrValueChange
low reliability       SubjectivePerspectives AmbiguousDifficultOrPoor
====================  =====================  ============================

Scores equal to a cut count as high. Dataset-level scores use configurable,
chance-corrected metrics; item-level scores are raw proportions because
chance correction is undefined for a single item.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .core import AnnotationSet, resolve_rounds
from .errors import DegenerateError, InvalidConfigError, NonFiniteError, NoQualifyingItemsError
from .reliability import METRICS, pair_agreement
from .stability import dataset_stability, item_votes

#: dataset-level metrics: every registered one that needs no annotator pair
RELIABILITY_METRICS = tuple(name for name in METRICS if name != "cohens_kappa")
STABILITY_METRICS = ("self_kappa", "exact_rate")

#: raw (not chance-corrected) scores get the stricter default cut
_RAW_METRICS = ("percent_agreement", "exact_rate")


class Quadrant(str, Enum):
    STRAIGHTFORWARD = "Straightforward"
    SYSTEMATIC_ERROR_OR_VALUE_CHANGE = "SystematicErrorOrValueChange"
    SUBJECTIVE_PERSPECTIVES = "SubjectivePerspectives"
    AMBIGUOUS_DIFFICULT_OR_POOR = "AmbiguousDifficultOrPoor"


def default_cut(metric: str) -> float:
    return 0.8 if metric in _RAW_METRICS else 0.6


@dataclass(frozen=True)
class QuadrantThresholds:
    """Cut points and metric choices for the two axes.

    Omitted cuts default per metric kind: 0.6 for chance-corrected metrics,
    0.8 for raw agreement/consistency rates.
    """

    reliability_cut: float | None = None
    stability_cut: float | None = None
    reliability_metric: str = "krippendorff_alpha"
    stability_metric: str = "self_kappa"

    def __post_init__(self):
        if self.reliability_metric not in RELIABILITY_METRICS:
            raise InvalidConfigError(
                f"reliability_metric must be one of {RELIABILITY_METRICS}"
            )
        if self.stability_metric not in STABILITY_METRICS:
            raise InvalidConfigError(f"stability_metric must be one of {STABILITY_METRICS}")
        if self.reliability_cut is None:
            object.__setattr__(self, "reliability_cut", default_cut(self.reliability_metric))
        if self.stability_cut is None:
            object.__setattr__(self, "stability_cut", default_cut(self.stability_metric))
        for name, cut in (("reliability_cut", self.reliability_cut),
                          ("stability_cut", self.stability_cut)):
            if not 0.0 < cut < 1.0:
                raise InvalidConfigError(f"{name} must lie strictly in (0, 1), got {cut}")

    def to_report(self) -> dict:
        return {
            "reliability_cut": self.reliability_cut,
            "stability_cut": self.stability_cut,
            "reliability_metric": self.reliability_metric,
            "stability_metric": self.stability_metric,
        }


@dataclass(frozen=True)
class QuadrantAssignment:
    scope: str
    subject_id: str | None
    reliability_score: float
    stability_score: float
    quadrant: Quadrant
    thresholds: QuadrantThresholds

    def to_report(self) -> dict:
        return {
            "scope": self.scope,
            "subject_id": self.subject_id,
            "reliability": self.reliability_score,
            "stability": self.stability_score,
            "quadrant": self.quadrant.value,
            "thresholds": self.thresholds.to_report(),
        }


def classify(
    reliability_score: float,
    stability_score: float,
    thresholds: QuadrantThresholds | None = None,
) -> Quadrant:
    """Assign the unique quadrant for a finite (reliability, stability) pair."""
    thresholds = thresholds or QuadrantThresholds()
    if not (math.isfinite(reliability_score) and math.isfinite(stability_score)):
        raise NonFiniteError(
            f"scores must be finite, got ({reliability_score}, {stability_score})"
        )
    high_rel = reliability_score >= thresholds.reliability_cut
    high_stab = stability_score >= thresholds.stability_cut
    if high_rel:
        return Quadrant.STRAIGHTFORWARD if high_stab else Quadrant.SYSTEMATIC_ERROR_OR_VALUE_CHANGE
    return Quadrant.SUBJECTIVE_PERSPECTIVES if high_stab else Quadrant.AMBIGUOUS_DIFFICULT_OR_POOR


def classify_dataset(
    aset: AnnotationSet, thresholds: QuadrantThresholds | None = None
) -> QuadrantAssignment:
    """Whole-dataset placement: reliability on the first present round,
    stability across all rounds."""
    thresholds = thresholds or QuadrantThresholds()
    first_round = resolve_rounds(aset, None)[0]
    reliability_score = METRICS[thresholds.reliability_metric].kernel(aset, first_round).value
    stab = dataset_stability(aset)
    if thresholds.stability_metric == "self_kappa":
        if stab.self_kappa is None:
            raise DegenerateError("dataset self_kappa is undefined for every annotator")
        stability_score = stab.self_kappa
    else:
        stability_score = stab.exact_rate
    return QuadrantAssignment(
        scope="dataset",
        subject_id=None,
        reliability_score=reliability_score,
        stability_score=stability_score,
        quadrant=classify(reliability_score, stability_score, thresholds),
        thresholds=thresholds,
    )


def classify_items(
    aset: AnnotationSet, thresholds: QuadrantThresholds | None = None
) -> tuple[list[QuadrantAssignment], tuple[str, ...]]:
    """Per-item placement from raw scores.

    Reliability = fraction of agreeing first-round annotator pairs;
    stability = fraction of repeating annotators who never changed their
    label. Items lacking either two first-round labels or a repeat pair are
    excluded and reported in the second return value.
    """
    thresholds = thresholds or QuadrantThresholds()
    codes = aset.codes
    first_round = codes.rounds[0]
    consistent_votes = item_votes(aset)
    items, counts, _ = codes.label_counts(codes.item, codes.in_rounds([first_round]))
    paired = counts.sum(axis=1) >= 2
    agreement = dict(zip(items[paired].tolist(), pair_agreement(counts[paired]).tolist()))
    assignments = []
    exclusions = []
    for code, item in enumerate(codes.items):
        if code not in agreement:
            exclusions.append(f"item {item!r}: fewer than 2 round-{first_round} labels")
            continue
        votes = consistent_votes.get(item)
        if not votes:
            exclusions.append(f"item {item!r}: no repeat pair")
            continue
        reliability_score = agreement[code]
        stability_score = sum(votes) / len(votes)
        assignments.append(
            QuadrantAssignment(
                scope="item",
                subject_id=item,
                reliability_score=reliability_score,
                stability_score=stability_score,
                quadrant=classify(reliability_score, stability_score, thresholds),
                thresholds=thresholds,
            )
        )
    if not assignments:
        raise NoQualifyingItemsError(
            "no item has both >= 2 first-round labels and a repeat pair"
        )
    return assignments, tuple(exclusions)
