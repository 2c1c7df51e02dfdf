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
from .errors import InvalidConfigError, NonFiniteError, NoQualifyingItemsError
from .reliability import METRICS, MetricCall, pair_agreement, replicate_value
from .stability import item_votes

#: the dataset-level metrics of each axis: every registered one but
#: cohens_kappa, which needs an annotator pair
RELIABILITY_METRICS = tuple(name for name, metric in METRICS.items()
                            if metric.axis == "reliability" and name != "cohens_kappa")
STABILITY_METRICS = tuple(name for name, metric in METRICS.items() if metric.axis == "stability")


class Quadrant(str, Enum):
    STRAIGHTFORWARD = "Straightforward"
    SYSTEMATIC_ERROR_OR_VALUE_CHANGE = "SystematicErrorOrValueChange"
    SUBJECTIVE_PERSPECTIVES = "SubjectivePerspectives"
    AMBIGUOUS_DIFFICULT_OR_POOR = "AmbiguousDifficultOrPoor"


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
        for axis, names in (("reliability", RELIABILITY_METRICS), ("stability", STABILITY_METRICS)):
            if getattr(self, f"{axis}_metric") not in names:
                raise InvalidConfigError(f"{axis}_metric must be one of {names}")
        for axis in ("reliability", "stability"):
            cut = getattr(self, f"{axis}_cut")
            if cut is None:
                cut = METRICS[getattr(self, f"{axis}_metric")].cut
                object.__setattr__(self, f"{axis}_cut", cut)
            if not 0.0 < cut < 1.0:
                raise InvalidConfigError(f"{axis}_cut must lie strictly in (0, 1), got {cut}")

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
    reliability_score, stability_score = (
        replicate_value(aset, MetricCall(name, first_round))()
        for name in (thresholds.reliability_metric, thresholds.stability_metric))
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
