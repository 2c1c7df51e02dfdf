"""Association between item stability and why-items-vary labels.

Items judged unstable/stable on one task are crossed with a second,
meta-level labelling of why their labels vary (subjective vs
ambiguous/difficult) in a 2x2 contingency table, summarized by a phi
coefficient with a margin-preserving permutation test. Also provides
two-dataset difference tests for reliability and stability with bootstrap
intervals.

Sign convention
---------------
``phi`` is computed as (bc - ad) / sqrt((a+b)(c+d)(a+c)(b+d)) — note the
numerator order, which is the *negation* of the more common (ad - bc)
orientation. The magnitude is convention-independent; reports carry an
explicit ``convention`` tag so downstream readers can reorient the sign.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import AnnotationSet, require_seed, resolve_rounds
from .errors import (
    EmptyInputError,
    InvalidConfigError,
    NoOverlapError,
    ValidationError,
    ZeroMarginError,
)
from .reliability import METRICS, MetricCall, draw_positions, percentile_ci, replicate_value
from .stability import ItemStabilityLabel

RATIONALISATION_LABELS = ("subjective", "ambiguous", "difficult")
RESOLVED_SUBJECTIVE = "subjective"
RESOLVED_AMBIGUOUS_DIFFICULT = "ambiguous_difficult"
PHI_CONVENTION = "paper(bc-ad)"


@dataclass(frozen=True)
class RationalisationRecord:
    """One rater's judgement of why an item invites label variation."""

    item_id: str
    rater_id: str
    label: str

    def __post_init__(self):
        if self.label not in RATIONALISATION_LABELS:
            raise ValidationError(
                f"rationalisation label must be one of {RATIONALISATION_LABELS}, "
                f"got {self.label!r}"
            )


@dataclass(frozen=True)
class ContingencyTable:
    """2x2 counts: rows stable/unstable, columns subjective/ambiguous-difficult."""

    a: int  # stable & subjective
    b: int  # stable & ambiguous/difficult
    c: int  # unstable & subjective
    d: int  # unstable & ambiguous/difficult

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.d) < 0:
            raise InvalidConfigError("contingency counts must be non-negative")
        if self.total < 1:
            raise InvalidConfigError("contingency table must count at least one item")

    @property
    def total(self) -> int:
        return self.a + self.b + self.c + self.d

    def margins(self) -> tuple[int, int, int, int]:
        return (self.a + self.b, self.c + self.d, self.a + self.c, self.b + self.d)

    def to_report(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}


@dataclass(frozen=True)
class AssociationResult:
    phi: float
    p_value: float | None
    table: ContingencyTable
    n_excluded_ties: int = 0

    def __post_init__(self):
        if abs(self.phi) > 1.0 + 1e-12:
            raise InvalidConfigError(f"|phi| must be <= 1, got {self.phi}")

    def to_report(self) -> dict:
        return {
            "phi": self.phi,
            "p_value": self.p_value,
            "table": self.table.to_report(),
            "excluded_ties": self.n_excluded_ties,
            "convention": PHI_CONVENTION,
        }


def resolve_rationalisation(
    records: Sequence[RationalisationRecord],
) -> tuple[dict[str, str], tuple[str, ...]]:
    """Majority label per item after collapsing ambiguous+difficult.

    Returns (item -> resolved label, ids of tied items, which are excluded).
    """
    if not records:
        raise EmptyInputError("no rationalisation records")
    votes: dict[str, Counter] = {}
    for rec in records:
        collapsed = (
            RESOLVED_SUBJECTIVE
            if rec.label == "subjective"
            else RESOLVED_AMBIGUOUS_DIFFICULT
        )
        votes.setdefault(rec.item_id, Counter())[collapsed] += 1
    resolved: dict[str, str] = {}
    ties: list[str] = []
    for item in sorted(votes):
        counter = votes[item]
        if counter[RESOLVED_SUBJECTIVE] == counter[RESOLVED_AMBIGUOUS_DIFFICULT]:
            ties.append(item)
        else:
            resolved[item] = counter.most_common(1)[0][0]
    return resolved, tuple(ties)


def build_contingency(
    stability: Sequence[ItemStabilityLabel], rationalisation: Mapping[str, str]
) -> ContingencyTable:
    """Cross stability calls with resolved rationalisations over shared items."""
    counts = {"a": 0, "b": 0, "c": 0, "d": 0}
    for entry in stability:
        category = rationalisation.get(entry.item_id)
        if category is None:
            continue
        subjective = category == RESOLVED_SUBJECTIVE
        if entry.stable:
            counts["a" if subjective else "b"] += 1
        else:
            counts["c" if subjective else "d"] += 1
    if sum(counts.values()) == 0:
        raise NoOverlapError("stability and rationalisation inputs share no item")
    return ContingencyTable(**counts)


def phi(table: ContingencyTable, n_excluded_ties: int = 0) -> AssociationResult:
    """Phi coefficient of the 2x2 table under the (bc - ad) orientation."""
    m = table.margins()
    if min(m) == 0:
        raise ZeroMarginError(f"phi undefined: margins {m} include zero")
    numerator = table.b * table.c - table.a * table.d
    value = numerator / math.sqrt(math.prod(m))
    return AssociationResult(
        phi=value, p_value=None, table=table, n_excluded_ties=n_excluded_ties
    )


def permutation_p(table: ContingencyTable, replicates: int = 10000, seed: int | None = None) -> float:
    """Two-sided margin-preserving permutation p-value for phi.

    Random tables with the observed margins are drawn hypergeometrically;
    because all margins are fixed, comparing |phi| reduces to comparing the
    integer numerator |bc - ad|, which keeps the test exact in floating
    point. Add-one smoothing keeps p in (0, 1].
    """
    seed = require_seed(seed, "permutation_p")
    if replicates < 1:
        raise InvalidConfigError("replicates must be >= 1")
    row_stable, _row_unstable, col_subjective, col_ambiguous = table.margins()
    if min(table.margins()) == 0:
        raise ZeroMarginError(f"phi undefined: margins {table.margins()} include zero")
    rng = np.random.default_rng(seed)
    a = rng.hypergeometric(col_subjective, col_ambiguous, row_stable, size=replicates).astype(np.int64)
    b = row_stable - a
    c = col_subjective - a
    d = col_ambiguous - b
    observed = abs(table.b * table.c - table.a * table.d)
    simulated = np.abs(b * c - a * d)
    hits = int(np.count_nonzero(simulated >= observed))
    return (1 + hits) / (1 + replicates)


#: reliability metrics a two-dataset comparison accepts
COMPARE_RELIABILITY_METRICS = ("krippendorff_alpha", "fleiss_kappa", "percent_agreement")


def _difference(set_a: AnnotationSet, set_b: AnnotationSet, metric: str, replicates: int,
                seed: int | None, confidence: float) -> tuple[float, tuple[float, float]]:
    """``metric`` of ``set_a`` minus ``metric`` of ``set_b``, each called on
    its set's first round, with the percentile interval of the replicate
    differences; each set's items are resampled apart, see :func:`replicate_value`."""
    values = [replicate_value(s, MetricCall(metric, resolve_rounds(s, None)[0]))
              for s in (set_a, set_b)]

    def difference(*key: int) -> float:
        a, b = (value(*key, side) if key else value() for side, value in enumerate(values))
        return a - b

    return percentile_ci(difference, replicates, confidence, seed, "comparison")


def compare_stability(
    set_a: AnnotationSet,
    set_b: AnnotationSet,
    replicates: int = 1000,
    seed: int | None = None,
    metric: str = "exact_rate",
    confidence: float = 0.95,
) -> tuple[float, tuple[float, float]]:
    """dataset_stability(a) - dataset_stability(b) with a bootstrap CI, see
    :func:`_difference`; each set is paired once."""
    if metric not in METRICS or METRICS[metric].axis != "stability":
        raise InvalidConfigError("stability metric must be exact_rate or self_kappa")
    return _difference(set_a, set_b, metric, replicates, seed, confidence)


def compare_reliability(
    set_a: AnnotationSet,
    set_b: AnnotationSet,
    replicates: int = 1000,
    seed: int | None = None,
    metric: str = "krippendorff_alpha",
    confidence: float = 0.95,
) -> tuple[float, tuple[float, float]]:
    """Reliability difference between two datasets with a bootstrap CI, see
    :func:`_difference`; a replicate lacking its set's first round is
    degenerate."""
    if metric not in COMPARE_RELIABILITY_METRICS:
        raise InvalidConfigError(
            f"reliability metric must be one of {sorted(COMPARE_RELIABILITY_METRICS)}"
        )
    return _difference(set_a, set_b, metric, replicates, seed, confidence)


def compare_item_scores(
    scores_a: Sequence[float],
    scores_b: Sequence[float],
    replicates: int = 1000,
    seed: int | None = None,
    confidence: float = 0.95,
) -> tuple[float, tuple[float, float]]:
    """mean(scores_a) - mean(scores_b) with a bootstrap percentile CI.

    For hypothesis-style group comparisons of per-item scores (e.g. the
    item-level reliability of two groups from the same dataset).
    """
    if not scores_a or not scores_b:
        raise EmptyInputError("both score groups must be non-empty")
    arrays = (np.asarray(scores_a, dtype=float), np.asarray(scores_b, dtype=float))

    def difference(*key: int) -> float:
        a, b = (scores[draw_positions(len(scores), *key, side)] if key else scores
                for side, scores in enumerate(arrays))
        return float(a.mean() - b.mean())

    return percentile_ci(difference, replicates, confidence, seed, "comparison")
