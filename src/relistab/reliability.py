"""Between-annotator agreement coefficients.

All operations are pure functions of an :class:`AnnotationSet` and default to
round 1, the primary labelling pass. Each returns an
:class:`AgreementResult` carrying the value, the population it was computed
on, and a list of exclusions (units that failed the metric's precondition).

Conventions
-----------
* Units are ``(item, round)`` cells; selecting several rounds treats each
  round's labels for an item as a separate unit, except Krippendorff's
  alpha, which pools labels per item across the selected rounds (its
  coincidence construction handles unbalanced data natively).
* Chance-degenerate cases (expected agreement 1, zero expected disagreement)
  resolve to 1.0 when observed agreement is also perfect and raise
  :class:`ChanceDegenerateError` otherwise.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (
    AnnotationSet,
    ColumnCodes,
    LabelSchema,
    coincidence_blocks,
    coincidence_counts,
    resolve_rounds,
)
from .errors import (
    ChanceDegenerateError,
    DegenerateError,
    InsufficientVarianceError,
    InvalidConfigError,
    NoOverlapError,
    NotIntervalError,
    RelistabError,
    TooManyDegenerateError,
)

DISTANCES = ("nominal", "ordinal", "interval")
ICC_MODELS = ("oneway_random", "twoway_random_single")


@dataclass(frozen=True)
class Metric:
    """A registered coefficient: ``kernel(aset, rounds, **options)``, the
    closed range its value must lie in and, optionally, its gather:
    ``gather(aset, call)`` returns ``value(positions)``, the kernel's value
    on the replicate of ``aset`` that draws ``aset.items()[positions]``,
    computed without building that replicate."""

    kernel: Callable[..., "AgreementResult"]
    low: float
    high: float
    gather: Callable[[AnnotationSet, "MetricCall"], Callable[[np.ndarray], float]] | None = None


#: every coefficient by the name its results carry. Kernels are looked up as
#: module attributes at call time, so replacing one (e.g. to trace it) takes
#: effect for every caller of the table.
METRICS: dict[str, Metric] = {
    "percent_agreement": Metric(lambda s, r: percent_agreement(s, r), 0.0, 1.0),
    "cohens_kappa": Metric(lambda s, r, annotator_a, annotator_b: cohens_kappa(
        s, annotator_a, annotator_b, r), -1.0, 1.0),
    "fleiss_kappa": Metric(lambda s, r: fleiss_kappa(s, r), -1.0, 1.0),
    "krippendorff_alpha": Metric(
        lambda s, r, distance=None: krippendorff_alpha(s, r, distance), -1.0, 1.0,
        gather=lambda s, call: _alpha_gather(s, call)),
    "icc_oneway_random": Metric(lambda s, r: icc(s, r, "oneway_random"), -math.inf, 1.0),
    "icc_twoway_random_single": Metric(
        lambda s, r: icc(s, r, "twoway_random_single"), -math.inf, 1.0),
}

@dataclass(frozen=True)
class MetricCall:
    """A registered metric bound to its round selector and options:
    ``call(aset)`` runs ``METRICS[name].kernel`` on ``aset``."""

    name: str
    rounds: int | Sequence[int] | None = 1
    options: Mapping = field(default_factory=dict)

    def __call__(self, aset: AnnotationSet) -> "AgreementResult":
        return METRICS[self.name].kernel(aset, self.rounds, **self.options)


_RANGE_TOL = 1e-9


def _snap(metric_name: str, value: float) -> float:
    """Clamp float noise back into the metric's documented range."""
    low, high = METRICS[metric_name].low, METRICS[metric_name].high
    if value < low - _RANGE_TOL or value > high + _RANGE_TOL:
        raise RelistabError(f"{metric_name} produced out-of-range value {value!r}")
    return min(max(value, low), high)


@dataclass(frozen=True)
class AgreementResult:
    """One agreement coefficient with its computation context."""

    metric_name: str
    value: float
    n_items: int
    n_annotators: int
    rounds: tuple[int, ...]
    ci: tuple[float, float] | None = None
    exclusions: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "value", _snap(self.metric_name, float(self.value)))
        if self.ci is not None:
            low, high = (float(self.ci[0]), float(self.ci[1]))
            if not (low <= self.value <= high):
                raise RelistabError(
                    f"ci {self.ci} does not bracket value {self.value}"
                )
            object.__setattr__(self, "ci", (low, high))

    def with_ci(self, ci: tuple[float, float]) -> "AgreementResult":
        return replace(self, ci=ci)

    def to_report(self) -> dict:
        return {
            "metric": self.metric_name,
            "value": self.value,
            "n_items": self.n_items,
            "n_annotators": self.n_annotators,
            "round": self.rounds[0] if len(self.rounds) == 1 else list(self.rounds),
            "ci": None if self.ci is None else list(self.ci),
            "exclusions": list(self.exclusions),
        }


class _Units:
    """The (item, round) units of the selected rounds, in sorted (item,
    round) order: ``key`` holds each unit's ``item * n_rounds + round``
    (codes), ``counts`` its count of every label code and ``size`` its
    label count. Units with < 2 labels are excluded; with none left,
    DegenerateError is raised."""

    def __init__(self, aset: AnnotationSet, rounds: Sequence[int]):
        self.codes = codes = aset.codes
        self.n_rounds = len(codes.rounds)
        self.record_key = codes.item * self.n_rounds + codes.round
        self.key, self.counts, _ = codes.label_counts(self.record_key, codes.in_rounds(rounds))
        self.size = self.counts.sum(axis=1)
        self.contributing = self.size >= 2
        if not self.contributing.any():
            raise DegenerateError("no unit with >= 2 labels in the selected rounds")
        self.exclusions = self.notes(~self.contributing, "fewer than 2 labels")

    def notes(self, which: np.ndarray, why: str) -> list[str]:
        """An exclusion note for each unit ``which`` selects; ``why`` may
        name the unit's label count as ``{m}``."""
        items, rounds = self.codes.items, self.codes.rounds
        return [
            f"item {items[key // self.n_rounds]!r} round {rounds[key % self.n_rounds]}: "
            + why.format(m=m)
            for key, m in zip(self.key[which].tolist(), self.size[which].tolist())
        ]

    def population(self, which: np.ndarray) -> dict[str, int]:
        """``n_items`` and ``n_annotators`` of the units ``which`` selects."""
        keys = self.key[which]
        annotators = self.codes.annotator[np.isin(self.record_key, keys)]
        return {"n_items": len(np.unique(keys // self.n_rounds)),
                "n_annotators": len(np.unique(annotators))}


def pair_agreement(counts: np.ndarray) -> np.ndarray:
    """Per row of label counts (a unit with >= 2 labels), the fraction of
    its unordered label pairs that agree."""
    m = counts.sum(axis=1)
    return (counts * (counts - 1)).sum(axis=1) / 2 / (m * (m - 1) / 2)


def _chance_corrected(observed: float, expected: float) -> float | None:
    """(observed - expected) / (1 - expected), the kappa family's correction.

    Expected agreement 1 is the chance-degenerate corner: 1.0 when observed
    agreement is perfect too, None otherwise (callers decide whether that
    raises).
    """
    if expected >= 1.0 - 1e-15:
        return 1.0 if observed >= 1.0 - 1e-15 else None
    return (observed - expected) / (1.0 - expected)


def counts_kappa(n: int, agree: int, chance: int) -> float | None:
    """Cohen's kappa from integer counts of ``n`` pairs: ``agree`` of them
    equal, and ``chance`` the sum over labels of (rater 1's count) x (rater
    2's count). Po and Pe are int / int, so any caller holding the same
    counts gets the same float."""
    return _chance_corrected(agree / n, chance / (n * n))


def percent_agreement(aset: AnnotationSet, rounds: int | Sequence[int] | None = 1) -> AgreementResult:
    """Mean over units of (agreeing unordered annotator pairs / total pairs).

    Not chance-corrected; reported as the uncorrected baseline alongside the
    kappa/alpha family.
    """
    resolved = resolve_rounds(aset, rounds)
    units = _Units(aset, resolved)
    return AgreementResult(
        metric_name="percent_agreement",
        value=float(np.mean(pair_agreement(units.counts[units.contributing]))),
        **units.population(units.contributing),
        rounds=resolved,
        exclusions=tuple(units.exclusions),
    )


def cohens_kappa(
    aset: AnnotationSet,
    annotator_a: str,
    annotator_b: str,
    rounds: int | Sequence[int] | None = 1,
) -> AgreementResult:
    """Cohen's kappa between two annotators over co-labelled units.

    kappa = (Po - Pe) / (1 - Pe) with Pe from the two annotators' own label
    marginals. Pe = 1 with perfect observed agreement returns 1.0; Pe = 1
    otherwise is a contradiction and raises ChanceDegenerateError.
    """
    if annotator_a == annotator_b:
        raise InvalidConfigError("cohens_kappa needs two distinct annotators")
    resolved = resolve_rounds(aset, rounds)
    codes = aset.codes
    # rounds x items x (a, b) label codes
    grid = np.stack([codes.label_grid(codes.in_rounds([rnd]), (annotator_a, annotator_b))
                     for rnd in resolved])
    labelled = grid >= 0
    both = labelled.all(axis=2)
    exclusions = [f"item {codes.items[i]!r} round {resolved[r]}: labelled by one annotator only"
                  for r, i in zip(*np.nonzero(labelled.any(axis=2) & ~both))]
    a, b = grid[both].T
    if not len(a):
        raise NoOverlapError(
            f"annotators {annotator_a!r} and {annotator_b!r} share no labelled unit"
        )
    n_labels = len(codes.labels)
    chance = np.bincount(a, minlength=n_labels) @ np.bincount(b, minlength=n_labels)
    value = counts_kappa(len(a), int((a == b).sum()), int(chance))
    if value is None:
        raise ChanceDegenerateError("expected agreement is 1 but observed agreement is not")
    return AgreementResult(
        metric_name="cohens_kappa",
        value=value,
        n_items=int(both.any(axis=0).sum()),
        n_annotators=2,
        rounds=resolved,
        exclusions=tuple(exclusions),
    )


def fleiss_kappa(aset: AnnotationSet, rounds: int | Sequence[int] | None = 1) -> AgreementResult:
    """Fleiss' kappa over units sharing the modal label count.

    The metric requires a constant number of labels per unit; units whose
    count differs from the modal count (ties resolved toward the larger
    count) are excluded and reported.
    """
    resolved = resolve_rounds(aset, rounds)
    units = _Units(aset, resolved)
    size_freq = Counter(units.size[units.contributing].tolist())
    n_raters = max(size_freq, key=lambda size: (size_freq[size], size))
    kept = units.size == n_raters
    exclusions = units.exclusions + units.notes(
        units.contributing & ~kept, f"{{m}} labels != modal count {n_raters}")
    counts = units.counts[kept].astype(float)
    n = float(n_raters)
    p_i = (np.sum(counts * (counts - 1), axis=1)) / (n * (n - 1))
    p_bar = float(np.mean(p_i))
    p_j = np.sum(counts, axis=0) / counts.sum()
    pe_bar = float(np.sum(p_j**2))
    value = _chance_corrected(p_bar, pe_bar)
    if value is None:
        raise ChanceDegenerateError("expected agreement is 1 but observed agreement is not")
    return AgreementResult(
        metric_name="fleiss_kappa",
        value=value,
        **units.population(kept),
        rounds=resolved,
        exclusions=tuple(exclusions),
    )


def _distance_matrix(schema: LabelSchema, distance: str, coincidence: np.ndarray) -> np.ndarray:
    k = len(schema.categories)
    if distance == "nominal":
        return 1.0 - np.eye(k)
    if distance == "ordinal":
        # squared difference of cumulative coincidence-marginal mass between
        # the two categories, counting each endpoint at half weight
        marginals = coincidence.sum(axis=1)
        delta2 = np.zeros((k, k))
        for c in range(k):
            for kk in range(c + 1, k):
                span = marginals[c : kk + 1].sum() - (marginals[c] + marginals[kk]) / 2.0
                delta2[c, kk] = delta2[kk, c] = span**2
        return delta2
    if distance == "interval":
        if schema.numeric_values is None:
            raise NotIntervalError("interval distance needs schema numeric_values")
        values = np.array([schema.numeric_value(c) for c in schema.categories])
        diff = values[:, None] - values[None, :]
        return diff**2
    raise InvalidConfigError(f"distance must be one of {DISTANCES}, got {distance!r}")


def alpha_from_coincidence(
    schema: LabelSchema, coincidence: np.ndarray, distance: str | None = None
) -> float:
    """Krippendorff's alpha of a coincidence matrix, 1 - D_o / D_e, snapped
    into [-1, 1]; ``distance`` defaults to the schema's scale_kind."""
    if distance is None:
        distance = schema.scale_kind
    delta2 = _distance_matrix(schema, distance, coincidence)
    n_total = coincidence.sum()
    marginals = coincidence.sum(axis=1)
    d_observed = float((coincidence * delta2).sum()) / n_total
    d_expected = float((np.outer(marginals, marginals) * delta2).sum()) / (
        n_total * (n_total - 1.0)
    )
    value = 1.0 if d_expected == 0.0 else 1.0 - d_observed / d_expected
    return _snap("krippendorff_alpha", float(value))


def krippendorff_alpha(
    aset: AnnotationSet,
    rounds: int | Sequence[int] | None = 1,
    distance: str | None = None,
) -> AgreementResult:
    """Krippendorff's alpha: 1 - observed/expected disagreement.

    Works directly on the coincidence matrix, so unbalanced units (any item
    with >= 2 labels) contribute without imputation. ``distance`` defaults to
    the schema's scale_kind. Zero expected disagreement means every pairable
    value is identical and yields 1.0.
    """
    resolved = resolve_rounds(aset, rounds)
    codes = aset.codes
    at = codes.in_rounds(resolved)
    items, counts, _ = codes.label_counts(codes.item, at)
    pairable = counts.sum(axis=1) >= 2
    exclusions = tuple(
        f"item {codes.items[item]!r}: fewer than 2 labels in selected rounds"
        for item in items[~pairable].tolist()
    )
    value = alpha_from_coincidence(aset.schema, coincidence_counts(aset, resolved), distance)
    annotators = codes.annotator[at[np.isin(codes.item[at], items[pairable])]]
    return AgreementResult(
        metric_name="krippendorff_alpha",
        value=value,
        n_items=int(pairable.sum()),
        n_annotators=len(np.unique(annotators)),
        rounds=resolved,
        exclusions=exclusions,
    )


def _alpha_gather(aset: AnnotationSet, call: MetricCall) -> Callable[[np.ndarray], float]:
    """Alpha's gather (see :class:`Metric`).

    A rebuilt replicate pools its draws by the lowest selected round each
    draw has, then by the position of the draw's first record in that
    round, which is draw order. So each item's :func:`coincidence_blocks`
    block is computed once, and a replicate adds the drawn blocks in that
    order, one after another as :func:`coincidence_counts` does: the same
    float. ``None`` selects the source's rounds: the ones a replicate lacks
    hold none of its labels, so they change nothing.
    """
    codes = aset.codes

    @cache
    def table():
        """Each item's block and the code of its lowest selected round, by
        position in ``items``; an item with < 2 labels has round -1."""
        items, lowest_rounds, blocks = coincidence_blocks(aset, call.rounds)
        k = len(codes.labels)
        stacked = np.zeros((len(codes.items), k, k))
        lowest = np.full(len(codes.items), -1)
        stacked[items], lowest[items] = blocks, lowest_rounds
        return stacked, lowest

    def value(positions: np.ndarray) -> float:
        stacked, lowest = table()
        drawn = positions[lowest[positions] >= 0]
        if not drawn.size:
            raise DegenerateError("no item has >= 2 labels in the selected rounds")
        order = drawn[np.argsort(lowest[drawn], kind="stable")]
        coincidence = np.add.reduce(stacked[order], axis=0)
        return alpha_from_coincidence(aset.schema, coincidence, call.options.get("distance"))

    return value


def icc(
    aset: AnnotationSet,
    rounds: int | Sequence[int] | None = 1,
    model: str = "oneway_random",
) -> AgreementResult:
    """Intraclass correlation for interval-scaled labels, single rating.

    ``oneway_random`` is ICC(1,1); ``twoway_random_single`` is ICC(2,1).
    Requires a complete item x annotator grid in one round; incomplete items
    are excluded and reported.
    """
    if model not in ICC_MODELS:
        raise InvalidConfigError(f"model must be one of {ICC_MODELS}, got {model!r}")
    if aset.schema.scale_kind != "interval":
        raise NotIntervalError(
            f"icc needs an interval schema, got scale_kind {aset.schema.scale_kind!r}"
        )
    resolved = resolve_rounds(aset, rounds)
    if len(resolved) != 1:
        raise InvalidConfigError("icc operates on exactly one round")
    codes = aset.codes
    at = codes.in_rounds(resolved)
    annotators = [codes.annotators[a] for a in np.unique(codes.annotator[at]).tolist()]
    if len(annotators) < 2:
        raise DegenerateError("icc needs >= 2 annotators in the round")
    grid = codes.label_grid(at, annotators)
    labelled = grid >= 0
    complete = labelled.all(axis=1)
    exclusions = [f"item {codes.items[i]!r}: incomplete annotator coverage"
                  for i in np.flatnonzero(labelled.any(axis=1) & ~complete).tolist()]
    if complete.sum() < 2:
        raise DegenerateError("icc needs >= 2 completely labelled items")
    values = np.array([aset.schema.numeric_value(label) for label in codes.labels])
    matrix = values[grid[complete]]
    n, k = matrix.shape
    grand = matrix.mean()
    row_means = matrix.mean(axis=1)
    col_means = matrix.mean(axis=0)
    ss_rows = k * float(((row_means - grand) ** 2).sum())
    ms_rows = ss_rows / (n - 1)
    if model == "oneway_random":
        ss_within = float(((matrix - row_means[:, None]) ** 2).sum())
        ms_within = ss_within / (n * (k - 1))
        denom = ms_rows + (k - 1) * ms_within
        if denom == 0.0:
            raise InsufficientVarianceError("zero between-item and residual variance")
        value = (ms_rows - ms_within) / denom
    else:
        ss_cols = n * float(((col_means - grand) ** 2).sum())
        ms_cols = ss_cols / (k - 1)
        ss_err = float(
            ((matrix - row_means[:, None] - col_means[None, :] + grand) ** 2).sum()
        )
        ms_err = ss_err / ((n - 1) * (k - 1))
        denom = ms_rows + (k - 1) * ms_err + k * (ms_cols - ms_err) / n
        if denom == 0.0:
            raise InsufficientVarianceError("zero variance in every ANOVA component")
        value = (ms_rows - ms_err) / denom
    return AgreementResult(
        metric_name=f"icc_{model}",
        value=value,
        n_items=n,
        n_annotators=k,
        rounds=resolved,
        exclusions=tuple(exclusions),
    )


def resample_items(aset: AnnotationSet, item_ids: Sequence[str]) -> AnnotationSet:
    """Dataset restricted to ``item_ids`` with replacement.

    Repeated draws of an item are kept distinct by suffixing ``~k`` to the
    k-th duplicate (plus as many ``~`` as it takes to differ from every
    source item id), so resampled sets stay valid AnnotationSets. The
    replicate's codes are gathered from ``aset``'s at each drawn item's
    record positions, in draw order and then in record order, as
    :func:`~relistab.core.validate_dataset` codes those records. An id not
    in ``aset`` raises InvalidConfigError.
    """
    codes = aset.codes
    code = dict(zip(codes.items, range(len(codes.items))))
    seen: Counter = Counter()
    drawn, ids = [], []
    for item in item_ids:
        if item not in code:
            raise InvalidConfigError(f"cannot resample item {item!r}: it is not in the set")
        new_id = f"{item}~{seen[item]}" if seen[item] else item
        while seen[item] and new_id in code:
            new_id += "~"
        seen[item] += 1
        drawn.append(code[item])
        ids.append(new_id)
    by_id = sorted(range(len(ids)), key=ids.__getitem__)  # its argsort: each draw's item code
    order, bounds = codes.item_runs
    drawn = np.array(drawn, dtype=np.intp)
    starts, sizes = bounds[drawn], bounds[drawn + 1] - bounds[drawn]
    # each draw's run of ``order``, one after another
    offsets = np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)
    positions = order[offsets + np.arange(sizes.sum())]
    annotators, annotator = np.unique(codes.annotator[positions], return_inverse=True)
    rounds, round_ = np.unique(codes.round[positions], return_inverse=True)
    return AnnotationSet(aset.schema, ColumnCodes(
        tuple(ids[i] for i in by_id), tuple(codes.annotators[a] for a in annotators.tolist()),
        tuple(codes.rounds[r] for r in rounds.tolist()), codes.labels,
        np.repeat(np.argsort(by_id), sizes), annotator, round_, codes.label[positions],
        codes.timestamp[positions],
    ))


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


def percentile_ci(
    estimate: Callable[[], float],
    replicate: Callable[[int, int], float],
    replicates: int,
    confidence: float,
    seed: int | None,
    what: str,
) -> tuple[float, tuple[float, float]]:
    """Point estimate plus percentile interval over resampled replicates.

    ``replicate(seed, r)`` computes replicate ``r``, deriving its randomness
    from (seed, r) only; replicates that raise DegenerateError are dropped,
    and more than half dropped raises TooManyDegenerateError. The interval
    is widened, when needed, to bracket the point estimate so that reported
    (value, ci) pairs always nest.
    """
    seed = require_seed(seed, what)
    if replicates < 1:
        raise InvalidConfigError("replicates must be >= 1")
    if not 0.0 < confidence < 1.0:
        raise InvalidConfigError("confidence must lie in (0, 1)")
    point = estimate()
    values = []
    for r in range(replicates):
        try:
            values.append(replicate(seed, r))
        except DegenerateError:
            pass
    degenerate = replicates - len(values)
    if degenerate > replicates / 2:
        raise TooManyDegenerateError(f"{degenerate}/{replicates} {what} replicates were degenerate")
    tail = (1.0 - confidence) / 2.0 * 100.0
    low, high = np.percentile(values, [tail, 100.0 - tail])
    return point, (min(float(low), point), max(float(high), point))


def draw_positions(n: int, *key: int) -> np.ndarray:
    """The positions of the ``n`` items that replicate ``key`` draws with
    replacement: ``default_rng(key).integers(0, n, n)``. Every item
    bootstrap draws through here, so all of them share one RNG stream."""
    return np.random.default_rng(list(key)).integers(0, n, size=n)


Measure = Callable[[AnnotationSet], "AgreementResult | float"]


def _value_of(result: "AgreementResult | float") -> float:
    return result.value if isinstance(result, AgreementResult) else float(result)


def replicate_value(aset: AnnotationSet, metric: MetricCall | Measure) -> Callable[..., float]:
    """``value(*key)``: ``metric``'s value on the replicate of ``aset`` whose
    items :func:`draw_positions` draws for ``key``.

    A :class:`MetricCall` of a metric registered with a gather (alpha) is
    evaluated from per-item statistics of ``aset`` without building the
    replicate; any other metric or callable runs on the replicate that
    :func:`resample_items` builds. Both give the same float.
    """
    gather = METRICS[metric.name].gather if isinstance(metric, MetricCall) else None
    items = aset.items()
    if gather is None:
        return lambda *key: _value_of(metric(resample_items(
            aset, [items[i] for i in draw_positions(len(items), *key).tolist()])))
    value = gather(aset, metric)
    return lambda *key: value(draw_positions(len(items), *key))


def bootstrap_ci(
    metric: MetricCall | Measure,
    aset: AnnotationSet,
    replicates: int = 1000,
    confidence: float = 0.95,
    seed: int | None = None,
) -> tuple[float, float]:
    """Percentile bootstrap interval for ``metric`` by item resampling.

    Replicate ``r`` resamples items with the RNG stream (seed, r), so
    results are reproducible and order-independent; see
    :func:`replicate_value` for how a replicate is evaluated and
    :func:`percentile_ci` for dropped replicates and bracketing.
    """
    return percentile_ci(
        lambda: _value_of(metric(aset)), replicate_value(aset, metric),
        replicates, confidence, seed, "bootstrap",
    )[1]
