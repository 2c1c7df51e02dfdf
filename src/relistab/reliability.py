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
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import (
    AnnotationSet,
    LabelSchema,
    RecordColumns,
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

#: ``MetricCall.rounds`` that selects the lowest round of the set the metric
#: runs on; a replicate missing that round's items falls to its own lowest
FIRST_ROUND = "first"


@dataclass(frozen=True)
class MetricCall:
    """A registered metric bound to its round selector and options:
    ``call(aset)`` runs ``METRICS[name].kernel`` on ``aset``."""

    name: str
    rounds: int | Sequence[int] | str | None = 1
    options: Mapping = field(default_factory=dict)

    def __call__(self, aset: AnnotationSet) -> "AgreementResult":
        rounds = min(aset.rounds()) if self.rounds == FIRST_ROUND else self.rounds
        return METRICS[self.name].kernel(aset, rounds, **self.options)


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


def _contributing_units(aset: AnnotationSet, rounds: Sequence[int]):
    """Split (item, round) units into ≥2-label units and exclusion notes."""
    units = {}
    exclusions = []
    for (item, rnd), entries in sorted(aset.round_units(rounds).items()):
        if len(entries) >= 2:
            units[(item, rnd)] = entries
        else:
            exclusions.append(f"item {item!r} round {rnd}: fewer than 2 labels")
    return units, exclusions


def _population(units) -> tuple[int, int]:
    items = {item for item, _ in units}
    annotators = set()
    for entries in units.values():
        annotators.update(ann for ann, _ in entries)
    return len(items), len(annotators)


def unit_agreement(labels: Sequence[str]) -> float:
    """Fraction of agreeing unordered label pairs within one unit (>= 2 labels)."""
    m = len(labels)
    agreeing = sum(c * (c - 1) for c in Counter(labels).values()) / 2
    return agreeing / (m * (m - 1) / 2)


def _chance_corrected(observed: float, expected: float) -> float | None:
    """(observed - expected) / (1 - expected), the kappa family's correction.

    Expected agreement 1 is the chance-degenerate corner: 1.0 when observed
    agreement is perfect too, None otherwise (callers decide whether that
    raises).
    """
    if expected >= 1.0 - 1e-15:
        return 1.0 if observed >= 1.0 - 1e-15 else None
    return (observed - expected) / (1.0 - expected)


def pair_kappa(pairs: Sequence[tuple[str, str]]) -> float | None:
    """Cohen's kappa of (rater 1, rater 2) label pairs, Pe from each rater's
    own marginals; None in the chance-degenerate corner."""
    marg_a = Counter(a for a, _ in pairs)
    marg_b = Counter(b for _, b in pairs)
    return counts_kappa(
        len(pairs), sum(1 for a, b in pairs if a == b), sum(marg_a[c] * marg_b[c] for c in marg_a)
    )


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
    units, exclusions = _contributing_units(aset, resolved)
    if not units:
        raise DegenerateError("no unit with >= 2 labels in the selected rounds")
    per_unit = [unit_agreement([lbl for _, lbl in entries]) for entries in units.values()]
    n_items, n_annotators = _population(units)
    return AgreementResult(
        metric_name="percent_agreement",
        value=float(np.mean(per_unit)),
        n_items=n_items,
        n_annotators=n_annotators,
        rounds=resolved,
        exclusions=tuple(exclusions),
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
    pairs: list[tuple[str, str]] = []
    items = set()
    exclusions = []
    for rnd in resolved:
        for item in aset.items():
            la = aset.label(item, annotator_a, rnd)
            lb = aset.label(item, annotator_b, rnd)
            if la is not None and lb is not None:
                pairs.append((la, lb))
                items.add(item)
            elif la is not None or lb is not None:
                exclusions.append(f"item {item!r} round {rnd}: labelled by one annotator only")
    if not pairs:
        raise NoOverlapError(
            f"annotators {annotator_a!r} and {annotator_b!r} share no labelled unit"
        )
    value = pair_kappa(pairs)
    if value is None:
        raise ChanceDegenerateError("expected agreement is 1 but observed agreement is not")
    return AgreementResult(
        metric_name="cohens_kappa",
        value=value,
        n_items=len(items),
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
    units, exclusions = _contributing_units(aset, resolved)
    if not units:
        raise DegenerateError("no unit with >= 2 labels in the selected rounds")
    size_freq = Counter(len(entries) for entries in units.values())
    n_raters = max(size_freq, key=lambda size: (size_freq[size], size))
    kept = {}
    for key, entries in sorted(units.items()):
        if len(entries) == n_raters:
            kept[key] = entries
        else:
            item, rnd = key
            exclusions.append(
                f"item {item!r} round {rnd}: {len(entries)} labels != modal count {n_raters}"
            )
    if not kept:
        raise DegenerateError("no unit matches the modal label count")
    counts = np.zeros((len(kept), len(aset.schema.categories)), dtype=float)
    cat_index = aset.schema.category_index()
    for row, entries in enumerate(kept.values()):
        for _, lbl in entries:
            counts[row, cat_index[lbl]] += 1
    n = float(n_raters)
    p_i = (np.sum(counts * (counts - 1), axis=1)) / (n * (n - 1))
    p_bar = float(np.mean(p_i))
    p_j = np.sum(counts, axis=0) / counts.sum()
    pe_bar = float(np.sum(p_j**2))
    value = _chance_corrected(p_bar, pe_bar)
    if value is None:
        raise ChanceDegenerateError("expected agreement is 1 but observed agreement is not")
    n_items, n_annotators = _population(kept)
    return AgreementResult(
        metric_name="fleiss_kappa",
        value=value,
        n_items=n_items,
        n_annotators=n_annotators,
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
    pooled = aset.unit_labels(resolved)
    exclusions = tuple(
        f"item {item!r}: fewer than 2 labels in selected rounds"
        for item in sorted(pooled)
        if len(pooled[item]) < 2
    )
    value = alpha_from_coincidence(aset.schema, coincidence_counts(aset, resolved), distance)
    contributing = {item for item, labels in pooled.items() if len(labels) >= 2}
    columns = aset.columns
    annotators = {
        annotator
        for item, annotator, rnd in zip(columns.item_id, columns.annotator_id, columns.round)
        if rnd in resolved and item in contributing
    }
    return AgreementResult(
        metric_name="krippendorff_alpha",
        value=value,
        n_items=len(contributing),
        n_annotators=len(annotators),
        rounds=resolved,
        exclusions=exclusions,
    )


def _alpha_gather(aset: AnnotationSet, call: MetricCall) -> Callable[[np.ndarray], float]:
    """Alpha's gather (see :class:`Metric`).

    A rebuilt replicate pools its draws in :meth:`AnnotationSet.unit_labels`
    order: by the lowest selected round each draw has, then in draw order.
    So each item's :func:`coincidence_blocks` block is computed once per
    round selection, and a replicate adds the drawn blocks in that order,
    one after another as :func:`coincidence_counts` does: the same float.
    """
    items, item_blocks = aset.items(), aset._item_blocks
    item_rounds = [item_blocks[item][1] for item in items]
    first_rounds = np.array([min(rounds) for rounds in item_rounds])
    selected = cache(lambda: resolve_rounds(aset, call.rounds))

    @cache
    def table(resolved: tuple[int, ...]):
        """Each item's block and its lowest selected round, by position in
        ``items``; an item with < 2 labels has a zero block and round 0."""
        blocks = coincidence_blocks(aset, resolved)
        k = len(aset.schema.categories)
        stacked = np.zeros((len(items), k, k))
        lowest = np.zeros(len(items), dtype=np.int64)
        for i, item in enumerate(items):
            if item in blocks:
                stacked[i] = blocks[item]
                lowest[i] = min(rnd for rnd in item_rounds[i] if rnd in resolved)
        return stacked, lowest

    def value(positions: np.ndarray) -> float:
        if call.rounds == FIRST_ROUND:
            resolved = (int(first_rounds[positions].min()),)
        else:
            # ``None`` resolves against the source's rounds: the ones a
            # replicate lacks hold none of its labels, so they change nothing
            resolved = selected()
        stacked, lowest = table(resolved)
        drawn = positions[lowest[positions] > 0]
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
    (rnd,) = resolved
    columns = aset.columns
    annotators = sorted(
        {annotator for annotator, r in zip(columns.annotator_id, columns.round) if r == rnd}
    )
    if len(annotators) < 2:
        raise DegenerateError("icc needs >= 2 annotators in the round")
    rows = []
    exclusions = []
    items_used = []
    for item in aset.items():
        labels = [aset.label(item, ann, rnd) for ann in annotators]
        if any(lbl is None for lbl in labels):
            if any(lbl is not None for lbl in labels):
                exclusions.append(f"item {item!r}: incomplete annotator coverage")
            continue
        rows.append([aset.schema.numeric_value(lbl) for lbl in labels])
        items_used.append(item)
    if len(rows) < 2:
        raise DegenerateError("icc needs >= 2 completely labelled items")
    matrix = np.array(rows, dtype=float)
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
    source item id), so resampled sets stay valid AnnotationSets. The set is
    gathered from ``aset``'s columns at each drawn item's record positions,
    and its indexes reuse the source's index entries; they come out as
    ``AnnotationSet(schema, records)`` would build them, key order included.
    """
    blocks = aset._item_blocks
    source_rounds, source_cells = aset._by_item_round, aset._by_cell
    seen: Counter = Counter()
    positions: list[int] = []
    item_column: list[str] = []
    by_item_round: dict = {}
    by_cell: dict = {}
    for item in item_ids:
        occurrence = seen[item]
        seen[item] += 1
        where, rounds, annotators = blocks[item]
        new_id = item
        if occurrence:
            new_id = f"{item}~{occurrence}"
            while new_id in blocks:
                new_id += "~"
        positions += where
        item_column += [new_id] * len(where)
        for rnd in rounds:
            by_item_round[(new_id, rnd)] = source_rounds[(item, rnd)]
        for annotator in annotators:
            by_cell[(new_id, annotator)] = source_cells[(item, annotator)]
    source = aset.columns

    def gather(column: tuple) -> map:
        return map(column.__getitem__, positions)

    columns = RecordColumns(
        gather(source.task_id), item_column, gather(source.annotator_id),
        gather(source.round), gather(source.label), gather(source.timestamp),
    )
    return AnnotationSet._from_indexes(aset.schema, columns, by_item_round, by_cell)


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
    if seed is None:
        raise InvalidConfigError(f"{what} requires an explicit seed")
    if replicates < 1:
        raise InvalidConfigError("replicates must be >= 1")
    if not 0.0 < confidence < 1.0:
        raise InvalidConfigError("confidence must lie in (0, 1)")
    point = estimate()
    values = []
    for r in range(replicates):
        try:
            values.append(replicate(int(seed), r))
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


def resampler(aset: AnnotationSet) -> Callable[..., AnnotationSet]:
    """``draw(*key)``: ``aset`` with its items resampled with replacement by
    ``default_rng(key)``."""
    items = aset.items()

    def draw(*key: int) -> AnnotationSet:
        return resample_items(aset, [items[i] for i in draw_positions(len(items), *key)])

    return draw


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
    if gather is None:
        draw = resampler(aset)
        return lambda *key: _value_of(metric(draw(*key)))
    value, n = gather(aset, metric), len(aset.items())
    return lambda *key: value(draw_positions(n, *key))


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
